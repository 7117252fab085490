import functools
import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from ledger_reference import reference_energies, reference_functionals, reference_ledger_row, reference_momentum_rhs

from nsch import scheme
from nsch.config import parse_config
from nsch.constitutive import DoubleWell, FreeEnergySpec, FreeEnergyValues, TanhMixing, chemical_potential, stress
from nsch.diagnostics import EnergyLedger, energy_ledger_step, initial_ledger_row
from nsch.ensemble import EnsembleConfig, _state_functionals, run_trajectory
from nsch.errors import PositivityError
from nsch.noise import (
    ConstantDiffusion,
    LinearDiffusion,
    NoiseSpec,
    SineDiffusion,
    geometric_noise,
    ito_grad_correction,
    ito_value_correction,
    noise_sum,
    path_generator,
    sample_increment,
    sigma_table,
)
from nsch.scheme import SchemeState, collocation, step
from nsch.spectral import (
    TorusGrid,
    coeff_norm,
    grad_tensor,
    gradient,
    integrate_values,
    laplacian,
    random_band_limited,
    to_physical,
    to_spectral,
)

# the default physics: 1D, 32 modes, geometric noise with K = 20
DEFAULT_NOISY = "[noise]\nseed = 7\n\n[run]\nhorizon = {horizon!r}\n"

# transforms per step (step + ledger row + sup functionals) on DEFAULT_NOISY;
# the step, the ledger and the functionals share one collocation record per
# state, which transforms its fields in stacks, and the velocity recovery
# transforms nothing.  Of these, the calls that leave numpy to derive the
# transform shape from the array (no ``s`` or no ``axes``), which costs about
# a third of a 50-point transform.  For each count: lower it, never raise it.
MAX_FFT_CALLS_PER_STEP = 6
MAX_SHAPELESS_FFT_CALLS_PER_STEP = 0

# free-energy profile evaluations (TanhMixing and DoubleWell value, d1, d2)
# per step, over the same step + ledger row + sup functionals on
# DEFAULT_NOISY.  Each state evaluates log rho and each profile once, for the
# step and the ledger together.  Lower it, never raise it.
MAX_PROFILE_CALLS_PER_STEP = 6

# calls per step (step + ledger row + sup functionals on DEFAULT_NOISY) to
# numpy's Python-level wrappers of reductions and broadcasts (numpy.sum, min,
# max, prod, broadcast_to, linalg.norm), each dearer than the arithmetic it
# wraps on the grid's small arrays, and to numpy.where (the projection of a
# coefficient array).  The run loop uses array methods and math scalars, and
# projects the momentum right-hand side once.  For each count: lower it,
# never raise it.
MAX_NUMPY_WRAPPER_CALLS_PER_STEP = 0
MAX_WHERE_CALLS_PER_STEP = 4

# iterations of one velocity recovery: conjugate gradients start from
# P_m(w / rho); the direct solve of small systems reports 0
MAX_GRAM_ITERATIONS = 4


def default_config(steps: int) -> EnsembleConfig:
    config = parse_config(DEFAULT_NOISY.format(horizon=steps * 1e-5))
    assert config.grid == TorusGrid(dim=1, modes_per_dim=32) and config.params.noise.K == 20
    return EnsembleConfig(
        grid=config.grid, params=config.params, initial=config.initial, paths=1, horizon=config.horizon
    )


def fresh(state: SchemeState) -> SchemeState:
    """The same state as a new object, without a collocation record."""
    return SchemeState(t=state.t, grid=state.grid, rho=state.rho, w=state.w, u=state.u, c=state.c)


def test_fft_calls_per_step_bounded(fft_calls):
    steps = 20
    at_step = {}
    run_trajectory(default_config(steps), 0, on_step=lambda done, *_: at_step.setdefault(done, dict(fft_calls)))
    per_step = {key: (at_step[steps][key] - at_step[1][key]) / (steps - 1) for key in fft_calls}
    assert 0 < per_step["n"] <= MAX_FFT_CALLS_PER_STEP, per_step
    assert per_step["shapeless"] <= MAX_SHAPELESS_FFT_CALLS_PER_STEP, per_step


# the named blocks of each transform stack of a collocation record, in stack order
RECORD_STACKS = {
    "linear": ("u", "c", "grad_c", "lap_c", "grad_rho", "grad_u", "visc_stress"),
    "products": ("mu", "momentum", "art_pressure", "korteweg", "u_r_grad_c", "rho_u_r"),
    "resampled": ("mu_values", "grad_mu", "lap_mu", "momentum_values"),
    "second_products": ("lap_mu_over_rho", "momentum_flux"),
}
# the record's other fields
RECORD_FIELDS = ("grid", "params", "rho", "visc_stress_hat", "cut", "u_r", "free_energy_values", "sigma", "dsigma",
                 "rho_u_sq", "grad_c_sq", "energies", "artificial")


def test_record_fields_are_plain_attributes():
    # no property machinery between a record and its values: collocation()
    # returns a record built whole, with every field stored on it and the
    # blocks of each stack read-only views of one array
    for cls in (scheme.Collocation, FreeEnergyValues):
        for name, attr in vars(cls).items():
            assert not isinstance(attr, (property, functools.cached_property)), f"{cls.__name__}.{name}"

    config = default_config(1)
    record = vars(collocation(config.initial_state(), config.params))
    assert "state" not in record
    for name in RECORD_FIELDS:
        assert name in record, name
    for stack, names in RECORD_STACKS.items():
        base = record[names[0]].base
        assert base is not None, stack
        for name in names:
            block = record[name]
            assert block.base is base, f"{stack}.{name}"
            assert not block.flags.writeable, f"{stack}.{name}"


def test_stepped_past_state_is_freed_by_reference_counts():
    # a record keeps no reference to its state, so a state and its record
    # form no cycle and a trajectory frees each state without the collector
    config = default_config(2)
    params = config.params
    gen = path_generator(config.base_seed, 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pre, _ = step(config.initial_state(), params, gen)
        post, rep = step(pre, params, gen)
        energy_ledger_step(pre, post, rep.increment, params)
        _state_functionals(pre, params)
        ref = weakref.ref(pre)
        del pre
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_record_of_a_state_at_the_floor_raises_at_its_time():
    config = default_config(1)
    state = replace(config.initial_state(), t=0.125)
    floor = float(to_physical(config.grid, state.rho).min())
    params = replace(config.params, fspec=replace(config.params.fspec, rho_floor=floor))
    with pytest.raises(PositivityError) as built:
        collocation(state, params)
    assert built.value.t == 0.125 and built.value.min_rho == floor
    assert "_collocation" not in vars(state)
    with pytest.raises(PositivityError) as stepped:
        step(state, params, path_generator(config.base_seed, 0))
    assert (stepped.value.t, str(stepped.value)) == (built.value.t, str(built.value))


def test_profile_calls_per_step_bounded(monkeypatch):
    calls = {"profiles": 0}
    for profile in (TanhMixing, DoubleWell):
        for name in ("value", "d1", "d2"):

            def counted(self, c, _method=getattr(profile, name)):
                calls["profiles"] += 1
                return _method(self, c)

            monkeypatch.setattr(profile, name, counted)
    steps = 20
    at_step = {}
    run_trajectory(default_config(steps), 0, on_step=lambda done, *_: at_step.setdefault(done, dict(calls)))
    per_step = {key: (at_step[steps][key] - at_step[1][key]) / (steps - 1) for key in calls}
    assert 0 < per_step["profiles"] <= MAX_PROFILE_CALLS_PER_STEP


@pytest.fixture
def numpy_wrapper_calls(monkeypatch):
    """Running counts of calls to numpy's reduction and broadcast wrappers and to numpy.where."""
    calls = {"wrappers": 0, "where": 0}
    patched = [(np, name, "wrappers") for name in ("sum", "min", "max", "prod", "broadcast_to")]
    patched += [(np.linalg, "norm", "wrappers"), (np, "where", "where")]
    for module, name, key in patched:
        original = getattr(module, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_numpy_wrapper_calls_per_step_bounded(numpy_wrapper_calls):
    steps = 20
    at_step = {}
    run_trajectory(
        default_config(steps), 0, on_step=lambda done, *_: at_step.setdefault(done, dict(numpy_wrapper_calls))
    )
    per_step = {key: (at_step[steps][key] - at_step[1][key]) / (steps - 1) for key in numpy_wrapper_calls}
    assert per_step["wrappers"] <= MAX_NUMPY_WRAPPER_CALLS_PER_STEP, per_step
    assert 0 < per_step["where"] <= MAX_WHERE_CALLS_PER_STEP, per_step


ORACLE_CONFIGS = {
    "noisy-1d-32": "[noise]\nseed = 7\n",
    "noisy-2d-16": "[grid]\ndim = 2\nmodes = 16\n\n[noise]\nseed = 7\n",
    "silent-1d-32": "[noise]\nkind = off\nseed = 7\n",
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_ledger_rows_and_functionals_equal_field_by_field_values(name):
    steps = 5
    config = parse_config(ORACLE_CONFIGS[name] + f"\n[run]\nhorizon = {steps * 1e-5!r}\n")
    assert (config.params.noise.K == 0) == name.startswith("silent")
    ens = EnsembleConfig(grid=config.grid, params=config.params, initial=config.initial, paths=1, horizon=config.horizon)
    params = config.params
    chain, increments, rows = [ens.initial_state()], [], []

    def keep(done, state, gen, rep, row):
        chain.append(state)
        increments.append(rep.increment)
        rows.append(row)

    result = run_trajectory(ens, 0, initial_state=chain[0], on_step=keep)
    assert result.failure is None and len(increments) == steps
    assert result.residuals == [0.0] + [row.residual for row in rows]

    assert initial_ledger_row(chain[0], params) == EnergyLedger(*reference_energies(chain[0], params), *[0.0] * 10)
    for i, inc in enumerate(increments):
        expected = reference_ledger_row(chain[i], chain[i + 1], inc, params)
        assert rows[i] == expected, f"step {i + 1}"
        assert energy_ledger_step(chain[i], chain[i + 1], inc, params) == expected, f"step {i + 1}"
    for state in chain:
        assert _state_functionals(state, params) == reference_functionals(state, params), f"t = {state.t}"
    assert result.final_energy == sum(reference_energies(chain[-1], params)[:3])
    assert result.final_artificial == reference_energies(chain[-1], params)[3]


@pytest.mark.parametrize("name", ["noisy-1d-32", "noisy-2d-16", "cut-off-1d-32"])
def test_momentum_rhs_equals_per_flux_projection(name):
    config = parse_config(ORACLE_CONFIGS[name.replace("cut-off", "noisy")])
    params = config.params
    state = config.initial.build(config.grid, params, path_generator(7, 0, stream=1))
    if name.startswith("cut-off"):
        # half the velocity norm: the cut-off factor lies strictly between 0 and 1
        params = replace(params, R=0.5 * coeff_norm(config.grid, state.u))
    gen = path_generator(7, 0)
    for _ in range(3):
        expected = reference_momentum_rhs(state, params)
        assert np.array_equal(scheme.momentum_rhs(state, params), expected), f"t = {state.t}"
        state, rep = step(state, params, gen)
        assert (0.0 < rep.chi < 1.0) == name.startswith("cut-off")


def test_ledger_row_after_step_transforms_nothing(fft_calls):
    # the step builds the new state's whole record, which the ledger row reads
    config = default_config(1)
    params = config.params
    pre = config.initial_state()
    post, rep = step(pre, params, path_generator(config.base_seed, 0))
    before = fft_calls["n"]
    energy_ledger_step(pre, post, rep.increment, params)
    assert fft_calls["n"] - before == 0


def test_gram_iterations_bounded(monkeypatch):
    # bound the CG path on the default 1D system too, which is small enough for the direct solve
    monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 0)
    iterations = []
    run_trajectory(
        default_config(20), 0, on_step=lambda done, state, gen, rep, row: iterations.append(rep.gram_iterations)
    )
    assert len(iterations) == 20 and max(iterations) <= MAX_GRAM_ITERATIONS

    config = parse_config("[grid]\ndim = 2\nmodes = 16\n\n[noise]\nseed = 7\n")
    state = config.initial.build(config.grid, config.params, path_generator(7, 0, stream=1))
    _, rep = step(state, config.params, path_generator(7, 0))
    assert rep.gram_iterations <= MAX_GRAM_ITERATIONS


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_fields_equal_separate_transforms(dim):
    config = parse_config(f"[grid]\ndim = {dim}\nmodes = 16\n\n[noise]\nseed = 7\n")
    params = config.params
    state = config.initial.build(config.grid, params, path_generator(7, 0, stream=1))
    col = collocation(state, params)
    grid = config.grid
    grad_u = grad_tensor(grid, state.u)
    separate = {
        "u": state.u,
        "c": state.c,
        "grad_c": gradient(grid, state.c),
        "lap_c": laplacian(grid, state.c),
        "grad_rho": gradient(grid, state.rho),
        "grad_u": grad_u,
        "visc_stress": stress(grid, grad_u, params.visc),
        "mu_values": col.mu,
        "grad_mu": gradient(grid, col.mu),
        "lap_mu": laplacian(grid, col.mu),
    }
    for name, f in separate.items():
        assert np.array_equal(getattr(col, name), to_physical(grid, f)), name
    # the stacked forward transform of the products gives mu exactly as a transform of its own
    assert np.array_equal(col.mu, chemical_potential(grid, state.rho, state.c, params.fspec))


def test_warm_ledger_rows_equal_cold_recomputation():
    config = default_config(30)
    states, increments, rows = [], [], []

    def keep(done, state, gen, rep, row):
        states.append(state)
        increments.append(rep.increment)
        rows.append(row)

    initial = config.initial_state()
    result = run_trajectory(config, 0, initial_state=initial, on_step=keep)
    assert result.failure is None and len(rows) == 30 and len(result.residuals) == 31

    params = config.params
    chain = [fresh(initial)] + [fresh(s) for s in states]
    assert initial_ledger_row(initial, params) == initial_ledger_row(fresh(initial), params)
    for i, inc in enumerate(increments):
        cold = energy_ledger_step(fresh(chain[i]), fresh(chain[i + 1]), inc, params)
        assert rows[i] == cold, f"step {i + 1}"


def test_record_is_reused_per_params_and_read_only(rng):
    config = default_config(1)
    state = config.initial.build(config.grid, config.params, rng)
    col = collocation(state, config.params)
    assert collocation(state, config.params) is col
    other_params = replace(config.params)
    other = collocation(state, other_params)
    assert other is not col and collocation(state, other_params) is other
    params = config.params
    rho_bar = scheme.mean_density(config.grid, state.rho)
    step_factors = scheme._step_factors(config.grid, params.dt, params.eps, rho_bar)
    for values in (col.rho, col.u, col.c, col.grad_c, col.lap_c, col.grad_rho, col.grad_u, col.visc_stress,
                   col.u_r, col.mu_values, col.grad_mu, col.lap_mu, col.sigma, col.dsigma, col.rho_u_sq,
                   col.grad_c_sq, col.visc_stress_hat, col.momentum, col.rho_u_r, col.momentum_flux,
                   *step_factors):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[...] = 0.0


@pytest.mark.parametrize("size_rule", [10**9, 0], ids=["direct", "cg"])
def test_stepped_state_is_read_only(monkeypatch, size_rule):
    # the state a step returns is plain coefficient arrays, none of them
    # writeable, also once pickled back from a pool worker
    monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", size_rule)
    config = default_config(1)
    state, _ = step(config.initial_state(), config.params, path_generator(config.base_seed, 0))
    for copy in (state, pickle.loads(pickle.dumps(state))):
        for name in ("rho", "w", "u", "c"):
            coeffs = getattr(copy, name)
            assert type(coeffs) is np.ndarray and coeffs.dtype == np.complex128, name
            assert not coeffs.flags.writeable, name
            with pytest.raises(ValueError):
                coeffs[...] = 0.0


def test_record_is_not_pickled(rng):
    config = default_config(1)
    state = config.initial.build(config.grid, config.params, rng)
    collocation(state, config.params).energies
    copy = pickle.loads(pickle.dumps(state))
    assert "_collocation" not in vars(copy)
    assert collocation(copy, config.params).energies == collocation(state, config.params).energies


@pytest.mark.parametrize("family", [SineDiffusion(), ConstantDiffusion(0.7), LinearDiffusion()])
@pytest.mark.parametrize("dim", [1, 2])
def test_sigma_table_matches_each_mode(family, dim, rng):
    grid = TorusGrid(dim=dim, modes_per_dim=8)
    spec = NoiseSpec(K=6, alphas=0.5 ** np.arange(1, 7), family=family)
    cv = to_physical(grid, random_band_limited(grid, rng, amplitude=2.0))[0]
    for deriv, fn in ((False, family.value), (True, family.d1)):
        table = sigma_table(spec, cv, deriv=deriv)
        assert table.shape == (spec.K,) + grid.pshape
        for i, k in enumerate(spec.modes):
            assert np.array_equal(table[i], np.broadcast_to(fn(k, cv), grid.pshape))


@pytest.mark.parametrize("dim", [1, 2])
def test_mode_sums_equal_per_mode_loops(dim, rng):
    # the table-based sums must round exactly like accumulating mode by mode
    grid = TorusGrid(dim=dim, modes_per_dim=16)
    spec = geometric_noise(K=20, alpha0=1.0)
    fspec = FreeEnergySpec()
    c = random_band_limited(grid, rng, amplitude=2.0)
    cv = to_physical(grid, c)[0]
    rho = to_spectral(grid, 1.0 + 0.5 * np.cos(cv))
    rv = to_physical(grid, rho)[0]
    gv = to_physical(grid, gradient(grid, c))
    inc = sample_increment(1e-3, rng, spec)

    forced = np.zeros(grid.pshape)
    value_sq = np.zeros(grid.pshape)
    d1_sq = np.zeros(grid.pshape)
    for i, k in enumerate(spec.modes):
        forced += spec.alphas[i] * inc.dbeta[i] * spec.family.value(k, cv)
        value_sq += spec.alphas[i] ** 2 * spec.family.value(k, cv) ** 2
        d1_sq += spec.alphas[i] ** 2 * spec.family.d1(k, cv) ** 2

    sigma = sigma_table(spec, cv)
    assert np.array_equal(noise_sum(sigma, inc, spec), forced)
    assert ito_grad_correction(grid, c, spec) == 0.5 * integrate_values(grid, d1_sq * np.sum(gv**2, axis=0))
    fcc = FreeEnergyValues(rv, cv, fspec).f_cc
    assert ito_value_correction(grid, rho, c, spec, fspec) == 0.5 * integrate_values(grid, rv * fcc * value_sq)


def test_stochastic_transfer_equals_per_mode_loop():
    config = default_config(1)
    params = config.params
    pre = config.initial.build(config.grid, params, path_generator(3, 0, stream=1))
    post, rep = step(pre, params, path_generator(3, 0))
    row = energy_ledger_step(pre, post, rep.increment, params)

    noise, grid = params.noise, config.grid
    rv = to_physical(grid, pre.rho)[0]
    cv = to_physical(grid, pre.c)[0]
    mu = chemical_potential(grid, pre.rho, pre.c, params.fspec)
    base = rv * to_physical(grid, mu)[0]
    expected = 0.0
    for i, k in enumerate(noise.modes):
        expected += noise.alphas[i] * rep.increment.dbeta[i] * integrate_values(grid, base * noise.family.value(k, cv))
    assert row.stochastic_increment == expected
