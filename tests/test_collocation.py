import pickle
from dataclasses import replace

import numpy as np
import pytest
from ledger_reference import reference_energies, reference_functionals, reference_ledger_row, reference_momentum_rhs

from nsch import scheme
from nsch.config import parse_config
from nsch.constitutive import DoubleWell, FreeEnergySpec, FreeEnergyValues, TanhMixing, chemical_potential, stress
from nsch.diagnostics import EnergyLedger, energy_ledger_step, initial_ledger_row
from nsch.ensemble import EnsembleConfig, _state_functionals, run_trajectory
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
    SpectralField,
    TorusGrid,
    grad_tensor,
    gradient,
    integrate_values,
    laplacian,
    norm_l2,
    random_band_limited,
    to_physical,
    to_spectral,
)

# the default physics: 1D, 32 modes, geometric noise with K = 20
DEFAULT_NOISY = "[noise]\nseed = 7\n\n[run]\nhorizon = {horizon!r}\n"

# transforms per step (step + ledger row + sup functionals) on DEFAULT_NOISY;
# the step, the ledger and the functionals share one collocation record per
# state, which transforms its fields in stacks, and the velocity recovery
# transforms nothing.  Lower it when a change removes transforms; never raise it.
MAX_FFT_CALLS_PER_STEP = 7

# SpectralField constructions and free-energy profile evaluations (TanhMixing
# and DoubleWell value, d1, d2) per step, over the same step + ledger row + sup
# functionals on DEFAULT_NOISY.  The step builds its right-hand sides on
# coefficient arrays and wraps a field only where one is returned or
# transformed; each state evaluates log rho and each profile once, for the
# step and the ledger together.  For each count: lower it, never raise it.
MAX_FIELDS_PER_STEP = 13
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
    """The same state as a new object, so its collocation record starts empty."""
    return SchemeState(t=state.t, rho=state.rho, w=state.w, u=state.u, c=state.c)


def test_fft_calls_per_step_bounded(fft_calls):
    steps = 20
    at_step = {}
    run_trajectory(default_config(steps), 0, on_step=lambda done, *_: at_step.setdefault(done, fft_calls["n"]))
    per_step = (at_step[steps] - at_step[1]) / (steps - 1)
    assert 0 < per_step <= MAX_FFT_CALLS_PER_STEP


def test_fields_and_profile_calls_per_step_bounded(monkeypatch):
    calls = {"fields": 0, "profiles": 0}
    construct = SpectralField.__post_init__

    def counted_construct(self):
        calls["fields"] += 1
        construct(self)

    monkeypatch.setattr(SpectralField, "__post_init__", counted_construct)
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
    assert 0 < per_step["fields"] <= MAX_FIELDS_PER_STEP
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
    chain, increments = [ens.initial_state()], []

    def keep(done, state, gen, rep):
        chain.append(state)
        increments.append(rep.increment)

    result = run_trajectory(ens, 0, initial_state=chain[0], on_step=keep)
    assert result.failure is None and len(increments) == steps

    assert result.rows[0] == EnergyLedger(*reference_energies(chain[0], params), *[0.0] * 10)
    for i, inc in enumerate(increments):
        expected = reference_ledger_row(chain[i], chain[i + 1], inc, params)
        assert result.rows[i + 1] == expected, f"step {i + 1}"
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
        params = replace(params, R=0.5 * norm_l2(state.u))
    gen = path_generator(7, 0)
    for _ in range(3):
        expected = reference_momentum_rhs(state, params)
        assert np.array_equal(scheme.momentum_rhs(state, params).coeffs, expected.coeffs), f"t = {state.t}"
        state, rep = step(state, params, gen)
        assert (0.0 < rep.chi < 1.0) == name.startswith("cut-off")


def test_ledger_row_after_step_transforms_at_most_once(fft_calls):
    config = default_config(1)
    params = config.params
    pre = config.initial_state()
    post, rep = step(pre, params, path_generator(config.base_seed, 0))
    before = fft_calls["n"]
    energy_ledger_step(pre, post, rep.increment, params)
    assert fft_calls["n"] - before <= 1


def test_gram_iterations_bounded(monkeypatch):
    # bound the CG path on the default 1D system too, which is small enough for the direct solve
    monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 0)
    iterations = []
    run_trajectory(default_config(20), 0, on_step=lambda done, state, gen, rep: iterations.append(rep.gram_iterations))
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
    grad_u = grad_tensor(state.u)
    separate = {
        "u": state.u,
        "c": state.c,
        "grad_c": gradient(state.c),
        "lap_c": laplacian(state.c),
        "grad_rho": gradient(state.rho),
        "grad_u": grad_u,
        "visc_stress": stress(grad_u, params.visc),
        "mu_values": col.mu,
        "grad_mu": gradient(col.mu),
        "lap_mu": laplacian(col.mu),
    }
    for name, f in separate.items():
        assert np.array_equal(getattr(col, name), to_physical(f)), name
    # the stacked forward transform of the products gives mu exactly as a transform of its own
    assert np.array_equal(col.mu.coeffs, chemical_potential(state.rho, state.c, params.fspec).coeffs)


def test_warm_ledger_rows_equal_cold_recomputation():
    config = default_config(30)
    states, increments = [], []

    def keep(done, state, gen, rep):
        states.append(state)
        increments.append(rep.increment)

    initial = config.initial_state()
    result = run_trajectory(config, 0, initial_state=initial, on_step=keep)
    assert result.failure is None and len(result.rows) == 31

    params = config.params
    chain = [fresh(initial)] + [fresh(s) for s in states]
    assert result.rows[0] == initial_ledger_row(fresh(initial), params)
    for i, inc in enumerate(increments):
        cold = energy_ledger_step(fresh(chain[i]), fresh(chain[i + 1]), inc, params)
        assert result.rows[i + 1] == cold, f"step {i + 1}"


def test_record_is_reused_per_params_and_read_only(rng):
    config = default_config(1)
    state = config.initial.build(config.grid, config.params, rng)
    col = collocation(state, config.params)
    assert collocation(state, config.params) is col
    other_params = replace(config.params)
    other = collocation(state, other_params)
    assert other is not col and collocation(state, other_params) is other
    params = config.params
    step_factors = scheme._step_factors(config.grid, params.dt, params.eps, scheme.mean_density(state.rho))
    for values in (col.rho, col.u, col.c, col.grad_c, col.lap_c, col.grad_rho, col.grad_u, col.visc_stress,
                   col.u_r, col.mu_values, col.grad_mu, col.lap_mu, col.sigma, col.dsigma, col.rho_u_sq,
                   col.grad_c_sq, col.visc_stress_coeffs, col.momentum, col.rho_u_r, col.momentum_flux,
                   *step_factors):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[...] = 0.0


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
    cv = to_physical(random_band_limited(grid, rng, amplitude=2.0))[0]
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
    cv = to_physical(c)[0]
    rho = to_spectral(grid, 1.0 + 0.5 * np.cos(cv))
    rv = to_physical(rho)[0]
    gv = to_physical(gradient(c))
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
    assert ito_grad_correction(c, spec) == 0.5 * integrate_values(grid, d1_sq * np.sum(gv**2, axis=0))
    fcc = FreeEnergyValues(rv, cv, fspec).f_cc
    assert ito_value_correction(rho, c, spec, fspec) == 0.5 * integrate_values(grid, rv * fcc * value_sq)


def test_stochastic_transfer_equals_per_mode_loop():
    config = default_config(1)
    params = config.params
    pre = config.initial.build(config.grid, params, path_generator(3, 0, stream=1))
    post, rep = step(pre, params, path_generator(3, 0))
    row = energy_ledger_step(pre, post, rep.increment, params)

    noise, grid = params.noise, config.grid
    rv = to_physical(pre.rho)[0]
    cv = to_physical(pre.c)[0]
    base = rv * to_physical(chemical_potential(pre.rho, pre.c, params.fspec))[0]
    expected = 0.0
    for i, k in enumerate(noise.modes):
        expected += noise.alphas[i] * rep.increment.dbeta[i] * integrate_values(grid, base * noise.family.value(k, cv))
    assert row.stochastic_increment == expected
