import dataclasses
import functools
import gc
import pickle
import sys
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from increments import draw
from ledger_reference import (
    forcing_values,
    reference_energies,
    reference_functionals,
    reference_ledger_row,
    reference_momentum_rhs,
    reference_velocity,
)

from nsch import checkpoint, scheme, spectral
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
    silent_noise,
)
from nsch.scheme import SchemeState, collocation, step
from nsch.spectral import (
    TorusGrid,
    coeff_norm,
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

# rows of the forward transforms (numpy.fft.rfftn) per step, over the same
# step + ledger row + sup functionals on DEFAULT_NOISY: the new state's
# record sends mu, rho u and rho [u]_R in one stack and the two explicit
# tendencies, the drift of c and the momentum stress, each summed on the grid,
# in another; the noise sum takes one row.  Lower it, never raise it.
MAX_FORWARD_ROWS_PER_STEP = 6

# row sums per step (calls to integrate_rows and integrate_values) over the
# same step + ledger row + sup functionals on DEFAULT_NOISY: one for the new
# state's record (energies, sup functionals and transfer rates) and one for
# the ledger row's stochastic transfer, which a silent step does without.
# Lower it, never raise it.
MAX_ROW_SUMS_PER_STEP = 2

# evaluations of the noise sum sum_k alpha_k dbeta_k sigma_k(c) per step, over
# the same step + ledger row + sup functionals on DEFAULT_NOISY: the step
# forms it once and hands its grid values to the ledger row.  Lower it, never
# raise it.
MAX_NOISE_SUMS_PER_STEP = 1

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


# DEFAULT_NOISY with the velocity cut-off engaged, chi < 1, on every step
CUT_OFF = "\n[scheme]\nR = 0.01\n"


def default_config(steps: int, extra: str = "") -> EnsembleConfig:
    config = parse_config(DEFAULT_NOISY.format(horizon=steps * 1e-5) + extra)
    assert config.grid == TorusGrid(dim=1, modes_per_dim=32) and config.params.noise.K == 20
    return EnsembleConfig(
        grid=config.grid, params=config.params, initial=config.initial, paths=1, horizon=config.horizon
    )


def fresh(state: SchemeState) -> SchemeState:
    """The same state as a new object, without a collocation record."""
    return SchemeState(t=state.t, grid=state.grid, rho=state.rho, w=state.w, c=state.c)


def calls_per_step(config: EnsembleConfig, calls: dict) -> dict:
    """Each running count of ``calls`` per step of a trajectory of ``config``, from the end of step 1 to the last."""
    at_step = {}
    run_trajectory(config, 0, on_step=lambda done, *_: at_step.setdefault(done, dict(calls)))
    steps = config.steps
    return {key: (at_step[steps][key] - at_step[1][key]) / (steps - 1) for key in calls}


def counted_at_every_binding_site(monkeypatch, names) -> dict:
    """Running counts of the calls to each function in ``names``, at every binding site in every nsch module."""
    calls = dict.fromkeys(names, 0)
    for module in [m for n, m in sys.modules.items() if n.startswith("nsch.")]:
        for name in names:
            if hasattr(module, name):

                def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


def test_fft_calls_per_step_bounded(fft_calls):
    # the record forms [u]_R = chi u on the grid, so an engaged cut-off costs no transform
    for extra in ("", CUT_OFF):
        config = default_config(20, extra)
        chis = []
        run_trajectory(config, 0, on_step=lambda done, state, *_: chis.append(collocation(state, config.params).chi))
        assert (max(chis) < 1.0) == (extra == CUT_OFF), chis
        per_step = calls_per_step(config, fft_calls)
        assert 0 < per_step["n"] <= MAX_FFT_CALLS_PER_STEP, (extra, per_step)
        assert per_step["shapeless"] <= MAX_SHAPELESS_FFT_CALLS_PER_STEP, (extra, per_step)


def test_forward_rows_per_step_bounded(fft_calls):
    per_step = calls_per_step(default_config(20), fft_calls)
    assert 0 < per_step["forward_rows"] <= MAX_FORWARD_ROWS_PER_STEP, per_step


def test_row_sums_per_step_bounded(monkeypatch):
    calls = counted_at_every_binding_site(monkeypatch, ("integrate_rows", "integrate_values"))
    noisy = default_config(20)
    silent = replace(noisy, params=replace(noisy.params, noise=silent_noise(7)))
    for config, bound in ((noisy, MAX_ROW_SUMS_PER_STEP), (silent, MAX_ROW_SUMS_PER_STEP - 1)):
        per_step = calls_per_step(config, calls)
        row_sums = per_step["integrate_rows"] + per_step["integrate_values"]
        assert 0 < row_sums <= bound, (config.params.noise.K, per_step)


def test_noise_sums_per_step_bounded(monkeypatch):
    calls = counted_at_every_binding_site(monkeypatch, ("noise_sum",))
    per_step = calls_per_step(default_config(20), calls)
    assert 0 < per_step["noise_sum"] <= MAX_NOISE_SUMS_PER_STEP, per_step


# the named blocks of each transform stack of a collocation record, in stack order
RECORD_STACKS = {
    "values": ("rho", "c"),
    "linear": ("u", "grad_c", "lap_c", "grad_rho", "grad_u", "visc_stress"),
    "products": ("mu", "momentum", "rho_u_r"),
    "resampled": ("mu_values", "grad_mu", "lap_mu", "momentum_values"),
    "tendencies": ("drift", "explicit_stress"),
}
# the record's other fields
RECORD_FIELDS = ("grid", "params", "min_rho", "u_hat", "gram_iterations", "visc_stress_hat", "chi", "u_r",
                 "free_energy_values", "sigma", "rho_u_sq", "grad_c_sq", "energies", "artificial", "sup_functionals",
                 "transfer_rates")
# the values a FreeEnergyValues computes on construction: log rho, the profiles H, H', fc, fc', f, p and the partials
FREE_ENERGY_FIELDS = ("log_rho", "mixing", "mixing_d1", "well", "well_d1",
                      "free_energy", "pressure", "f_c", "rho_f_rho_rho", "rho_f_rho_c")


def test_record_fields_are_plain_attributes():
    # no property machinery between a record and its values: collocation()
    # returns a record built whole, with every field stored on it and the
    # blocks of each stack read-only views of one array
    for cls in (scheme.Collocation, FreeEnergyValues):
        for name, attr in vars(cls).items():
            assert not isinstance(attr, (property, functools.cached_property)), f"{cls.__name__}.{name}"

    config = default_config(1)
    record = vars(collocation(config.initial_state(), config.params))
    # exactly these fields: no reference to the state, no table of sigma_k'(c)
    assert set(record) == set(RECORD_FIELDS).union(*RECORD_STACKS.values())
    assert len(record["transfer_rates"]) == 8
    for stack, names in RECORD_STACKS.items():
        base = record[names[0]].base
        assert base is not None, stack
        for name in names:
            block = record[name]
            assert block.base is base, f"{stack}.{name}"
            assert not block.flags.writeable, f"{stack}.{name}"


def test_free_energy_values_are_plain_attributes(monkeypatch):
    # FreeEnergyValues and DoubleWell compute their values on construction:
    # apart from the instance dict, every attribute of the class that binds
    # on read is a plain function
    for cls in (FreeEnergyValues, DoubleWell):
        for name, attr in vars(cls).items():
            if name not in ("__dict__", "__weakref__") and hasattr(attr, "__get__"):
                assert isinstance(attr, types.FunctionType), f"{cls.__name__}.{name}"
    assert not hasattr(spectral, "lazy")

    config = default_config(1)
    state = config.initial_state()
    rv, cv = to_physical(config.grid, state.rho)[0], to_physical(config.grid, state.c)[0]
    values = vars(FreeEnergyValues(rv, cv, config.params.fspec))
    for name in FREE_ENERGY_FIELDS:
        assert name in values, name

    # only the Ito rate of a noisy record evaluates H'' and fc'', once each; a ledger row evaluates nothing
    calls = {"d2": 0}
    for profile in (TanhMixing, DoubleWell):

        def counted(self, c, _method=profile.d2):
            calls["d2"] += 1
            return _method(self, c)

        monkeypatch.setattr(profile, "d2", counted)
    quiet = parse_config("[noise]\nkind = off\n\n[run]\nhorizon = 1e-05\n")
    for params, d2_calls in ((quiet.params, 0), (config.params, 2)):
        pre = config.initial.build(config.grid, params, path_generator(params.noise.seed, 0, stream=1))
        calls["d2"] = 0
        collocation(pre, params)
        assert calls["d2"] == d2_calls, params.noise.K  # the pre state's record
        post, noise_values = step(pre, params, draw(params, path_generator(params.noise.seed, 0)))
        assert calls["d2"] == 2 * d2_calls, params.noise.K  # and the post state's
        energy_ledger_step(pre, post, noise_values, params)
        assert calls["d2"] == 2 * d2_calls, params.noise.K


def test_stepped_past_state_is_freed_by_reference_counts():
    # a record keeps no reference to its state, so a state and its record
    # form no cycle and a trajectory frees each state without the collector
    config = default_config(2)
    params = config.params
    gen = path_generator(config.params.noise.seed, 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pre, _ = step(config.initial_state(), params, draw(params, gen))
        post, noise_values = step(pre, params, draw(params, gen))
        energy_ledger_step(pre, post, noise_values, params)
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
        step(state, params, draw(params, path_generator(config.params.noise.seed, 0)))
    assert (stepped.value.t, str(stepped.value)) == (built.value.t, str(built.value))


def recover_velocity_callers(monkeypatch) -> list:
    """The code object of the caller of every recover_velocity call, at every binding site in every nsch module."""
    callers = []
    for module in [m for n, m in sys.modules.items() if n.startswith("nsch.")]:
        if hasattr(module, "recover_velocity"):

            def traced(*args, _original=module.recover_velocity, **kwargs):
                callers.append(sys._getframe(1).f_code)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "recover_velocity", traced)
    return callers


def test_state_holds_the_checkpoint_blocks_and_no_velocity():
    assert [f.name for f in dataclasses.fields(SchemeState)] == ["t", "grid", "rho", "w", "c"]


def test_step_recovers_the_velocity_once_in_the_new_record(monkeypatch):
    config = default_config(1)
    params = config.params
    state = config.initial_state()
    collocation(state, params)
    callers = recover_velocity_callers(monkeypatch)
    new, _ = step(state, params, draw(params, path_generator(params.noise.seed, 0)))
    assert callers == [scheme.Collocation.__init__.__code__]
    # the step's facts are the new record's: min rho from its density guard, the iterations of its one solve
    record = collocation(new, params)
    assert record.min_rho == record.free_energy_values.min_rho == float(record.rho.min())
    assert record.gram_iterations == scheme.recover_velocity(config.grid, new.rho, new.w, params.m, record.rho[0])[1]


def test_load_checkpoint_transforms_and_solves_nothing(monkeypatch, fft_calls, tmp_path):
    config = default_config(1)
    params = config.params
    gen = path_generator(params.noise.seed, 0)
    state, _ = step(config.initial_state(), params, draw(params, gen))
    path = tmp_path / "chk.nsch"
    checkpoint.save_checkpoint(path, state, gen, params.m, params.n, params.noise.K)
    callers = recover_velocity_callers(monkeypatch)
    before = fft_calls["n"]
    loaded, _, _ = checkpoint.load_checkpoint(path)
    assert fft_calls["n"] == before and callers == []
    assert "_collocation" not in vars(loaded)
    # the loaded state's record recovers the velocity the stepped state's record holds
    assert np.array_equal(collocation(loaded, params).u_hat, collocation(state, params).u_hat)
    assert callers == [scheme.Collocation.__init__.__code__]


def test_profile_calls_per_step_bounded(monkeypatch):
    calls = {"profiles": 0}
    for profile in (TanhMixing, DoubleWell):
        for name in ("value", "d1", "d2"):

            def counted(self, c, _method=getattr(profile, name)):
                calls["profiles"] += 1
                return _method(self, c)

            monkeypatch.setattr(profile, name, counted)
    per_step = calls_per_step(default_config(20), calls)
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
    per_step = calls_per_step(default_config(20), numpy_wrapper_calls)
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

    def keep(done, state, gen, inc, row):
        chain.append(state)
        increments.append(inc)
        rows.append(row)

    result = run_trajectory(ens, 0, initial_state=chain[0], on_step=keep)
    assert result.failure is None and len(increments) == steps
    assert result.residuals == [0.0] + [row.residual for row in rows]

    assert initial_ledger_row(chain[0], params) == EnergyLedger(*reference_energies(chain[0], params), *[0.0] * 10)
    for i, inc in enumerate(increments):
        expected = reference_ledger_row(chain[i], chain[i + 1], inc, params)
        assert rows[i] == expected, f"step {i + 1}"
        again, noise_values = step(chain[i], params, inc)  # the step is a function of (state, params, inc)
        assert all(np.array_equal(getattr(again, f), getattr(chain[i + 1], f)) for f in ("rho", "w", "c"))
        assert energy_ledger_step(chain[i], chain[i + 1], noise_values, params) == expected, f"step {i + 1}"
    for state in chain:
        assert _state_functionals(state, params) == reference_functionals(state, params), f"t = {state.t}"
    assert result.final_energy == sum(reference_energies(chain[-1], params)[:3])
    assert result.final_artificial == reference_energies(chain[-1], params)[3]


# relative bound, against max |reference|, on the momentum right-hand side: the
# errors are 1.3e-15 to 7.0e-15 on the three configurations below
MOMENTUM_RHS_RTOL = 1e-13


@pytest.mark.parametrize("name", ["noisy-1d-32", "noisy-2d-16", "cut-off-1d-32"])
def test_momentum_rhs_equals_per_flux_projection(name):
    config = parse_config(ORACLE_CONFIGS[name.replace("cut-off", "noisy")])
    params = config.params
    state = config.initial.build(config.grid, params, path_generator(7, 0, stream=1))
    if name.startswith("cut-off"):
        # half the velocity norm: the cut-off factor lies strictly between 0 and 1
        params = replace(params, R=0.5 * coeff_norm(config.grid, collocation(state, params).u_hat))
    gen = path_generator(7, 0)
    for _ in range(3):
        # the scheme sums the stresses on the grid before their one transform, the
        # reference transforms each flux on its own: they agree to rounding
        expected = reference_momentum_rhs(state, params)
        error = np.max(np.abs(scheme.momentum_rhs(state, params) - expected))
        assert error <= MOMENTUM_RHS_RTOL * np.max(np.abs(expected)), f"t = {state.t}"
        assert (0.0 < collocation(state, params).chi < 1.0) == name.startswith("cut-off")
        state, _ = step(state, params, draw(params, gen))


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_record_velocity_is_the_recovery_of_its_state(name):
    # bit for bit, on the direct (1D) and the CG (2D) side, for a built and a stepped state
    config = parse_config(ORACLE_CONFIGS[name])
    params = config.params
    state = config.initial.build(config.grid, params, path_generator(7, 0, stream=1))
    stepped, _ = step(state, params, draw(params, path_generator(7, 0)))
    for s in (state, stepped):
        assert np.array_equal(collocation(s, params).u_hat, reference_velocity(s, params)), f"t = {s.t}"


def test_ledger_row_after_step_transforms_nothing(fft_calls):
    # the step builds the new state's whole record, which the ledger row reads
    config = default_config(1)
    params = config.params
    pre = config.initial_state()
    post, noise_values = step(pre, params, draw(params, path_generator(config.params.noise.seed, 0)))
    before = fft_calls["n"]
    energy_ledger_step(pre, post, noise_values, params)
    assert fft_calls["n"] - before == 0


@pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "silent"])
def test_ledger_row_integrates_only_the_stochastic_transfer(monkeypatch, noisy):
    # every other entry of the row is arithmetic on the two records
    config = default_config(1)
    params = config.params if noisy else replace(config.params, noise=silent_noise(7))
    pre = config.initial_state()
    post, noise_values = step(pre, params, draw(params, path_generator(7, 0)))
    integrals = counted_at_every_binding_site(monkeypatch, ("integrate_rows", "integrate_values"))
    energy_ledger_step(pre, post, noise_values, params)
    assert integrals == {"integrate_rows": 0, "integrate_values": int(noisy)}


def test_gram_iterations_bounded(monkeypatch):
    # bound the CG path on the default 1D system too, which is small enough for the direct solve
    monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", 0)
    config, iterations = default_config(20), []

    def keep(done, state, gen, inc, row):
        iterations.append(collocation(state, config.params).gram_iterations)

    run_trajectory(config, 0, on_step=keep)
    assert len(iterations) == 20 and max(iterations) <= MAX_GRAM_ITERATIONS

    config = parse_config("[grid]\ndim = 2\nmodes = 16\n\n[noise]\nseed = 7\n")
    state = config.initial.build(config.grid, config.params, path_generator(7, 0, stream=1))
    new, _ = step(state, config.params, draw(config.params, path_generator(7, 0)))
    assert collocation(new, config.params).gram_iterations <= MAX_GRAM_ITERATIONS


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_fields_equal_separate_transforms(dim):
    config = parse_config(f"[grid]\ndim = {dim}\nmodes = 16\n\n[noise]\nseed = 7\n")
    params = config.params
    state = config.initial.build(config.grid, params, path_generator(7, 0, stream=1))
    col = collocation(state, params)
    grid = config.grid
    grad_u = gradient(grid, col.u_hat)
    separate = {
        "u": col.u_hat,
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

    def keep(done, state, gen, inc, row):
        states.append(state)
        increments.append(inc)
        rows.append(row)

    initial = config.initial_state()
    result = run_trajectory(config, 0, initial_state=initial, on_step=keep)
    assert result.failure is None and len(rows) == 30 and len(result.residuals) == 31

    params = config.params
    chain = [fresh(initial)] + [fresh(s) for s in states]
    assert initial_ledger_row(initial, params) == initial_ledger_row(fresh(initial), params)
    for i, inc in enumerate(increments):
        pre = fresh(chain[i])
        # the noise values too come from the cold record of the pre state
        noise_values = noise_sum(collocation(pre, params).sigma, inc, params.noise)
        cold = energy_ledger_step(pre, fresh(chain[i + 1]), noise_values, params)
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
    _, noise_values = step(state, params, draw(params, rng))
    for values in (col.rho, col.u_hat, col.u, col.c, col.grad_c, col.lap_c, col.grad_rho, col.grad_u, col.visc_stress,
                   col.u_r, col.mu_values, col.grad_mu, col.lap_mu, col.sigma, col.rho_u_sq,
                   col.grad_c_sq, col.visc_stress_hat, col.momentum, col.rho_u_r, col.drift, col.explicit_stress,
                   *step_factors, noise_values):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[...] = 0.0
    # the ensemble reads its bound-ratio bases from this mapping, so no reader can change them
    with pytest.raises(TypeError):
        col.sup_functionals["v15"] = 0.0


@pytest.mark.parametrize("size_rule", [10**9, 0], ids=["direct", "cg"])
def test_stepped_state_is_read_only(monkeypatch, size_rule):
    # the state a step returns is plain coefficient arrays, none of them
    # writeable, also once pickled back from a pool worker
    monkeypatch.setattr(scheme, "DIRECT_GRAM_MAX_SIZE", size_rule)
    config = default_config(1)
    params = config.params
    state, _ = step(config.initial_state(), params, draw(params, path_generator(params.noise.seed, 0)))
    for copy in (state, pickle.loads(pickle.dumps(state))):
        for name in ("rho", "w", "c"):
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
    fcc = FreeEnergyValues(rv, cv, fspec).f_cc()
    assert ito_value_correction(grid, rho, c, spec, fspec) == 0.5 * integrate_values(grid, rv * fcc * value_sq)


@pytest.mark.parametrize("name", ["noisy-1d-32", "noisy-2d-16"])
def test_stochastic_transfer_integrates_the_noise_sum(name):
    # int rho mu sum_k alpha_k dbeta_k sigma_k(c): exactly the integral of the
    # noise sum accumulated mode by mode, and within rounding the sum of the
    # K per-mode integrals alpha_k dbeta_k int rho mu sigma_k(c)
    config = parse_config(ORACLE_CONFIGS[name])
    params, grid, noise = config.params, config.grid, config.params.noise
    pre = config.initial.build(grid, params, path_generator(3, 0, stream=1))
    inc = draw(params, path_generator(3, 0))
    post, noise_values = step(pre, params, inc)
    row = energy_ledger_step(pre, post, noise_values, params)

    rv = to_physical(grid, pre.rho)[0]
    cv = to_physical(grid, pre.c)[0]
    base = rv * to_physical(grid, chemical_potential(grid, pre.rho, pre.c, params.fspec))[0]
    assert row.stochastic_increment == integrate_values(grid, base * forcing_values(cv, inc, noise))
    per_mode = sum(
        noise.alphas[i] * inc.dbeta[i] * integrate_values(grid, base * noise.family.value(k, cv))
        for i, k in enumerate(noise.modes)
    )
    assert row.stochastic_increment != 0.0
    assert abs(row.stochastic_increment - per_mode) <= 1e-13 * abs(per_mode)


@pytest.mark.parametrize("name", ["noisy-1d-32", "noisy-2d-16"])
def test_sup_functionals_equal_coefficient_norms(name):
    # the record integrates c^2, |grad c|^2 and (Lap c)^2 on the grid, which
    # resolves their products: Parseval gives the same values within rounding
    config = parse_config(ORACLE_CONFIGS[name])
    grid, params = config.grid, config.params
    state = config.initial_state()
    for _ in range(2):
        sup = collocation(state, params).sup_functionals
        for key, coeffs in (("c_l2_sq", state.c), ("grad_c_l2_sq", gradient(grid, state.c)),
                            ("lap_c_l2_sq", laplacian(grid, state.c))):
            norm_sq = coeff_norm(grid, coeffs) ** 2
            assert norm_sq > 0.0
            assert abs(sup[key] - norm_sq) <= 1e-13 * norm_sq, (key, sup[key], norm_sq)
        state, _ = step(state, params, draw(params, path_generator(3, 0)))
