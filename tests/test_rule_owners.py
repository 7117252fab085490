"""Each parameter rule has one owner: the type that holds the value.

The library types reject the values the configuration file rejects, with the
same messages; ``parse_config`` only prefixes each with its ``[section]``.
"""

import pytest

from nsch.config import parse_config
from nsch.ensemble import EnsembleConfig, sweep
from nsch.errors import ConfigError
from nsch.noise import geometric_noise
from nsch.scheme import ApproxParams, InitialData
from nsch.spectral import TorusGrid

GRID32 = TorusGrid(dim=1, modes_per_dim=32)


def violations(factory, **kwargs) -> list[str]:
    with pytest.raises(ConfigError) as err:
        factory(**kwargs)
    return err.value.violations


def params(**kw) -> ApproxParams:
    return ApproxParams(**{"eps": 1e-2, "R": 5.0, "m": 6, "n": 8, "dt": 1e-5, **kw})


def ensemble(params_kw=None, initial_kw=None, **kw) -> EnsembleConfig:
    return EnsembleConfig(
        grid=GRID32,
        params=params(**(params_kw or {})),
        initial=InitialData(mass=GRID32.volume, **(initial_kw or {})),
        **{"paths": 8, "horizon": 1e-4, **kw},
    )


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize(
    "factory, kwargs, expected",
    [
        (params, {"cfl": -1}, "cfl must be positive, got -1"),
        (InitialData, {"mass": 1.0, "u_amp": -1}, "u_amp must be nonnegative, got -1"),
        (InitialData, {"mass": 1.0, "c_band": -1}, "c_band must be a nonnegative integer, got -1"),
        (geometric_noise, {"alpha0": -1}, "alpha0 must be positive, got -1"),
        (ensemble, {"params_kw": {"m": 20}}, "m = 20 exceeds the grid truncation 16"),
        (ensemble, {"initial_kw": {"u_band": 17}}, "u_band = 17 exceeds the grid truncation 16"),
        (ensemble, {"snapshot_stride": -3}, "snapshot_stride must be a nonnegative integer, got -3"),
    ],
    ids=["cfl", "u_amp", "c_band", "alpha0", "m-over-kmax", "band-over-kmax", "snapshot_stride"],
)
def test_library_rejects_what_the_file_rejects(factory, kwargs, expected):
    assert violations(factory, **kwargs) == [expected]


def test_one_error_lists_every_violation_of_a_type():
    assert violations(params, eps=0, dt=-1, cfl=0) == [
        "eps must be positive, got 0",
        "dt must be positive, got -1",
        "cfl must be positive, got 0",
    ]


# one bad value per rule, with the exact message the configuration file gets
RULES = [
    ("[grid]\ndim = 3", ["[grid] dim must be 1 or 2, got 3"]),
    ("[grid]\nmodes = 7", ["[grid] modes_per_dim must be a positive even integer, got 7"]),
    ("[grid]\nmodes = x", ["[grid] modes: expected an integer, got 'x'"]),
    ("[scheme]\neps = -1", ["[scheme] eps must be positive, got -1.0"]),
    ("[scheme]\nalpha_exp = 4", ["[scheme] alpha_exp must exceed 4 (artificial-pressure exponent), got 4.0"]),
    ("[scheme]\nR = 0", ["[scheme] R must be positive, got 0.0"]),
    ("[scheme]\nm = 0", ["[scheme] m must be a positive integer, got 0"]),
    ("[scheme]\nn = 0", ["[scheme] n must be a positive integer, got 0"]),
    ("[scheme]\ndt = 0", ["[scheme] dt must be positive, got 0.0"]),
    ("[scheme]\ncfl = -1", ["[scheme] cfl must be positive, got -1.0"]),
    ("[scheme]\nm = 20", ["[scheme] m = 20 exceeds the grid truncation 16"]),
    ("[scheme]\nn = 17", ["[scheme] n = 17 exceeds the grid truncation 16"]),
    ("[free_energy]\na = 0", ["[free_energy] a must be positive, got 0.0"]),
    ("[free_energy]\ngamma = 3", ["[free_energy] gamma must exceed 3, got 3.0"]),
    ("[free_energy]\nrho_floor = 0", ["[free_energy] rho_floor must be positive, got 0.0"]),
    ("[free_energy]\nwell_cstar = -1", ["[free_energy] cstar must be positive, got -1.0"]),
    ("[free_energy]\nwell_kappa = 0", ["[free_energy] kappa must be positive, got 0.0"]),
    ("[free_energy]\nwell = quartic", ["[free_energy] well must be double_well, quadratic or zero, got 'quartic'"]),
    ("[free_energy]\nmixing = log", ["[free_energy] mixing must be tanh or zero, got 'log'"]),
    ("[free_energy]\nwell = quadratic\nwell_lambda = 30", ["[free_energy] well d2 exceeds bound 20.0 (max 30)"]),
    ("[viscosity]\nshear = 0", ["[viscosity] nu_shear must be positive, got 0.0"]),
    ("[viscosity]\nbulk = -1", ["[viscosity] nu_bulk must be nonnegative, got -1.0"]),
    ("[noise]\nkind = loud", ["[noise] kind must be geometric or off, got 'loud'"]),
    ("[noise]\nsigma = cosine", ["[noise] sigma must be sine or constant, got 'cosine'"]),
    ("[noise]\nmodes = 0", ["[noise] K must be a positive integer, got 0"]),
    ("[noise]\nalpha0 = -1", ["[noise] alpha0 must be positive, got -1.0"]),
    ("[noise]\nmodes = 10", ["[noise] noise truncation too aggressive: tail/total = 9.537e-07 >= 1e-12"]),
    (
        "[noise]\nmodes = 20\nsigma = constant\nsigma_value = 2",
        [f"[noise] sigma_{k} exceeds the W^(2,inf) bound 1 (sup 2)" for k in range(1, 21)],
    ),
    ("[initial]\nmass = 0", ["[initial] mass must be positive, got 0.0"]),
    ("[initial]\nrho_amp = 1", ["[initial] rho_amp must lie in [0, 1), got 1.0"]),
    ("[initial]\nu_amp = -1", ["[initial] u_amp must be nonnegative, got -1.0"]),
    ("[initial]\nc_amp = -1", ["[initial] c_amp must be nonnegative, got -1.0"]),
    ("[initial]\nrho_band = -1", ["[initial] rho_band must be a nonnegative integer, got -1"]),
    ("[initial]\nc_band = 40", ["[initial] c_band = 40 exceeds the grid truncation 16"]),
    ("[run]\nhorizon = 0", ["[run] horizon must be positive, got 0.0"]),
    ("[run]\nhorizon = 2.5e-5", ["[run] horizon 2.5e-05 is not an integral number of steps at dt = 1e-05"]),
    ("[run]\nhorizon = 1e-20", ["[run] horizon 1e-20 is not an integral number of steps at dt = 1e-05"]),
    ("[run]\npaths = 0", ["[run] paths must be a positive integer, got 0"]),
    ("[run]\nsnapshot_stride = -3", ["[run] snapshot_stride must be a nonnegative integer, got -3"]),
    ("[run]\nbetas = 0,1", ["[run] betas must be positive integers, got (0, 1)"]),
    ("[run]\nbetas = a", ["[run] betas must be a comma list of integers, got 'a'"]),
    ("[grid]\nsize = 4", ["[grid] size: unknown key"]),
    ("[turbulence]\nmodel = none", ["[turbulence]: unknown section"]),
]


@pytest.mark.parametrize("text, expected", RULES, ids=[text.replace("\n", " ") for text, _ in RULES])
def test_parse_config_message_per_rule(text, expected):
    with pytest.raises(ConfigError) as err:
        parse_config(text + "\n")
    assert err.value.violations == expected


def test_a_failed_part_leaves_the_rules_around_it_checked():
    # the free energy fails, ApproxParams is built with its default and still lists its own
    # violation; the grid rules run on the parts that were built
    text = "[free_energy]\ngamma = 2\n\n[scheme]\ncfl = 0\n\n[initial]\nc_band = 40\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        "[free_energy] gamma must exceed 3, got 2.0",
        "[scheme] cfl must be positive, got 0.0",
    ]
    text = "[free_energy]\ngamma = 2\n\n[initial]\nc_band = 40\n\n[run]\npaths = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        "[free_energy] gamma must exceed 3, got 2.0",
        "[initial] c_band = 40 exceeds the grid truncation 16",
        "[run] paths must be a positive integer, got 0",
    ]


def test_sweep_lists_the_violations_of_every_cell():
    config = ensemble(horizon=2e-5)
    with pytest.raises(ConfigError) as err:
        sweep(config, "m", [20, 3, 30])
    assert err.value.violations == [
        "sweep value m = 20 exceeds the grid truncation 16",
        "sweep value m = 30 exceeds the grid truncation 16",
    ]
