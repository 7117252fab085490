"""Plain-text run configuration: sections, ``key = value`` lines, # comments.

Grammar (all keys optional; defaults shown by ``print-config``):

    [grid]        dim, modes
    [scheme]      eps, alpha_exp, R, m, n, dt, cfl
    [free_energy] a, gamma, well, well_cstar, well_kappa, well_lambda,
                  mixing, mixing_h0, rho_floor
    [viscosity]   shear, bulk
    [noise]       kind (geometric|off), modes, alpha0, sigma (sine|constant),
                  sigma_value, seed
    [initial]     mass, rho_amp, rho_band, u_amp, u_band, c_amp, c_band, c_mean
    [run]         horizon, snapshot_stride, paths, betas
    [output]      dir

Parsing is all this module checks: numbers, unknown sections and keys, the
string choices and the ``betas`` list.  Every rule on a value lives on the
type that holds it (``TorusGrid``, ``ApproxParams``, ``FreeEnergySpec``,
``DoubleWell``, ``ViscositySpec``, ``geometric_noise``, ``InitialData``), and
the rules that tie them to the grid and the time step on ``EnsembleConfig``;
each raises one ``ConfigError`` listing all of its violations, and the parser
prefixes each with its ``[section]``.  Violations are collected, not
short-circuited: a part that fails is replaced by its default, so the rules of
the parts around it still run.  Floats are echoed with 17 significant digits
so a printed configuration parses back to the identical run.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .constitutive import DoubleWell, FreeEnergySpec, QuadraticWell, TanhMixing, ViscositySpec, ZeroFunction
from .ensemble import EnsembleConfig
from .errors import ConfigError
from .noise import ConstantDiffusion, SineDiffusion, geometric_noise, silent_noise
from .scheme import ApproxParams, InitialData
from .spectral import TorusGrid

__all__ = ["RunConfig", "parse_config", "format_config", "default_config"]

_DEFAULTS: dict[str, dict[str, object]] = {
    "grid": {"dim": 1, "modes": 32},
    "scheme": {"eps": 1e-2, "alpha_exp": 5.0, "R": 5.0, "m": 6, "n": 8, "dt": 1e-5, "cfl": 1.0},
    "free_energy": {
        "a": 1.0,
        "gamma": 4.0,
        "well": "double_well",
        "well_cstar": 2.0,
        "well_kappa": 1.0,
        "well_lambda": 1.0,
        "mixing": "tanh",
        "mixing_h0": 0.1,
        "rho_floor": 1e-8,
    },
    "viscosity": {"shear": 1.0, "bulk": 0.0},
    "noise": {"kind": "geometric", "modes": 20, "alpha0": 1.0, "sigma": "sine", "sigma_value": 1.0, "seed": 20260809},
    "initial": {
        "mass": None,  # (2 pi)^dim unless given
        "rho_amp": 0.05,
        "rho_band": 2,
        "u_amp": 0.05,
        "u_band": 2,
        "c_amp": 0.3,
        "c_band": 2,
        "c_mean": 0.0,
    },
    "run": {"horizon": 2e-3, "snapshot_stride": 50, "paths": 64, "betas": "1,2"},
    "output": {"dir": "out"},
}

# each key's section, to file a rule that spans sections under the key it names
_SECTION_OF = {key: section for section, kv in _DEFAULTS.items() for key in kv}


@dataclass(frozen=True)
class RunConfig:
    grid: TorusGrid
    params: ApproxParams
    initial: InitialData
    horizon: float
    snapshot_stride: int
    paths: int
    betas: tuple[int, ...]
    outdir: str
    raw: dict  # resolved section -> key -> value, the printable form

    def ensemble(self, workers: int = 1, paths: int | None = None) -> EnsembleConfig:
        """The trajectory settings, without rho c snapshots: no command reads them."""
        return EnsembleConfig(
            grid=self.grid,
            params=self.params,
            initial=self.initial,
            paths=self.paths if paths is None else paths,
            horizon=self.horizon,
            betas=self.betas,
            workers=workers,
        )


def default_config() -> "RunConfig":
    return parse_config("")


def _coerce(section: str, key: str, text: str, problems: list[str]):
    """The value of ``text`` in the type of the key's default (a number where the default is None)."""
    kind = type(_DEFAULTS[section][key])
    if kind is str:
        return text.strip()
    try:
        return int(text) if kind is int else float(text)
    except ValueError:
        problems.append(f"[{section}] {key}: expected {'an integer' if kind is int else 'a number'}, got {text!r}")
        return None


def _build(problems: list[str], section: str | None, factory, **kwargs):
    """``factory(**kwargs)``, or None with each of its violations listed under ``[section]``.

    Arguments that are None are left out, so a part that failed is replaced by
    the factory's default and the factory's own rules are still checked.
    Without a section, a message goes under the section of the key it starts with.
    """
    try:
        return factory(**{k: v for k, v in kwargs.items() if v is not None})
    except ConfigError as exc:
        problems.extend(f"[{section or _SECTION_OF[v.split()[0]]}] {v}" for v in exc.violations)
        return None


def parse_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse and fully validate; raises ConfigError listing every violation.

    ``seed``, when given, replaces ``[noise] seed`` before any object is built.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from None

    problems: list[str] = []
    resolved: dict[str, dict[str, object]] = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _DEFAULTS:
            problems.append(f"[{section}]: unknown section")
            continue
        for key, value in parser.items(section):
            if key not in _DEFAULTS[section]:
                problems.append(f"[{section}] {key}: unknown key")
                continue
            coerced = _coerce(section, key, value, problems)
            if coerced is not None:
                resolved[section][key] = coerced

    if seed is not None:
        resolved["noise"]["seed"] = int(seed)

    g, s, fe, nz, init, r = (resolved[k] for k in ("grid", "scheme", "free_energy", "noise", "initial", "run"))
    grid = _build(problems, "grid", TorusGrid, dim=g["dim"], modes_per_dim=g["modes"])

    well = mixing = family = noise = betas = None
    if fe["well"] == "double_well":
        well = _build(problems, "free_energy", DoubleWell, cstar=fe["well_cstar"], kappa=fe["well_kappa"])
    elif fe["well"] == "quadratic":
        well = QuadraticWell(lam=fe["well_lambda"])
    elif fe["well"] == "zero":
        well = ZeroFunction()
    else:
        problems.append(f"[free_energy] well must be double_well, quadratic or zero, got {fe['well']!r}")
    if fe["mixing"] == "tanh":
        mixing = TanhMixing(h0=fe["mixing_h0"])
    elif fe["mixing"] == "zero":
        mixing = ZeroFunction()
    else:
        problems.append(f"[free_energy] mixing must be tanh or zero, got {fe['mixing']!r}")
    fspec = _build(problems, "free_energy", FreeEnergySpec, a=fe["a"], gamma=fe["gamma"], mixing=mixing, well=well,
                   rho_floor=fe["rho_floor"])
    if fspec is not None:
        problems.extend(f"[free_energy] {p}" for p in fspec.validate())

    vs = resolved["viscosity"]
    visc = _build(problems, "viscosity", ViscositySpec, nu_shear=vs["shear"], nu_bulk=vs["bulk"])

    if nz["kind"] == "off":
        noise = silent_noise(seed=nz["seed"])
    elif nz["kind"] == "geometric":
        if nz["sigma"] == "sine":
            family = SineDiffusion()
        elif nz["sigma"] == "constant":
            family = ConstantDiffusion(nz["sigma_value"])
        else:
            problems.append(f"[noise] sigma must be sine or constant, got {nz['sigma']!r}")
        noise = _build(problems, "noise", geometric_noise, K=nz["modes"], alpha0=nz["alpha0"], family=family,
                       seed=nz["seed"])
        if noise is not None:
            problems.extend(f"[noise] {p}" for p in noise.validate_bounds())
    else:
        problems.append(f"[noise] kind must be geometric or off, got {nz['kind']!r}")

    params = _build(problems, "scheme", ApproxParams, **s, visc=visc, fspec=fspec, noise=noise)
    if init["mass"] is None:
        init["mass"] = grid.volume if grid is not None else 2.0 * math.pi
    initial = _build(problems, "initial", InitialData, **init)
    try:
        betas = tuple(int(b) for b in str(r["betas"]).split(",") if b.strip())
    except ValueError:
        problems.append(f"[run] betas must be a comma list of integers, got {r['betas']!r}")

    if None not in (grid, params, initial, betas):
        # the rules that tie the parts to the grid and the time step, each under its key's section
        _build(problems, None, EnsembleConfig, grid=grid, params=params, initial=initial, horizon=r["horizon"],
               snapshot_stride=r["snapshot_stride"], paths=r["paths"], betas=betas)
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        grid=grid,
        params=params,
        initial=initial,
        horizon=r["horizon"],
        snapshot_stride=r["snapshot_stride"],
        paths=r["paths"],
        betas=betas,
        outdir=str(resolved["output"]["dir"]),
        raw=resolved,
    )


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def format_config(config: RunConfig) -> str:
    """Emit the resolved configuration; parse(format(c)) reproduces c exactly."""
    buf = io.StringIO()
    for section, kv in config.raw.items():
        buf.write(f"[{section}]\n")
        for key, value in kv.items():
            buf.write(f"{key} = {_format_value(value)}\n")
        buf.write("\n")
    return buf.getvalue()
