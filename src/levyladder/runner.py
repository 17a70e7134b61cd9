"""Config-driven experiment runner.

A run is described by a JSON config (schema below), executes a list of
checks against the shipped or inline-defined fixtures, and writes one CSV
per check plus a ``summary.csv``.  Outputs are a pure function of
``(config, seed)``: rerunning with the same seed produces byte-identical
files.  Checks and their chunks run one after another in a single process.
The exit status is 0 iff every check passed its budget.

Config schema (unknown keys, missing required keys and bad values are
rejected, with the offending path named)::

    {
      "seed": 42,                  # master seed (CLI --seed overrides)
      "n": 100000,                 # default sample count
      "out": "results",            # output directory (CLI --out overrides)
      "chunk_size": 16384,         # RNG chunk size (part of reproducibility)
      "fixtures": {                # optional inline fixture definitions
        "MYFIX": {"kind": "levy", "drift": 1.0, "rate": 2.0,
                   "jumps": {"variant": "discrete", "atoms": [[1, 0.5], [-1, 0.5]]}}
      },
      "checks": [
        {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25},
        {"name": "quintuple", "fixture": "P3", "u": 2.0, "n": 400000}
      ]
    }

Each check names an entry of :data:`CHECKS`, which gives the fixture kind
it needs, the keys it accepts and those it requires; every check also
accepts ``"n"``, overriding the default sample count.
``demos/full_suite.json`` runs every check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from . import lawcheck, passage, renewal, transforms
from .fixtures import FIXTURES, ConfigError, spec_from_config
from .processes import BivariateSubordinatorSpec
from .rw_ladder import DriftLattice, LatticeWalkSpec
from .results import REPORT_HEADER, SUMMARY_HEADER, CheckReport, merge_monitors, write_csv
from .rng import RngPolicy

__all__ = ["ExperimentConfig", "run", "report_plotdata", "main"]

_TOP_KEYS = {"seed", "n", "out", "chunk_size", "fixtures", "checks"}


@dataclass(frozen=True)
class Check:
    """One runner check.

    ``kind`` is the fixture kind it needs (``"Levy"`` or ``"bivariate"``;
    None takes either), ``keys`` the config keys it accepts besides
    ``name``, ``fixture`` and ``n``, ``required`` those of them it cannot run
    without, ``positive`` those whose value (each value, for a list) must be
    a finite number above 0, and ``run(spec, c, n, policy, fixture)``
    computes its report from the check's config ``c``.  An optional key the
    config leaves out is not passed, so its default is the library's.
    ``takes(spec)``, if given, is the library's own test of a Levy fixture,
    which raises a ValueError for one the check cannot take.
    ``validate(spec, c, where)``, if given, raises a ConfigError for values
    the generic rules let through.
    """

    kind: str | None
    keys: tuple[str, ...]
    run: Callable[..., CheckReport]
    required: tuple[str, ...] = ()
    positive: tuple[str, ...] = ()
    takes: Callable[[Any], Any] | None = None
    validate: Callable[[Any, Mapping[str, Any], str], None] | None = None


def _given(c: Mapping[str, Any], *keys: str) -> dict[str, float]:
    """The optional ``keys`` that ``c`` sets, as floats."""
    return {k: float(c[k]) for k in keys if k in c}


def _params_from(c: Mapping[str, Any]) -> transforms.TransformParams:
    return transforms.TransformParams(
        mu=float(c.get("mu", 1.0)),
        rho=float(c.get("rho", 2.0)),
        ell=float(c.get("ell", 0.0)),
        nu=float(c.get("nu", 1.0)),
        theta=float(c.get("theta", 1.0)),
    )


_TRANSFORM_KEYS = ("mu", "rho", "ell", "nu", "theta")


def _transform_ok(spec, c: Mapping[str, Any], where: str) -> None:
    try:
        _params_from(c).validate_for(spec)
    except ValueError as exc:
        raise ConfigError(f"{where}: inadmissible transform parameters: {exc}") from None


def _quintuple_ok(spec, c: Mapping[str, Any], where: str) -> None:
    if not spec.is_compound_poisson:
        return  # the creeping route takes any positive level
    try:
        lawcheck.lattice_level(spec, float(c["u"]))
    except ValueError as exc:
        raise ConfigError(f"{where}.u: {exc}") from None
    least = lawcheck.QUINTUPLE_LATTICE_MIN_CAP
    if "cap" in c and float(c["cap"]) < least:
        raise ConfigError(f"{where}.cap: must be >= {least:g} on the lattice route, whose"
                          f" tail cell holds the censored paths; got {c['cap']!r}")


def _amicale_ok(spec, c: Mapping[str, Any], where: str) -> None:
    if spec.is_compound_poisson:
        return  # the lattice route reads no mesh
    try:
        lawcheck.amicale_grid(spec, float(c.get("mesh", lawcheck.AMICALE_MESH)))
    except ValueError as exc:
        raise ConfigError(f"{where}.mesh: {exc}") from None


def _alpha_ok(spec, c: Mapping[str, Any], where: str) -> None:
    if "s_max" in c and float(c["s_max"]) < 0.5:
        raise ConfigError(f"{where}.s_max: must be >= 0.5, the first time of the grid;"
                          f" got {c['s_max']!r}")


# Run entries reach library functions as module attributes at call time, so a
# function rebound on its module after import is the one that runs.
CHECKS: dict[str, Check] = {
    "p-estimate": Check(
        "Levy", ("t", "u"), required=("t", "u"), positive=("t", "u"), takes=DriftLattice,
        run=lambda spec, c, n, pol, fx: passage.check_p_estimate(
            spec, float(c["t"]), c["u"], n, pol, fixture=fx)),
    "V-grid": Check(
        None, ("t", "u"), required=("t", "u"), positive=("t", "u"), takes=DriftLattice,
        run=lambda spec, c, n, pol, fx: renewal.check_V_grid(
            spec, c["t"], c["u"], n, pol, fixture=fx)),
    # ct1 validates "delta" and ignores it: configs written for its former
    # difference-quotient right side still pass the key
    "ct1": Check(
        "Levy", ("t", "u", "delta"), required=("t", "u"), positive=("t", "u", "delta"),
        takes=DriftLattice,
        run=lambda spec, c, n, pol, fx: renewal.check_ct1(
            spec, float(c["t"]), float(c["u"]), n, pol, fixture=fx)),
    "subpint": Check(
        None, ("t", "u"), required=("t", "u"), positive=("t", "u"), takes=DriftLattice,
        run=lambda spec, c, n, pol, fx: renewal.check_subpint(
            spec, float(c["t"]), float(c["u"]), n, pol, fixture=fx)),
    "quintuple": Check(
        "Levy", ("u", "cap", "mesh"), required=("u",),
        positive=("u", "cap", "mesh"), takes=lawcheck.quintuple_route,
        validate=_quintuple_ok,
        run=lambda spec, c, n, pol, fx: lawcheck.check_quintuple(
            spec, float(c["u"]), n, pol, fixture=fx, **_given(c, "cap", "mesh"))),
    "quadruple": Check(
        "bivariate", ("u", "mesh"), required=("u",), positive=("u", "mesh"),
        run=lambda spec, c, n, pol, fx: lawcheck.check_quadruple(
            spec, float(c["u"]), n, pol, fixture=fx, **_given(c, "mesh"))),
    "amicale": Check(
        "Levy", ("mesh",), positive=("mesh",), takes=lawcheck.amicale_route,
        validate=_amicale_ok,
        run=lambda spec, c, n, pol, fx: lawcheck.check_amicale(
            spec, n, pol, fixture=fx, **_given(c, "mesh"))),
    "slfi": Check(
        "bivariate", _TRANSFORM_KEYS, validate=_transform_ok,
        run=lambda spec, c, n, pol, fx: transforms.slfi_check(
            spec, _params_from(c), n, pol, fixture=fx)),
    "slfi-fluct": Check(
        "Levy", _TRANSFORM_KEYS, takes=transforms.slfi_fluct_fixture, validate=_transform_ok,
        run=lambda spec, c, n, pol, fx: transforms.slfi_fluct_check(
            spec, _params_from(c), n, pol, fixture=fx)),
    "wiener-hopf": Check(
        "Levy", ("a",), positive=("a",), takes=LatticeWalkSpec.from_process,
        run=lambda spec, c, n, pol, fx: transforms.wiener_hopf_check(
            spec, tuple(float(a) for a in np.atleast_1d(c.get("a", [0.5, 1.0, 2.0]))), n,
            pol, fixture=fx)),
    "resolvent": Check(
        "Levy", ("q", "u"), required=("u",), positive=("q", "u"),
        takes=transforms.resolvent_fixture,
        run=lambda spec, c, n, pol, fx: transforms.check_resolvent_creep(
            spec, float(c.get("q", 1.0)), float(c["u"]), n, pol, fixture=fx)),
    "alpha": Check(
        "Levy", ("s_max",), positive=("s_max",), takes=LatticeWalkSpec.from_process,
        validate=_alpha_ok,
        run=lambda spec, c, n, pol, fx: lawcheck.check_alpha_embedding(
            spec, n, pol, fixture=fx,
            s_grid=tuple(np.arange(0.5, float(c["s_max"]) + 0.25, 0.5)) if "s_max" in c
            else None)),
}


def _integer(value: Any, where: str, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``, or a ConfigError naming
    ``where``; a number with a fractional part is refused, not truncated, and
    a JSON boolean is not a number."""
    try:
        out = None if isinstance(value, bool) else int(value)
        if isinstance(value, float) and out != value:
            out = None
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (least is not None and out < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{where}: must be an integer{bound}, got {value!r}")
    return out


def _is_positive(value: Any) -> bool:
    """Whether ``value`` is a finite number above 0 (a JSON boolean is not)."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value)) and float(value) > 0
    except (TypeError, ValueError):
        return False


class ExperimentConfig:
    """Validated runner configuration; see the module docstring for the schema."""

    def __init__(self, raw: Mapping[str, Any]):
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        self.seed = _integer(raw.get("seed", 0), "config.seed")
        self.n = _integer(raw.get("n", 10000), "config.n", least=1)
        self.out = str(raw.get("out", "results"))
        self.chunk_size = _integer(raw.get("chunk_size", 16384), "config.chunk_size")
        try:
            RngPolicy(self.seed, self.chunk_size)
        except ValueError as exc:  # its messages start with the field's name
            key, _, why = str(exc).partition(" ")
            raise ConfigError(f"config.{key}: {why}") from None
        self.fixtures = dict(FIXTURES)
        for name, cfg in raw.get("fixtures", {}).items():
            self.fixtures[name] = spec_from_config(cfg, where=f"fixtures.{name}")
        checks = raw.get("checks")
        if not checks:
            raise ConfigError("config.checks: at least one check is required")
        self.checks = [self._validate_check(i, c) for i, c in enumerate(checks)]

    def _validate_check(self, i: int, c: Mapping[str, Any]) -> dict[str, Any]:
        where = f"checks[{i}]"
        if "name" not in c:
            raise ConfigError(f"{where}.name: missing")
        name = c["name"]
        if not isinstance(name, str) or name not in CHECKS:
            raise ConfigError(f"{where}.name: unknown check {name!r}; allowed {list(CHECKS)}")
        if "fixture" not in c or c["fixture"] not in self.fixtures:
            raise ConfigError(f"{where}.fixture: must name a shipped or inline fixture")
        spec = self.fixtures[c["fixture"]]
        check = CHECKS[name]
        unknown = set(c) - {"name", "fixture", "n", *check.keys}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        if "n" in c:
            _integer(c["n"], f"{where}.n", least=1)
        is_biv = isinstance(spec, BivariateSubordinatorSpec)
        if check.kind is not None and is_biv != (check.kind == "bivariate"):
            raise ConfigError(f"{where}: {name} needs a {check.kind} fixture")
        for key in check.required:
            if key not in c:
                raise ConfigError(f"{where}.{key}: missing, {name} needs it")
        for key, value in c.items():
            if isinstance(value, list) and not value:
                raise ConfigError(f"{where}.{key}: empty list, {name} needs at least one value")
        for key in (k for k in check.positive if k in c):
            values = c[key] if isinstance(c[key], list) else [c[key]]
            if not all(_is_positive(v) for v in values):
                raise ConfigError(f"{where}.{key}: must be finite and > 0, got {c[key]!r}")
        if check.takes is not None and not is_biv:
            try:
                check.takes(spec)
            except ValueError as exc:
                raise ConfigError(f"{where}.fixture: {name} cannot take {c['fixture']}: {exc}"
                                  ) from None
        if check.validate is not None:
            check.validate(spec, c, where)
        return dict(c)


def _details_suffix(name: str) -> str:
    """End of the name of the CSV that holds check ``name``'s details."""
    return f"_{name.replace('-', '_')}.csv"


def _run_check(c: dict[str, Any], cfg: ExperimentConfig, policy: RngPolicy,
               out_dir: str, idx: int) -> CheckReport:
    name, fixture = c["name"], c["fixture"]
    rep = CHECKS[name].run(cfg.fixtures[fixture], c, int(c.get("n", cfg.n)),
                           policy.substream(f"{idx}:{name}:{fixture}"), fixture)
    if rep.details:
        header = list(rep.columns) or sorted({k for row in rep.details for k in row})
        write_csv(os.path.join(out_dir, f"check{idx:02d}{_details_suffix(name)}"),
                  header, [[row.get(k, "") for k in header] for row in rep.details])
    return rep


def run(config: Mapping[str, Any] | ExperimentConfig, out_dir: str | None = None) -> int:
    """Execute every configured check; returns the process exit status.

    Writes ``summary.csv`` plus one CSV per check under the output
    directory.  Exit status 0 iff no check failed its budget.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig(config)
    out = out_dir or cfg.out
    os.makedirs(out, exist_ok=True)
    policy = RngPolicy(cfg.seed, cfg.chunk_size)
    reports: list[CheckReport] = []
    for idx, c in enumerate(cfg.checks):
        rep = _run_check(c, cfg, policy, out, idx)
        reports.append(rep)
        print(rep.line())
    write_csv(os.path.join(out, "summary.csv"), SUMMARY_HEADER,
              [r.summary_row() for r in reports])
    write_csv(os.path.join(out, "reports.csv"), REPORT_HEADER,
              [r.report_row() for r in reports])
    monitors = merge_monitors({}, *(r.monitors for r in reports))
    total_paths = sum(r.n_paths for r in reports)
    write_csv(os.path.join(out, "monitors.csv"), ["monitor", "count", "total_paths"],
              [[k, v, total_paths] for k, v in sorted(monitors.items())])
    return 0 if all(r.passed for r in reports) else 1


def report_plotdata(results_dir: str, out_dir: str | None = None) -> list[str]:
    """Reshape stored check CSVs into long-format plot data.

    Pure transformation of the stored files (no recomputation): rerunning
    produces identical bytes.  Emits one ``plot_*.csv`` per reshapeable
    input; missing inputs are an error naming the directory.
    """
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(f"results directory not found: {results_dir}")
    out = out_dir or results_dir
    # column names as the library writes them
    fixture, _, u, p, se, _ = passage.P_ESTIMATE_COLUMNS
    t, grid_u, V, SE, _ = renewal.GRID_COLUMNS
    reshape = {
        _details_suffix("p-estimate"):
            lambda r: ["p_vs_u", r[u], r[p], r[se], r[fixture]],
        _details_suffix("V-grid"):
            lambda r: ["V_vs_u", r[grid_u], r[V], r[SE], f"{t}={r[t]}"],
    }
    written: list[str] = []
    for fname in sorted(os.listdir(results_dir)):
        row_of = next((f for end, f in reshape.items() if fname.endswith(end)), None)
        if fname.startswith("plot_") or row_of is None:
            continue
        dest = os.path.join(out, "plot_" + fname)
        rows = _read_csv(os.path.join(results_dir, fname))
        write_csv(dest, ["figure", "x", "y", "se", "series"], [row_of(r) for r in rows])
        written.append(dest)
    if not written:
        raise FileNotFoundError(
            f"no reshapeable check CSVs (p-estimate or V-grid) in {results_dir}"
        )
    return written


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyladder-verify",
        description="Run fluctuation-identity verification suites from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--plotdata", action="store_true",
                        help="also emit long-format plot CSVs from the results")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    try:
        cfg = ExperimentConfig(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = run(cfg)
    if args.plotdata:
        report_plotdata(cfg.out)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
