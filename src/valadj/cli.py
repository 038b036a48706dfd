"""Command-line front end.

``valadj run <config.json>`` solves the configured regime for every
sweep point and writes two CSV reports; ``valadj validate <config.json>``
only parses and checks the config.  Exit codes: 0 success, 2 config
error, 3 numeric failure.  Output is byte-deterministic for a fixed
config and seed: floats are written with ``repr`` (shortest round-trip)
and no timestamps are emitted.

Sweep points are independent pure computations; they are executed in
config order and reported in that order.  The Monte Carlo seed for
sweep point ``i`` is ``seed + i``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .credit import CreditCurve, JointDefaultModel, _check_theta
from .curves import MarketRates, TermCurve
from .engine import (
    DEFAULT_PANELS_PER_YEAR,
    _check_coefficients,
    _correlated_coefficients,
    _independent_coefficients,
    adjustment_correlated,
    adjustment_independent,
)
from .errors import InvariantError
from .instruments import CashflowSchedule, CloseoutSpec, _check_recovery
from .oracle import _dependent_default, _first_default, mc_value_correlated, mc_value_independent

__all__ = ["ScenarioConfig", "ConfigError", "load_config", "run_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

REGIME_RISKFREE_CPTY = "riskfree_cpty"
REGIME_INDEPENDENT = "independent"
REGIME_CORRELATED = "correlated"
REGIMES = (REGIME_RISKFREE_CPTY, REGIME_INDEPENDENT, REGIME_CORRELATED)

PROFILE_COLUMNS = "regime,lambda_bar_I,theta,t,v_X,u,v,alpha,beta,mc_mean,mc_stderr"
SUMMARY_COLUMNS = "regime,lambda_bar_I,theta,v_X0,u0,v0,mc_mean,mc_stderr,mc_paths,mc_seed"


# Memory per panel grid point: the engine's float64 arrays and
# temporaries for one sweep point (tracemalloc: 163 bytes at peak); one
# profile row of the point being written, held three times (the rows,
# the point's text and its encoded copy), each copy at most the row's
# label plus _FLOAT_CHARS per value, plus _ROW_OVERHEAD_BYTES of object
# headers and list slots.  Measured peaks of whole runs stay under 500
# bytes per grid point.
_ENGINE_BYTES_PER_POINT = 256
_FLOAT_CHARS = 25  # "-1.2345678901234567e-308" and its comma
_ROW_OVERHEAD_BYTES = 64

# a run's floating-point rules: an overflow or a NaN raises, so stderr holds
# only the JSON error; underflow is legitimate (survival and discounts decay)
_RUN_ERRSTATE = {"divide": "raise", "over": "raise", "invalid": "raise"}

# Every key a config may hold; a list holds items of its one element's
# schema, None is a leaf.  Curves are a number or a list of nodes.
_CURVE = [{"t": None, "value": None}]
_SCHEMA = {
    "market": {"risk_free": _CURVE, "collateral": _CURVE},
    "credit": {"investor": _CURVE, "counterparty": _CURVE},
    "bond_recovery": None,
    "closeout": {"recovery_investor": None, "recovery_counterparty": None},
    "schedule": {"flows": [{"t": None, "amount": None}], "maturity": None},
    "regime": None,
    "sweep": {"lambda_bar": [_CURVE], "theta": None},
    "numerics": {"panels_per_year": None, "mc_paths": None, "seed": None},
    "output": {"profiles": None, "summary": None},
}


class ConfigError(ValueError):
    """Config rejected; ``diagnostics`` lists every problem found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class ScenarioConfig:
    market: MarketRates
    investor: CreditCurve
    counterparty: CreditCurve | None
    bond_recovery: float
    closeout: CloseoutSpec
    schedule: CashflowSchedule
    regime: str
    lambda_bar_sweep: tuple[TermCurve, ...]
    theta_sweep: tuple[float, ...]
    panels_per_year: int
    mc_paths: int
    seed: int
    profiles_out: str
    summary_out: str

    def to_json_dict(self) -> dict:
        """Canonical JSON form; parsing it back yields an equal config."""
        schedule = self.schedule
        d = {
            "market": {
                "risk_free": _node_list(self.market.risk_free),
                "collateral": _node_list(self.market.collateral),
            },
            "credit": {"investor": _node_list(self.investor.intensity)},
            "bond_recovery": self.bond_recovery,
            "closeout": asdict(self.closeout),
            "schedule": {
                "flows": [{"t": t, "amount": a} for t, a in zip(schedule.times, schedule.amounts)],
                "maturity": schedule.maturity,
            },
            "regime": self.regime,
            "sweep": {},
            "numerics": {
                "panels_per_year": self.panels_per_year,
                "mc_paths": self.mc_paths,
                "seed": self.seed,
            },
            "output": {"profiles": self.profiles_out, "summary": self.summary_out},
        }
        if self.counterparty is not None:
            d["credit"]["counterparty"] = _node_list(self.counterparty.intensity)
        if self.regime == REGIME_CORRELATED:
            d["sweep"]["theta"] = list(self.theta_sweep)
        else:
            d["sweep"]["lambda_bar"] = [_node_list(c) for c in self.lambda_bar_sweep]
        return d


def _node_list(curve: TermCurve) -> list[dict]:
    return [{"t": t, "value": v} for t, v in zip(curve.times, curve.values)]


def _real(x) -> bool:
    """A JSON number; ``bool`` is an ``int`` subclass, but not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _field(diags: list, key: str, build, *args):
    """``build(*args)``, the value of config field ``key``; if building it
    raises, None, and ``<key>: <message>`` joins ``diags``.  A JSON
    integer may pass the range of a double, so an overflow counts, and
    so does a sweep point's set-up failing its check."""
    try:
        return build(*args)
    except (ValueError, TypeError, KeyError, ArithmeticError, InvariantError) as exc:
        diags.append(f"{key}: {exc}")
        return None


def _number(raw):
    if not _real(raw):
        raise TypeError("must be a number")
    return raw


def _curve(raw) -> TermCurve:
    if _real(raw):
        return TermCurve.flat(raw)
    if isinstance(raw, list):
        return TermCurve.from_nodes(_node(k, node) for k, node in enumerate(raw))
    raise ValueError("expected a number or a list of {t, value} nodes")


def _node(k: int, node) -> tuple:
    if not (isinstance(node, dict) and "t" in node and "value" in node):
        raise ValueError(f"node {k}: expected an object with t and value")
    return node["t"], node["value"]


def _credit(name: str, raw) -> CreditCurve:
    return CreditCurve(name, _curve(raw))


def _schedule(doc: dict) -> CashflowSchedule:
    flows = [(f["t"], f["amount"]) for f in doc.get("flows", [])]
    return CashflowSchedule.from_flows(flows, doc.get("maturity"))


def _output_name(name) -> str:
    """``name`` if :func:`_write` can write a report of that name
    inside ``--out``."""
    # a bare name stays inside --out; Path("..").name is ".." itself
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(
            "must be a plain file name inside --out (non-empty, no directory part, not '.' or '..')"
        )
    if "\0" in name:
        raise ValueError("embedded null byte")
    # the report is first written under a longer temporary name, which
    # must fit a file name: 255 bytes on Linux file systems
    longest = 255 - len(_temporary_name(""))
    if len(os.fsencode(name)) > longest:
        raise ValueError(f"must be at most {longest} bytes, so that its temporary name fits 255")
    return name


def _unknown_keys(doc, schema, path: str = ""):
    """Dotted paths of the keys in ``doc`` that ``schema`` does not
    know; values of the wrong type are left to the parser."""
    if isinstance(schema, dict) and isinstance(doc, dict):
        for key, value in doc.items():
            where = f"{path}.{key}" if path else str(key)
            if key in schema:
                yield from _unknown_keys(value, schema[key], where)
            else:
                yield where
    elif isinstance(schema, list) and isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _unknown_keys(item, schema[0], f"{path}[{i}]")


def _section(doc: dict, key: str, diags: list) -> dict:
    """The object under ``key``; an absent or null section is empty."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        diags.append(f"{key}: must be a JSON object")
        return {}
    return value


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _panel_grid_bytes(cfg: ScenarioConfig, panels_per_year: int) -> int:
    """Upper estimate of the memory a run's panel grids take: grid points
    times the engine's bytes per point and one profile row of the largest
    sweep point.  The grid has
    ``ceil(maturity * panels_per_year) + 1`` uniform points plus at most
    one per flow date and curve node."""
    curves = [cfg.market.risk_free, cfg.market.collateral, cfg.investor.intensity]
    curves += cfg.lambda_bar_sweep
    if cfg.counterparty is not None:
        curves.append(cfg.counterparty.intensity)
    # any rate past 2**62 panels a year is as far out of reach; the cap
    # keeps the product a float
    uniform = math.ceil(cfg.schedule.maturity * min(panels_per_year, 2**62))
    points = uniform + 1 + len(cfg.schedule.times) + sum(len(c.times) for c in curves)
    labels = [len(f"{cfg.regime},{lam},{theta},,") for _, lam, theta, _ in _sweep_points(cfg)]
    row_bytes = 3 * (max(labels) + 6 * _FLOAT_CHARS) + _ROW_OVERHEAD_BYTES
    return points * (_ENGINE_BYTES_PER_POINT + row_bytes)


def _panel_memory_problem(cfg: ScenarioConfig, panels_per_year: int) -> str | None:
    need = _panel_grid_bytes(cfg, panels_per_year)
    have = _physical_memory()
    if need <= have:
        return None
    return (
        f"{panels_per_year} panels per year over {cfg.schedule.maturity} years need "
        f"about {need} bytes for the panel grid and its profile rows, more than the "
        f"{have} bytes of physical memory"
    )


def _parse_config_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a JSON object"])
    diags = [f"{where}: unknown key" for where in _unknown_keys(doc, _SCHEMA)]

    market_doc = _section(doc, "market", diags)
    risk_free = _field(diags, "market.risk_free", _curve, market_doc.get("risk_free"))
    collateral = _field(diags, "market.collateral", _curve, market_doc.get("collateral"))

    credit_doc = _section(doc, "credit", diags)
    investor = _field(diags, "credit.investor", _credit, "I", credit_doc.get("investor"))
    # a listed counterparty that fails to parse has its own diagnostic
    listed = credit_doc.get("counterparty") is not None
    counterparty = None
    if listed:
        counterparty = _field(diags, "credit.counterparty", _credit, "C", credit_doc["counterparty"])

    raw = doc.get("bond_recovery", 0.0)
    bond_recovery = _field(diags, "bond_recovery", lambda: _check_recovery(_number(raw)))
    closeout_doc = _section(doc, "closeout", diags)
    recoveries = [closeout_doc.get(key, 0.0) for key in ("recovery_investor", "recovery_counterparty")]
    closeout = _field(diags, "closeout", CloseoutSpec, *recoveries)
    schedule = _field(diags, "schedule", _schedule, _section(doc, "schedule", diags))

    regime = doc.get("regime")
    if regime not in REGIMES:
        diags.append(f"regime: must be one of {', '.join(REGIMES)}")

    # the regime's sweep key, whose entries are read by ``read``; the
    # other key must be empty
    sweep_doc = _section(doc, "sweep", diags)
    sweeps = {"lambda_bar": [], "theta": []}
    if regime in REGIMES:
        used, unused, read, kind = (
            ("theta", "lambda_bar", lambda th: _check_theta(_number(th)), "numbers")
            if regime == REGIME_CORRELATED
            else ("lambda_bar", "theta", _curve, "curves")
        )
        if sweep_doc.get(unused):
            diags.append(f"sweep.{unused}: not used by the {regime} regime")
        raws = sweep_doc.get(used)
        if raws is not None and not isinstance(raws, list):
            diags.append(f"sweep.{used}: must be a list of {kind}")
        elif not raws:
            diags.append(f"sweep.{used}: the {regime} regime needs at least one {used}")
        else:
            # the set-up rejects a negative lambda_bar (measure.internal_rate)
            sweeps[used] = [
                _field(diags, f"sweep.{used}[{i}]", read, raw) for i, raw in enumerate(raws)
            ]
    if regime == REGIME_CORRELATED and bond_recovery:
        diags.append("bond_recovery: correlated regime requires zero bond recovery")
    if regime in (REGIME_INDEPENDENT, REGIME_CORRELATED) and not listed:
        diags.append(f"credit.counterparty: required by the {regime} regime")

    numerics = _section(doc, "numerics", diags)
    panels = numerics.get("panels_per_year", DEFAULT_PANELS_PER_YEAR)
    if not isinstance(panels, int) or isinstance(panels, bool) or panels < 1:
        diags.append("numerics.panels_per_year: must be a positive integer")
    mc_paths = numerics.get("mc_paths", 100_000)
    if not isinstance(mc_paths, int) or isinstance(mc_paths, bool) or mc_paths < 2:
        diags.append("numerics.mc_paths: must be an integer >= 2")
    seed = numerics.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        diags.append("numerics.seed: must be a non-negative integer")

    output = _section(doc, "output", diags)
    profiles_out = output.get("profiles", "profiles.csv")
    summary_out = output.get("summary", "summary.csv")
    _field(diags, "output.profiles", _output_name, profiles_out)
    _field(diags, "output.summary", _output_name, summary_out)
    if profiles_out == summary_out:
        diags.append("output.summary: must differ from output.profiles")

    # every field that failed to build has its diagnostic
    if diags:
        raise ConfigError(diags)

    cfg = ScenarioConfig(
        market=MarketRates(risk_free, collateral),
        investor=investor,
        counterparty=counterparty,
        bond_recovery=bond_recovery,
        closeout=closeout,
        schedule=schedule,
        regime=regime,
        lambda_bar_sweep=tuple(sweeps["lambda_bar"]),
        theta_sweep=tuple(sweeps["theta"]),
        panels_per_year=panels,
        mc_paths=mc_paths,
        seed=seed,
        profiles_out=profiles_out,
        summary_out=summary_out,
    )
    diags = _set_up_problems(cfg)
    problem = _panel_memory_problem(cfg, panels)
    if problem is not None:
        diags.append(f"numerics.panels_per_year: {problem}")
    if diags:
        raise ConfigError(diags)
    return cfg


def _set_up_problems(cfg: ScenarioConfig) -> list:
    """Build what ``run --mc`` builds for each sweep point before its
    panels and paths, under the run's floating-point rules, and return a
    diagnostic naming each point that fails, the quantity and the time.
    An overflow in panel propagation is left to the run (exit 3)."""
    *_, coefficients, simulator = _regime_functions(cfg.regime)

    def set_up(args):
        with np.errstate(**_RUN_ERRSTATE):
            _check_coefficients(*coefficients(*args), maturity=cfg.schedule.maturity)
            simulator(*args)

    diags = []
    for key, _, _, args in _sweep_points(cfg):
        _field(diags, key, set_up, args)
    return diags


def load_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    return _parse_config_dict(doc)


# -- report helpers ----------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _profile_text(prefix: str, profile, mc_mean: str, mc_err: str) -> str:
    """A sweep point's profile rows as one text: per grid time ``prefix``,
    then ``t, v_X, u, v, alpha, beta`` and the Monte Carlo columns,
    filled on the first row only.

    ``tolist`` turns each column into Python floats in one pass, so each
    value is formatted by ``repr`` without a numpy scalar per element.
    """
    columns = (profile.grid, profile.v_x, profile.u, profile.v, profile.alpha, profile.beta)
    cells = zip(*(map(repr, c.tolist()) for c in columns))
    tails = [f",{mc_mean},{mc_err}"] + [",,"] * (len(profile.grid) - 1)
    rows = [f"{prefix},{','.join(values)}{tail}\n" for values, tail in zip(cells, tails)]
    del cells  # and the columns' Python floats, before the join
    return "".join(rows)


def _lambda_label(curve: TermCurve) -> str:
    if len(curve.times) == 1:
        return _fmt(curve.values[0])
    nodes = ";".join(f"{_fmt(t)}:{_fmt(v)}" for t, v in zip(curve.times, curve.values))
    return f"piecewise({nodes})"


def _regime_functions(regime: str) -> tuple:
    """``(solve, simulate)`` of ``regime`` and the set-ups they start with,
    all called on a sweep point's ``args``; looked up per call, so a
    wrapper installed on these names sees every call."""
    if regime == REGIME_CORRELATED:
        return (adjustment_correlated, mc_value_correlated,
                _correlated_coefficients, _dependent_default)
    return adjustment_independent, mc_value_independent, _independent_coefficients, _first_default


def _sweep_points(cfg: ScenarioConfig):
    """Yield ``(key, lambda_label, theta_label, args)`` per point: its
    config key, its report labels and its regime functions' arguments.
    ``riskfree_cpty`` is ``independent`` without a counterparty, even
    when the config lists one."""
    if cfg.regime == REGIME_CORRELATED:
        for i, theta in enumerate(cfg.theta_sweep):
            model = JointDefaultModel(cfg.investor, cfg.counterparty, theta)
            args = (cfg.market, model, cfg.schedule, cfg.closeout)
            yield f"sweep.theta[{i}]", _fmt(0.0), _fmt(theta), args
        return
    cpty = cfg.counterparty if cfg.regime == REGIME_INDEPENDENT else None
    for i, lam in enumerate(cfg.lambda_bar_sweep):
        args = (cfg.market, cfg.investor, cpty, cfg.bond_recovery, lam, cfg.schedule, cfg.closeout)
        yield f"sweep.lambda_bar[{i}]", _lambda_label(lam), "", args


def _point(cfg: ScenarioConfig, i: int, point, with_mc: bool, ppy: int):
    """Solve sweep point ``i``, ``point`` from :func:`_sweep_points`, and
    with ``with_mc`` simulate it; return its profile text, summary row
    and echo line.

    A numeric failure is raised again with the point's config key in
    front of its message."""
    key, lam_label, theta_label, args = point
    solve, simulate, *_ = _regime_functions(cfg.regime)
    mc_mean = mc_err = mc_paths = mc_seed = ""
    try:
        profile = solve(*args, panels_per_year=ppy)
        if with_mc:
            est = simulate(*args, cfg.mc_paths, cfg.seed + i)
            mc_mean, mc_err = _fmt(est.mean), _fmt(est.std_error)
            mc_paths, mc_seed = str(est.paths), str(est.seed)
    except (InvariantError, ArithmeticError) as exc:
        raise type(exc)(f"{key}: {exc}") from exc
    prefix = f"{cfg.regime},{lam_label},{theta_label}"
    text = _profile_text(prefix, profile, mc_mean, mc_err)
    values = map(_fmt, (profile.v_x[0], profile.u[0], profile.v[0]))
    row = ",".join((cfg.regime, lam_label, theta_label, *values, mc_mean, mc_err, mc_paths, mc_seed))
    mc_note = f" mc={mc_mean}+-{mc_err}" if with_mc else ""
    note = (
        f"{cfg.regime} lambda_bar_I={lam_label}"
        + (f" theta={theta_label}" if theta_label else "")
        + f" u0={_fmt(profile.u[0])} v0={_fmt(profile.v[0])}{mc_note}"
    )
    return text, row + "\n", note


def run_scenario(
    cfg: ScenarioConfig,
    *,
    with_mc: bool = False,
    out_dir=None,
    panels_per_year: int | None = None,
    echo=print,
) -> tuple[Path, Path]:
    """Solve every sweep point and write the profile and summary CSVs.

    Returns the paths written.  Rows appear in config order; the Monte
    Carlo columns are populated on the ``t = 0`` profile row of each
    sweep point (the estimate targets the time-0 value) and stay empty
    when simulation is off.  Each point's rows are written to both
    reports' temporary files as soon as it is done, and the reports
    replaced once every point is: a run that fails leaves the old
    reports and no temporary file (:func:`_write`).  A numeric failure
    is raised again with the failing point's config key in front of its
    message.
    """
    ppy = panels_per_year if panels_per_year is not None else cfg.panels_per_year
    base = Path(out_dir) if out_dir is not None else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    paths = (base / cfg.profiles_out, base / cfg.summary_out)
    with _write(paths) as write:
        write(PROFILE_COLUMNS + "\n", SUMMARY_COLUMNS + "\n")
        for i, point in enumerate(_sweep_points(cfg)):
            text, row, note = _point(cfg, i, point, with_mc, ppy)
            write(text, row)
            echo(note)
            del text  # before the next point's rows
    return paths


def _temporary_name(name: str) -> str:
    """The fresh name :func:`_write` writes report ``name`` under."""
    return f".{name}.{os.urandom(6).hex()}.tmp"


def _naming(path, action, *args):
    """``action(*args)``, an ``OSError`` raised again naming report ``path``."""
    try:
        return action(*args)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _write(paths):
    """Yield ``write(*texts)``, which appends each text to a fresh file
    beside its path (mode 0o666 less the umask); rename each onto its
    path once the block is done.  A block that raises, or a failed
    write, leaves the old reports and no temporary file; only a failed
    rename leaves some new."""
    files, tmps = [], []

    def write(*texts):
        for path, f, text in zip(paths, files, texts):
            _naming(path, f.write, text)

    try:
        for path in paths:
            tmp = path.with_name(_temporary_name(path.name))
            files.append(_naming(path, open, tmp, "x"))
            tmps.append(tmp)
        yield write
        for path, f in zip(paths, files):
            _naming(path, f.close)
        for path, tmp in zip(paths, tmps):
            _naming(path, os.replace, tmp, path)
    finally:
        for f in files:
            with contextlib.suppress(OSError):  # what failed is raised already
                f.close()
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _fail(code: int, kind: str, detail: str, diagnostics=()) -> int:
    payload = {"error": kind, "detail": detail}
    if diagnostics:
        payload["diagnostics"] = list(diagnostics)
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="valadj",
        description="Value adjustments for deterministic cashflow streams.",
    )
    parser.add_argument("--version", action="version", version=f"valadj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve a scenario config and write CSV reports")
    run_p.add_argument("config")
    run_p.add_argument("--mc", action="store_true", help="also run the Monte Carlo check")
    run_p.add_argument("--out", default=None, help="output directory (default: cwd)")
    run_p.add_argument("--panels", type=int, default=None, help="override panels per year")

    val_p = sub.add_parser("validate", help="parse a config and report problems")
    val_p.add_argument("config")

    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc), exc.diagnostics)

    if args.command == "validate":
        print("config ok")
        return EXIT_OK

    if args.panels is not None:
        if args.panels < 1:
            return _fail(EXIT_CONFIG, "config", "--panels must be a positive integer")
        problem = _panel_memory_problem(cfg, args.panels)
        if problem is not None:
            return _fail(EXIT_CONFIG, "config", f"--panels: {problem}")
    if args.out is not None:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(EXIT_CONFIG, "config", f"--out: cannot create the directory: {exc}")
    try:
        with np.errstate(**_RUN_ERRSTATE):
            run_scenario(cfg, with_mc=args.mc, out_dir=args.out, panels_per_year=args.panels)
    except (InvariantError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except OSError as exc:
        return _fail(EXIT_CONFIG, "output", str(exc))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
