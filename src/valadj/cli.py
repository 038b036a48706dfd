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
from dataclasses import asdict, dataclass, replace
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
# temporaries for one sweep point (tracemalloc: 200 bytes at peak); and
# one profile row of the point being written, at the join that makes
# its text (:func:`_profile_text`): the row's text (its label plus
# _FLOAT_CHARS per value), a str of each of its six values
# (_STR_HEADER_BYTES plus _FLOAT_CHARS), the t and v_X text that this
# point and the previous one keep (_FLOAT_CHARS per value), and
# _ROW_OVERHEAD_BYTES of list slots (seven join tokens), one column's
# Python floats and the kept arrays.  The text and its encoded copy,
# written next, take less.  Measured peaks of whole runs at 4096
# panels/yr stay under 710 bytes per grid point.
_ENGINE_BYTES_PER_POINT = 256
_FLOAT_CHARS = 25  # "-1.2345678901234567e-308" and its comma
_STR_HEADER_BYTES = 49  # sys.getsizeof("")
_ROW_OVERHEAD_BYTES = 128

# a run's floating-point rules: an overflow or a NaN raises, so stderr holds
# only the JSON error; underflow is legitimate (survival and discounts decay)
_RUN_ERRSTATE = {"divide": "raise", "over": "raise", "invalid": "raise"}


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


def _integer(low: int):
    """A reader of a JSON integer ``>= low``."""

    def read(raw) -> int:
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < low:
            raise ValueError(f"must be an integer >= {low}")
        return raw

    return read


def _recovery(raw) -> float:
    return _check_recovery(_number(raw))


def _theta(raw) -> float:
    return _check_theta(_number(raw))


def _regime(raw) -> str:
    if raw not in REGIMES:
        raise ValueError(f"must be one of {', '.join(REGIMES)}")
    return raw


def _curve(raw) -> TermCurve:
    if _real(raw):
        return TermCurve.flat(raw)
    if isinstance(raw, list):
        return TermCurve.from_nodes(_node(k, node, "value") for k, node in enumerate(raw))
    raise ValueError("expected a number or a list of {t, value} nodes")


def _investor(raw) -> CreditCurve:
    return CreditCurve("I", _curve(raw))


def _counterparty(raw) -> CreditCurve:
    return CreditCurve("C", _curve(raw))


def _flows(raw) -> list:
    if not isinstance(raw, list):
        raise ValueError("expected a list of {t, amount} nodes")
    return [_node(k, flow, "amount") for k, flow in enumerate(raw)]


def _node(k: int, node, key: str) -> tuple:
    """``(t, node[key])`` of node ``k`` of a curve (``value``) or of flows (``amount``)."""
    if not (isinstance(node, dict) and "t" in node and key in node):
        raise ValueError(f"node {k}: expected an object with t and {key}")
    try:
        return _number(node["t"]), _number(node[key])
    except TypeError as exc:
        raise TypeError(f"node {k}: {exc}") from None


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


# Every key a config may hold, and each leaf's ``(read, default)``:
# ``read(raw)`` returns its value or raises; an absent or null leaf takes
# ``default``, but a _REQUIRED one has none, so its reader sees the null.
# A list ``[read]`` holds items that ``read`` reads.
_REQUIRED = object()
_SCHEMA = {
    "market": {"risk_free": (_curve, _REQUIRED), "collateral": (_curve, _REQUIRED)},
    "credit": {"investor": (_investor, _REQUIRED), "counterparty": (_counterparty, None)},
    "bond_recovery": (_recovery, 0.0),
    "closeout": {"recovery_investor": (_recovery, 0.0), "recovery_counterparty": (_recovery, 0.0)},
    "schedule": {"flows": (_flows, _REQUIRED), "maturity": (_number, None)},
    "regime": (_regime, _REQUIRED),
    "sweep": {"lambda_bar": ([_curve], []), "theta": ([_theta], [])},
    "numerics": {
        "panels_per_year": (_integer(1), DEFAULT_PANELS_PER_YEAR),
        "mc_paths": (_integer(2), 100_000),
        "seed": (_integer(0), 0),
    },
    "output": {"profiles": (_output_name, "profiles.csv"), "summary": (_output_name, "summary.csv")},
}

# The value key of the {t, ...} nodes inside a leaf that these read
_NODE_KEYS = {_curve: "value", _investor: "value", _counterparty: "value", _flows: "amount"}


def _read(diags: list, where: str, read, raw):
    """``raw`` read by ``read`` as config field ``where``, or None if it
    fails; a list reader ``[read]`` reads each item as ``where[i]``."""
    if isinstance(read, list):
        if not isinstance(raw, list):
            diags.append(f"{where}: must be a list")
            return None
        return [_read(diags, f"{where}[{i}]", read[0], item) for i, item in enumerate(raw)]
    if read in _NODE_KEYS and isinstance(raw, list):
        diags += [f"{where}[{k}].{key}: unknown key" for k, node in enumerate(raw)
                  if isinstance(node, dict) for key in node if key not in ("t", _NODE_KEYS[read])]
    return _field(diags, where, read, raw)


def _walk(doc: dict, schema: dict, diags: list, path: str = "") -> dict:
    """The values of config section ``doc`` read by ``schema``, keyed like
    it.  An unknown key, a section that is not an object (read as empty,
    like an absent or null one) and a leaf that fails to read, which has
    no value, join ``diags`` under their dotted paths."""
    diags += [f"{path}{key}: unknown key" for key in doc if key not in schema]
    values = {}
    for key, entry in schema.items():
        where, raw = f"{path}{key}", doc.get(key)
        if isinstance(entry, dict):
            if raw is not None and not isinstance(raw, dict):
                diags.append(f"{where}: must be a JSON object")
                raw = None
            values[key] = _walk(raw or {}, entry, diags, f"{where}.")
        elif raw is None and entry[1] is not _REQUIRED:
            values[key] = entry[1]
        elif (value := _read(diags, where, entry[0], raw)) is not None:
            values[key] = value
    return values


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _panel_grid_bytes(cfg: ScenarioConfig) -> int:
    """Upper estimate of the memory a run's panel grids take: grid points
    times the engine's bytes per point and one profile row of the longest
    label, as its text is made.  The grid has
    ``ceil(maturity * panels_per_year) + 1`` uniform points plus at most
    one per flow date and curve node."""
    curves = [cfg.market.risk_free, cfg.market.collateral, cfg.investor.intensity]
    curves += cfg.lambda_bar_sweep
    if cfg.counterparty is not None:
        curves.append(cfg.counterparty.intensity)
    # any rate past 2**62 panels a year is as far out of reach; the cap
    # keeps the product a float
    uniform = math.ceil(cfg.schedule.maturity * min(cfg.panels_per_year, 2**62))
    points = uniform + 1 + len(cfg.schedule.times) + sum(len(c.times) for c in curves)
    labels = [len(f"{cfg.regime},{lam},{theta},,") for _, lam, theta, _ in _sweep_points(cfg)]
    text = max(labels) + 6 * _FLOAT_CHARS
    strs = 6 * (_STR_HEADER_BYTES + _FLOAT_CHARS)
    kept = 2 * 2 * _FLOAT_CHARS  # t and v_X, of this point and the previous
    row_bytes = text + strs + kept + _ROW_OVERHEAD_BYTES
    return points * (_ENGINE_BYTES_PER_POINT + row_bytes)


def _panel_memory_problem(cfg: ScenarioConfig) -> str | None:
    need = _panel_grid_bytes(cfg)
    have = _physical_memory()
    if need <= have:
        return None
    return (
        f"{cfg.panels_per_year} panels per year over {cfg.schedule.maturity} years need "
        f"about {need} bytes for the panel grid and its profile rows, more than the "
        f"{have} bytes of physical memory"
    )


def _parse_config_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a JSON object"])
    diags = []
    values = _walk(doc, _SCHEMA, diags)
    credit, schedule, sweep, output = (values[k] for k in ("credit", "schedule", "sweep", "output"))
    if "flows" in schedule:
        flows, maturity = schedule["flows"], schedule.get("maturity")
        schedule = _field(diags, "schedule", CashflowSchedule.from_flows, flows, maturity)

    # the rules across leaves see only the values read: a leaf that failed
    # has its diagnostic already, and an absent or null one its default
    regime = values.get("regime")
    if regime is not None:
        used, unused = ("theta", "lambda_bar") if regime == REGIME_CORRELATED else ("lambda_bar", "theta")
        if sweep.get(unused):
            diags.append(f"sweep.{unused}: not used by the {regime} regime")
        if sweep.get(used) == []:
            diags.append(f"sweep.{used}: the {regime} regime needs at least one {used}")
    if regime == REGIME_CORRELATED and values.get("bond_recovery"):
        diags.append("bond_recovery: correlated regime requires zero bond recovery")
    if regime in (REGIME_INDEPENDENT, REGIME_CORRELATED) and credit.get("counterparty", 0) is None:
        diags.append(f"credit.counterparty: required by the {regime} regime")
    profiles = output.get("profiles")
    if profiles is not None and profiles == output.get("summary"):
        diags.append("output.summary: must differ from output.profiles")
    if diags:
        raise ConfigError(diags)

    cfg = ScenarioConfig(
        market=MarketRates(**values["market"]),
        investor=credit["investor"],
        counterparty=credit["counterparty"],
        bond_recovery=values["bond_recovery"],
        closeout=CloseoutSpec(**values["closeout"]),
        schedule=schedule,
        regime=regime,
        lambda_bar_sweep=tuple(sweep["lambda_bar"]),
        theta_sweep=tuple(sweep["theta"]),
        **values["numerics"],
        profiles_out=profiles,
        summary_out=output["summary"],
    )
    diags = _set_up_problems(cfg)
    if (problem := _panel_memory_problem(cfg)) is not None:
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


def _column_text(column) -> list:
    """``repr`` of each value of ``column``.  A column with at most a
    quarter as many runs of bitwise-equal values as rows formats each run
    once; bits, not ``==``, so that ``0.0`` and ``-0.0`` stay apart."""
    bits = column.view(np.int64)
    edges = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 4 * (len(edges) + 1) > len(column):
        return list(map(repr, column.tolist()))  # Python floats in one pass
    edges = np.concatenate(([0], edges, [len(column)]))
    text = []
    for value, count in zip(column[edges[:-1]].tolist(), np.diff(edges).tolist()):
        text += [repr(value)] * count
    return text


def _same_bits(a, b) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _profile_text(prefix: str, profile, mc_mean: str, mc_err: str, kept=None) -> tuple:
    """A sweep point's profile rows as one text: per grid time ``prefix``,
    then ``t, v_X, u, v, alpha, beta`` and the Monte Carlo columns,
    filled on the first row only; and what the point keeps for the next.

    Each distinct value is formatted once.  A column of few runs formats
    each run once (:func:`_column_text`).  ``t`` and ``v_X`` depend only
    on the grid, the schedule and the collateral curve: ``kept``, the
    previous point's ``(t, v_X, text)``, holds the two arrays and their
    values' text joined by commas, and a point whose arrays are bitwise
    equal to them splits that text instead of formatting.  The rows come
    from one join over the interleaved column texts.
    """
    t, v_x = profile.grid, profile.v_x
    n = len(t)
    if kept is not None and _same_bits(kept[0], t) and _same_bits(kept[1], v_x):
        shared = kept[2].split(",")
    else:
        shared = [None] * (2 * n)
        shared[0::2] = _column_text(t)
        shared[1::2] = _column_text(v_x)
        kept = (t, v_x, ",".join(shared))
    # per row a head, then its six values; a head ends the row before it
    # (its Monte Carlo cells and newline, after the join's comma) and
    # starts its own with prefix.  A grid has 0 and maturity, so n >= 2.
    tokens = [None] * (7 * n + 1)
    tokens[0::7] = [prefix, f"{mc_mean},{mc_err}\n{prefix}", *[",\n" + prefix] * (n - 2), ",\n"]
    tokens[1::7] = shared[0::2]
    tokens[2::7] = shared[1::2]
    del shared
    for k, column in enumerate((profile.u, profile.v, profile.alpha, profile.beta), 3):
        tokens[k::7] = _column_text(column)
    return ",".join(tokens), kept


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


def _point(cfg: ScenarioConfig, i: int, point, with_mc: bool, kept=None):
    """Solve sweep point ``i``, ``point`` from :func:`_sweep_points`, and
    with ``with_mc`` simulate it; return its profile text, summary row,
    echo line and what it keeps for the next point's text, which takes
    what the previous point kept as ``kept`` (:func:`_profile_text`).

    A numeric failure is raised again with the point's config key in
    front of its message."""
    key, lam_label, theta_label, args = point
    solve, simulate, *_ = _regime_functions(cfg.regime)
    mc_mean = mc_err = mc_paths = mc_seed = ""
    try:
        profile = solve(*args, panels_per_year=cfg.panels_per_year)
        if with_mc:
            est = simulate(*args, cfg.mc_paths, cfg.seed + i)
            mc_mean, mc_err = _fmt(est.mean), _fmt(est.std_error)
            mc_paths, mc_seed = str(est.paths), str(est.seed)
    except (InvariantError, ArithmeticError) as exc:
        raise type(exc)(f"{key}: {exc}") from exc
    prefix = f"{cfg.regime},{lam_label},{theta_label}"
    text, kept = _profile_text(prefix, profile, mc_mean, mc_err, kept)
    values = map(_fmt, (profile.v_x[0], profile.u[0], profile.v[0]))
    row = ",".join((cfg.regime, lam_label, theta_label, *values, mc_mean, mc_err, mc_paths, mc_seed))
    mc_note = f" mc={mc_mean}+-{mc_err}" if with_mc else ""
    note = (
        f"{cfg.regime} lambda_bar_I={lam_label}"
        + (f" theta={theta_label}" if theta_label else "")
        + f" u0={_fmt(profile.u[0])} v0={_fmt(profile.v[0])}{mc_note}"
    )
    return text, row + "\n", note, kept


def run_scenario(
    cfg: ScenarioConfig, *, with_mc: bool = False, out_dir=None, echo=print
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
    base = Path(out_dir) if out_dir is not None else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    paths = (base / cfg.profiles_out, base / cfg.summary_out)
    with _write(paths) as write:
        write(PROFILE_COLUMNS + "\n", SUMMARY_COLUMNS + "\n")
        kept = None  # a point's t and v_X text, for the next point only
        for i, point in enumerate(_sweep_points(cfg)):
            text, row, note, kept = _point(cfg, i, point, with_mc, kept)
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
        read_panels, _ = _SCHEMA["numerics"]["panels_per_year"]
        try:
            cfg = replace(cfg, panels_per_year=read_panels(args.panels))
            problem = _panel_memory_problem(cfg)
        except ValueError as exc:
            problem = str(exc)
        if problem is not None:
            return _fail(EXIT_CONFIG, "config", f"--panels: {problem}")
    if args.out is not None:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(EXIT_CONFIG, "config", f"--out: cannot create the directory: {exc}")
    try:
        with np.errstate(**_RUN_ERRSTATE):
            run_scenario(cfg, with_mc=args.mc, out_dir=args.out)
    except (InvariantError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except OSError as exc:
        return _fail(EXIT_CONFIG, "output", str(exc))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
