"""Seeded workloads of the valadj benchmark.

Each workload is a list of scenario config files that the benchmark
loads with ``valadj.cli.load_config`` and runs one per call, in order,
round and round.  ``long_solve`` and ``long_mc`` are generated from the
seed; ``shipped_mc`` is the repository's ``configs/*.json``, read as
shipped.  The benchmark lets the seed choose which config comes first.

Uses only the standard library, so the program under test receives
nothing but the generated JSON.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REGIMES = ("riskfree_cpty", "independent", "correlated")


@dataclass(frozen=True)
class Size:
    """Shape of a generated trade and its numerics."""

    years: int
    flows_per_year: int
    curve_nodes: int
    panels_per_year: int
    mc_paths: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    with_mc: bool
    full: Size | None  # None: the shipped configs
    tiny: Size


# The oracle check of the solve-only workload runs at 2**20 paths, so
# ``long_solve`` configs carry that path count; its timed calls do not
# simulate.  ``long_solve`` is not listed in BENCHMARK.json: its calls
# are mostly interpreter work (CSV text, per-point ``amount_at``), which
# ran up to 1.9x slower for minutes at a time on a 2-vCPU Xeon VM, so
# its p50 spread 0.14-0.51 of the median over ten seeds.  Run it by hand.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_solve",
            "solve only: generated 30y quarterly swap, 120 flows, 10-node curves, 512 panels/yr, "
            "no MC paths, 1 point/call; grid x flows work in engine/instruments, CSV text in cli",
            with_mc=False,
            full=Size(30, 4, 10, 512, 2**20),
            tiny=Size(2, 4, 3, 16, 2**12),
        ),
        Workload(
            "long_mc",
            "generated 30y quarterly swap, 120 flows, 10-node curves, 64 panels/yr, 2**18 MC paths, "
            "1 point/call; oracle payoff aggregation and v_X marked at most paths' default times",
            with_mc=True,
            full=Size(30, 4, 10, 64, 2**18),
            tiny=Size(2, 4, 3, 16, 2**12),
        ),
        Workload(
            "shipped_mc",
            "configs/*.json as shipped, with MC: 1-2 flows, flat curves, 512 panels/yr, 1e6 paths, "
            "2-4 points/call; draws, inverse survival, copula; bypasses flow-indexed v_X",
            with_mc=True,
            full=None,
            tiny=Size(0, 0, 0, 16, 2**12),
        ),
    )
}


def _curve(rng: random.Random, size: Size, lo: float, hi: float) -> list:
    """Piecewise-constant curve: a node at 0 plus ``curve_nodes - 1``
    distinct node times on flow dates inside the trade's life.  On flow
    dates the nodes add no panel edges, so every seed solves on the same
    grid and allocates the same arrays."""
    per_year = size.flows_per_year
    dates = sorted(rng.sample(range(1, per_year * size.years), size.curve_nodes - 1))
    times = [0.0] + [d / per_year for d in dates]
    return [{"t": t, "value": rng.uniform(lo, hi)} for t in times]


def _hazard(rng: random.Random, size: Size, mean: float) -> list:
    """Default intensity curve with seeded shape, scaled to average
    ``mean`` over the trade's life, so that every seed defaults the same
    share of MC paths and marks them at the same cost."""
    nodes = _curve(rng, size, 0.5 * mean, 1.5 * mean)
    ends = [n["t"] for n in nodes[1:]] + [float(size.years)]
    average = sum(n["value"] * (end - n["t"]) for n, end in zip(nodes, ends)) / size.years
    return [{"t": n["t"], "value": n["value"] * mean / average} for n in nodes]


def _flows(rng: random.Random, size: Size) -> list:
    """Net swap flows: the investor pays for the first half of the life
    and receives for the second, the paid leg 25% larger, so ``v_X``
    starts negative, ends positive and both closeout branches fire."""
    n = size.years * size.flows_per_year
    flows = []
    for k in range(1, n + 1):
        amount = rng.uniform(0.5, 1.5)
        flows.append(
            {"t": k / size.flows_per_year, "amount": -1.25 * amount if 2 * k <= n else amount}
        )
    return flows


def generated_config(regime: str, rng: random.Random, size: Size) -> dict:
    """One generated scenario with a single sweep point of ``regime``."""
    doc = {
        "market": {
            "risk_free": _curve(rng, size, 0.01, 0.04),
            "collateral": _curve(rng, size, 0.005, 0.03),
        },
        "credit": {
            "investor": _hazard(rng, size, 0.0175),
            "counterparty": _hazard(rng, size, 0.04),
        },
        "bond_recovery": 0.0 if regime == "correlated" else rng.uniform(0.0, 0.4),
        "closeout": {
            "recovery_investor": rng.uniform(0.2, 0.6),
            "recovery_counterparty": rng.uniform(0.2, 0.6),
        },
        "schedule": {"flows": _flows(rng, size)},
        "regime": regime,
        "numerics": {
            "panels_per_year": size.panels_per_year,
            "mc_paths": size.mc_paths,
            "seed": rng.randrange(2**31),
        },
        "output": {"profiles": f"{regime}_profiles.csv", "summary": f"{regime}_summary.csv"},
    }
    if regime == "correlated":
        doc["sweep"] = {"theta": [rng.uniform(0.5, 3.0)]}
    else:
        doc["sweep"] = {"lambda_bar": [_hazard(rng, size, 0.04)]}
    if regime == "riskfree_cpty":
        del doc["credit"]["counterparty"]
    return doc


def config_paths(name: str, seed: int, tiny: bool, root: Path, workdir: Path) -> list:
    """Write the workload's configs under ``workdir`` (shipped configs
    are used in place unless ``tiny``) and return their paths."""
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.full
    if workload.full is None:
        shipped = sorted((root / "configs").glob("*.json"))
        if not shipped:
            raise FileNotFoundError(f"no configs/*.json under {root}")
        if not tiny:
            return shipped
        paths = []
        for src in shipped:
            doc = json.loads(src.read_text())
            doc["numerics"]["panels_per_year"] = size.panels_per_year
            doc["numerics"]["mc_paths"] = size.mc_paths
            paths.append(workdir / src.name)
            paths[-1].write_text(json.dumps(doc))
        return paths
    rng = random.Random(seed)
    paths = []
    for regime in REGIMES:
        path = workdir / f"{name}_{regime}.json"
        path.write_text(json.dumps(generated_config(regime, rng, size)))
        paths.append(path)
    return paths
