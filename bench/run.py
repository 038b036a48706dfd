#!/usr/bin/env python3
"""Layered benchmark of valadj.

Run from the repository root:

    python3 bench/run.py --workload long_mc --seed 1 --seconds 50 --trace 0

One process, one thread, one client in a closed loop: the benchmark
imports ``valadj`` from ``src/``, generates the workload's configs from
``--seed`` (see ``workloads.py``), loads them with
``valadj.cli.load_config`` and calls ``valadj.cli.run_scenario`` on them
in turn, the next call starting when the previous one returns, for
``--seconds`` seconds after one untimed warm-up call per config.

Every call is checked.  A call fails if it raises, if a CSV value is
not finite, if its bytes differ from the first call on the same config,
or if an MC point misses its oracle bound: ``|mc_mean - v0| <= 4 *
mc_stderr``, or ``<= 1e-12`` where ``mc_stderr <= 1e-15``.  A workload
that does not simulate in its timed calls has each config checked once
more, untimed, against the MC oracle at the config's path count.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with ``tracer.Tracer`` wrapping the package's
public functions, and prints the per-layer metrics, per traced call.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit, ``failed_ratio`` and an environment
record.  A full record (and, traced, the spans) is written under
``.bench_out/``.  ``python3 -m unittest discover -s bench`` runs the
benchmark's self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "valadj"

Z_BOUND = 4.0
DEGENERATE_STDERR = 1e-15
DEGENERATE_TOL = 1e-12
#: set-ups per run whose median is ``setup_s``: this process plus fresh ones
SETUP_SAMPLES = 5
#: samples a tail percentile must leave beyond it
TAIL_SAMPLES = 10

# summary CSV columns
SUMMARY_V0, SUMMARY_MC_MEAN, SUMMARY_MC_STDERR = 5, 6, 7


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def import_cli():
    """Import ``valadj.cli`` from this checkout's ``src/``, never from an
    installed copy."""
    package_dir = SRC / PACKAGE
    if not (package_dir / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    import valadj.cli as cli

    if Path(cli.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"imported {cli.__file__}, not the checkout's {PACKAGE}")
    return cli


def setup(workload: str, seed: int, tiny: bool, workdir: Path):
    """Import valadj, generate the configs and load them.  Returns
    ``(cli module, config paths, configs, seconds taken)``."""
    t0 = time.perf_counter()
    cli = import_cli()
    paths = workloads.config_paths(workload, seed, tiny, ROOT, workdir)
    configs = [cli.load_config(p) for p in paths]
    return cli, paths, configs, time.perf_counter() - t0


def fresh_setup_seconds(args) -> float:
    """Time one set-up in a new interpreter, so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


# -- correctness gate ------------------------------------------------------


def _finite(field: bytes) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def csv_problems(profiles: bytes, summary: bytes, with_mc: bool) -> list:
    """Problems in one call's CSVs: non-finite values and, with MC, points
    whose estimate misses the oracle bound."""
    problems = []
    for label, data in (("profiles", profiles), ("summary", summary)):
        if data.count(b"\n") < 2:
            problems.append(f"{label}: no rows")
        # line by line, so checking a large CSV holds no copy of it
        for n, row in enumerate(io.BytesIO(data), start=1):
            bad = [f for f in row.rstrip(b"\n").split(b",")[3:] if f and not _finite(f)]
            if n > 1 and bad:
                problems.append(f"{label} line {n}: non-finite {bad[0].decode()!r}")
                break
    if problems or not with_mc:
        return problems
    for n, row in enumerate(summary.decode().splitlines()[1:], start=2):
        f = row.split(",")
        if not (f[SUMMARY_MC_MEAN] and f[SUMMARY_MC_STDERR]):
            problems.append(f"summary line {n}: no MC estimate")
            continue
        v0, mean, err = float(f[SUMMARY_V0]), float(f[SUMMARY_MC_MEAN]), float(f[SUMMARY_MC_STDERR])
        gap = abs(mean - v0)
        if err <= DEGENERATE_STDERR:
            if gap > DEGENERATE_TOL:
                problems.append(f"summary line {n}: degenerate MC off by {gap:.3g}")
        elif gap > Z_BOUND * err:
            problems.append(f"summary line {n}: |mc_mean - v0| = {gap / err:.2f} stderr")
    return problems


@dataclass
class Call:
    ms: float
    problems: list
    points: int = 0  # sweep points in the summary
    rows: int = 0  # CSV data rows written
    nbytes: int = 0  # CSV bytes written


class Gate:
    """Checks each call's CSVs; the first call on a config is the
    reference that later calls must repeat byte for byte.  Only digests
    are kept, so the gate adds little to the process's peak RSS.

    The CSVs are removed once read, so every call writes new files, as a
    run into a fresh ``--out`` does.  Rewriting a file in place makes
    ext4 flush it to disk at once, and that I/O slowed the calls after
    it by up to 1.6x, at random."""

    def __init__(self, with_mc: bool):
        self.with_mc = with_mc
        self.reference = {}  # config index -> (digests of both CSVs, problems)

    def check(self, key: int, files, ms: float) -> Call:
        try:
            profiles, summary = (Path(f).read_bytes() for f in files)
            for f in files:
                Path(f).unlink()
        except OSError as exc:
            return Call(ms, [f"cannot read the CSVs: {exc}"])
        digests = (hashlib.sha256(profiles).digest(), hashlib.sha256(summary).digest())
        if key not in self.reference:
            self.reference[key] = (digests, csv_problems(profiles, summary, self.with_mc))
        ref_digests, problems = self.reference[key]
        if digests != ref_digests:
            problems = problems + ["CSV bytes differ from the first call on this config"]
        summary_rows = summary.count(b"\n") - 1
        return Call(ms, problems, summary_rows, profiles.count(b"\n") - 1 + summary_rows,
                    len(profiles) + len(summary))


def _silent(*_args, **_kwargs):
    pass


def run_calls(cli, configs, with_mc, out_dir, gate, seconds, *, first=0, min_calls=1,
              tracer=None) -> list:
    """Closed loop with one client, cycling through ``configs`` from
    index ``first``, until ``seconds`` have passed and at least
    ``min_calls`` calls were made."""
    calls = []
    start = time.perf_counter()
    i = first
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        key = i % len(configs)
        if tracer is not None:
            tracer.call_id = i
        t0 = time.perf_counter()
        try:
            files = cli.run_scenario(configs[key], with_mc=with_mc, out_dir=out_dir, echo=_silent)
        except Exception as exc:  # a raising call is a failed call; keep measuring
            calls.append(Call(1e3 * (time.perf_counter() - t0), [f"raised {exc!r}"]))
        else:
            calls.append(gate.check(key, files, 1e3 * (time.perf_counter() - t0)))
        i += 1
    return calls


def oracle_check(cli, configs, out_dir) -> list:
    """Run each config once with MC, outside the timed loop, and check
    its estimates against the solve."""
    checks = []
    for cfg in configs:
        try:
            files = cli.run_scenario(cfg, with_mc=True, out_dir=out_dir, echo=_silent)
            checks.append(csv_problems(*(Path(f).read_bytes() for f in files), True))
        except Exception as exc:  # counted as a failed check
            checks.append([f"oracle check raised {exc!r}"])
    return checks


# -- metrics -----------------------------------------------------------------


def tail_percentile(values: list) -> tuple:
    """p90 by nearest rank, or with fewer than 100 samples the highest
    percentile that leaves ``TAIL_SAMPLES`` beyond it.  Returns ``(value,
    percentile)``."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, min(math.ceil(0.9 * n), n - TAIL_SAMPLES))
    return xs[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(args, samples: dict) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def _timing(calls: list) -> dict:
    ms = [c.ms for c in calls]
    tail, pct = tail_percentile(ms)
    return {"p50": statistics.median(ms), "tail": tail, "tail_pct": pct, "n": len(ms)}


def measure(args, cli, paths, configs, workdir: Path) -> dict:
    """Everything after set-up: warm-up, timed loop(s), oracle check."""
    workload = workloads.WORKLOADS[args.workload]
    gate = Gate(workload.with_mc)
    out_dir = workdir / "out"
    first = args.seed % len(configs)
    warm = run_calls(cli, configs, workload.with_mc, out_dir, gate, 0.0,
                     first=first, min_calls=len(configs))
    result = {"warm": warm}
    if not args.trace:
        result["timed"] = run_calls(cli, configs, workload.with_mc, out_dir, gate,
                                    args.seconds, first=first)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        half = args.seconds / 2.0
        result["timed"] = run_calls(cli, configs, workload.with_mc, out_dir, gate, half,
                                    first=first)
        tracer = tracing.Tracer()
        modules = [sys.modules[f"{PACKAGE}.{name}"] for name in tracing.LAYERS]
        tracer.install(PACKAGE, modules)
        try:
            for p in paths:
                cli.load_config(p)
            loads = tracer.entries["cli.load_config@cli"]
            result["load_config_ms"] = loads.total_ns / loads.calls / 1e6
            tracer.reset()
            traced = run_calls(cli, configs, workload.with_mc, out_dir, gate, half,
                               first=first, tracer=tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["layers"] = tracer.per_call(len(traced))
        result["self_time_gap_ns"] = tracer.self_time_gap_ns()
        result["tracer"] = tracer
    if not workload.with_mc:
        result["oracle"] = oracle_check(cli, configs, workdir / "check")
    return result


def report(args, setup_times: list, result: dict) -> tuple:
    """Build ``(metrics, correct, attempted, failed, notes, problems)``."""
    calls = result["warm"] + result["timed"] + result.get("traced", [])
    problems = [p for c in calls for p in c.problems] + [
        p for check in result.get("oracle", []) for p in check]
    attempted = len(calls) + len(result.get("oracle", []))
    failed = sum(1 for c in calls if c.problems) + sum(1 for c in result.get("oracle", []) if c)
    timed = _timing(result["timed"])
    notes = [f"failed_ratio {failed / attempted!r} ratio ({failed}/{attempted} calls)"]
    correct = failed == 0
    if not args.trace:
        busy_s = sum(c.ms for c in result["timed"]) / 1e3
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_p50_ms": (timed["p50"], "ms"),
            "run_p90_ms": (timed["tail"], "ms"),
            "points_per_s": (sum(c.points for c in result["timed"] if not c.problems) / busy_s,
                             "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        notes.append(f"run_p90_ms is p{timed['tail_pct']:.4g} of {timed['n']} timed calls; "
                     f"setup_s is the median of {len(setup_times)} set-ups")
    else:
        traced = result["traced"]
        traced_timing = _timing(traced)
        metrics = {
            "cli.load_config.ms": (result["load_config_ms"], "ms"),
            "cli.rows_written": (statistics.fmean(c.rows for c in traced), "count"),
            "cli.bytes_written": (statistics.fmean(c.nbytes for c in traced), "bytes"),
            **result["layers"],
            "trace.overhead_pct": (100.0 * (traced_timing["p50"] / timed["p50"] - 1.0), "%"),
        }
        gap = result["self_time_gap_ns"]
        if gap != 0:
            correct = False
            notes.append(f"per-layer self times miss the root spans by {gap} ns")
        notes.append(f"per traced call over {traced_timing['n']} traced calls; "
                     f"overhead against {timed['n']} untraced calls")
    return metrics, correct, attempted, failed, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds of work (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (internal)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        try:
            cli, paths, configs, setup_s = setup(args.workload, args.seed, args.tiny, workdir)
            if args.setup_only:
                print(repr(setup_s))
                return 0
            setup_times = [setup_s]
            if not args.trace:
                setup_times += [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        except (SetupError, ImportError, OSError, ValueError, subprocess.SubprocessError) as exc:
            print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 1
        result = measure(args, cli, paths, configs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, correct, attempted, failed, notes, problems = report(args, setup_times, result)
    samples = {
        "setup": len(setup_times),
        "warm_up_calls": len(result["warm"]),
        "timed_calls": len(result["timed"]),
        "traced_calls": len(result.get("traced", [])),
        "oracle_checks": len(result.get("oracle", [])),
    }
    env = environment(args, samples)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["tracer"].write_spans(OUT / f"{stem}-spans.jsonl")
    record = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct, "attempted": attempted, "failed": failed,
        "notes": notes, "problems": problems[:20],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value!r} {unit}")
    for line in notes + [f"problem: {p}" for p in problems[:5]]:
        print(line)
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
