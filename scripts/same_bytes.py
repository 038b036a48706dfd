#!/usr/bin/env python3
"""Check that this working tree's ``valadj run`` behaves byte for byte as
revision REV's does.

    python3 scripts/same_bytes.py REV

Runs ``valadj run`` with and without ``--mc`` on the shipped configs
(``configs/*.json``), on the ``long_mc`` benchmark configs of seeds 1, 2,
3 and 7, built by importing ``bench/workloads.py``, and on two sweeps
made from ``configs/independent_mixed.json`` (``SWEEPS``): a piecewise
``lambda_bar`` sweep whose node times, and so panel grids, differ between
points, and a flat sweep that repeats a point.  That is 38 runs, each
once with REV's ``src/`` and once with this tree's, on the same config
files.
It compares every CSV written, stdout, stderr and the exit code, prints
one table row per run and exits 1 on any difference.  Under a run whose
CSVs differ it names each differing cell by file, line and column, with
both values and their relative change (at most ``MAX_CELLS`` per file).
A closing line counts the runs that differ only in Monte Carlo estimates
(``mc_mean``/``mc_stderr`` cells and the ``mc=`` text of stdout) and
gives their largest relative change.  REV is checked out in a temporary
``git worktree``, removed when done.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 7)
MAX_CELLS = 20
MC_COLUMNS = ("mc_mean", "mc_stderr")
MC_ECHO = re.compile(rb"mc=\S+")


def _piecewise(*nodes):
    return [{"t": t, "value": value} for t, value in nodes]


# lambda_bar sweeps run on configs/independent_mixed.json at 2**16 paths
SWEEPS = {
    "piecewise_lambda_bar": [
        _piecewise((0.0, 0.01), (1.3, 0.03)),
        _piecewise((0.0, 0.01), (2.7, 0.03)),
        _piecewise((0.0, 0.01), (1.3, 0.03), (2.7, 0.0)),
        0.02,
    ],
    "repeated_flat_lambda_bar": [0.02, 0.02, 0.0, 0.0, 0.02],
}


def config_paths(workdir: Path) -> list[Path]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    paths = sorted((ROOT / "configs").glob("*.json"))
    for seed in SEEDS:
        seed_dir = workdir / f"long_mc_seed{seed}"
        seed_dir.mkdir()
        paths += workloads.config_paths("long_mc", seed, False, ROOT, seed_dir)
    (workdir / "sweeps").mkdir()
    doc = json.loads((ROOT / "configs" / "independent_mixed.json").read_text())
    doc["numerics"]["mc_paths"] = 2**16
    for name, sweep in SWEEPS.items():
        doc["sweep"] = {"lambda_bar": sweep}
        path = workdir / "sweeps" / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def run(src: Path, config: Path, mc: bool, cwd: Path) -> tuple:
    """``(exit code, stdout, stderr, {file name: bytes})`` of one run,
    started in a fresh ``cwd`` with ``--out out``."""
    cwd.mkdir(parents=True)
    command = [sys.executable, "-m", "valadj.cli", "run", str(config), "--out", "out"]
    proc = subprocess.run(
        command + (["--mc"] if mc else []),
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
    )
    out = cwd / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, proc.stderr, files


def relative(old: str, new: str) -> float | None:
    """``|new - old| / |old|``, inf where ``old`` is 0; None where a value
    is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def csv_changes(before: dict, after: dict) -> tuple[list, list]:
    """``(notes, cells)`` for the CSVs of two runs, ``{file name: bytes}``:
    a note per file written by one side only or of another length, and
    ``(file, line, column, old, new)`` per differing cell, the line
    counted from the header as line 1 and the column named by it."""
    notes, cells = [], []
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) == after.get(name):
            continue
        if name not in before or name not in after:
            notes.append(f"{name}: written by one side only")
            continue
        old, new = (files[name].decode().splitlines() for files in (before, after))
        if len(old) != len(new):
            notes.append(f"{name}: {len(old)} lines, then {len(new)}")
        header = old[0].split(",") if old else []
        cells += [
            (name, number, header[col] if col < len(header) else f"column {col + 1}", a, b)
            for number, (row_a, row_b) in enumerate(zip(old, new), start=1)
            for col, (a, b) in enumerate(zip(row_a.split(","), row_b.split(",")))
            if a != b
        ]
    return notes, cells


def cell_changes(notes: list, cells: list) -> list[str]:
    """One line per note and per differing cell, with both values and
    their relative change (at most ``MAX_CELLS`` cells per file)."""
    lines = [f"    {note}" for note in notes]
    for name in sorted({cell[0] for cell in cells}):
        mine = [cell for cell in cells if cell[0] == name]
        for _, number, column, a, b in mine[:MAX_CELLS]:
            rel = relative(a, b)
            change = "not numbers" if rel is None else f"rel {rel:.3g}"
            lines.append(f"    {name} line {number} {column}: {a} -> {b} ({change})")
        if len(mine) > MAX_CELLS:
            lines.append(f"    {name}: {len(mine) - MAX_CELLS} more cells differ")
    return lines


def mc_only_change(before: tuple, after: tuple, notes: list, cells: list) -> float | None:
    """The largest relative change of two differing runs whose exit codes
    and stderr agree, whose stdout differs at most in ``mc=`` text, and
    whose CSVs differ only in ``MC_COLUMNS`` cells; None otherwise."""
    code, _, stderr, _ = (a == b for a, b in zip(before, after))
    echo = MC_ECHO.sub(b"mc=", before[1]) == MC_ECHO.sub(b"mc=", after[1])
    if not (code and stderr and echo) or notes or not cells:
        return None
    if any(column not in MC_COLUMNS for _, _, column, _, _ in cells):
        return None
    changes = [relative(a, b) for *_, a, b in cells]
    return None if None in changes else max(changes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        worktree = tmp / "rev"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(worktree), args.rev],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        try:
            configs = config_paths(tmp)
            row = "{:<40} {:<8} {:>7} {:<6} {:<6} {:<6}"
            print(row.format("config", "mode", "exit", "stdout", "stderr", "csv"))
            differ = 0
            mc_only = []
            for n, config in enumerate(configs):
                name = str(config.relative_to(ROOT if config.is_relative_to(ROOT) else tmp))
                for mc in (False, True):
                    before, after = (
                        run(src, config, mc, tmp / side / f"{n}{'_mc' * mc}")
                        for side, src in (("rev", worktree / "src"), ("tree", ROOT / "src"))
                    )
                    same = [a == b for a, b in zip(before, after)]
                    differ += not all(same)
                    print(
                        row.format(
                            name,
                            "--mc" if mc else "",
                            f"{before[0]}/{after[0]}",
                            *("same" if s else "DIFF" for s in same[1:]),
                        )
                    )
                    notes, cells = csv_changes(before[3], after[3])
                    for line in cell_changes(notes, cells):
                        print(line)
                    if not all(same):
                        change = mc_only_change(before, after, notes, cells)
                        if change is not None:
                            mc_only.append(change)
            runs = 2 * len(configs)
            print(f"{runs - differ} of {runs} runs identical to {args.rev}")
            largest = f", largest relative change {max(mc_only):.3g}" if mc_only else ""
            print(
                f"{len(mc_only)} of {differ} differing runs differ only in "
                f"{'/'.join(MC_COLUMNS)} cells and mc= text{largest}"
            )
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)],
                check=True,
            )
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
