"""Self-test of the benchmark: ``python3 -m unittest discover -s bench``.

Runs every workload at its tiny size, untraced and traced, and checks
that the workloads ``BENCHMARK.json`` lists are defined, that each
metric it names is printed with its unit, that the traced self times
add up to the root ``cli.run_scenario`` span, that corrupted outputs
count as failed calls, and that the benchmark refuses to run without
the program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 170


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=TIMEOUT,
    )


class TinyWorkloads(unittest.TestCase):
    def test_listed_workloads_are_defined(self):
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)

    def test_every_metric_is_printed_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = bench("--workload", name, "--seed", "5",
                                 "--seconds", "0.4", "--trace", str(trace), "--tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in SPEC[group]})
                    for m in SPEC[group]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertTrue(math.isfinite(metrics[m["name"]]["value"]))
                        self.assertTrue(any(line.startswith(m["name"] + " ") and
                                            line.endswith(" " + m["unit"]) for line in lines))
                    self.assertTrue(any(line.startswith("failed_ratio 0.0 ratio")
                                        for line in lines))
                    self.assertTrue(any(line.startswith("env {") for line in lines))
                    if trace:
                        selves = metrics["cli.run_scenario.self_ms"]["value"] + sum(
                            metrics[f"{layer}.self_ms"]["value"] for layer in tracer.LAYERS[1:])
                        self.assertAlmostEqual(
                            selves, metrics["cli.run_scenario.ms"]["value"], delta=1e-9)

    def test_refuses_to_run_without_the_program(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "long_solve", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare)


class CorruptOutput:
    """Stands in for ``valadj.cli``: runs the real ``run_scenario`` and
    then spoils the profile CSV of the calls numbered in ``spoil``."""

    def __init__(self, cli, spoil, edit):
        self.cli, self.spoil, self.edit, self.calls = cli, set(spoil), edit, 0

    def run_scenario(self, cfg, **kwargs):
        files = self.cli.run_scenario(cfg, **kwargs)
        if self.calls in self.spoil:
            files[0].write_text(self.edit(files[0].read_text()))
        self.calls += 1
        return files


def _bump_last_digit(text):
    i = max(i for i, ch in enumerate(text) if ch.isdigit() and ch != "9")
    return text[:i] + str(int(text[i]) + 1) + text[i + 1:]


def _nan_first_value(text):
    header, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[4] = "nan"
    return "\n".join((header, ",".join(fields), rest))


class CorruptedOutputsFail(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
        self.cli, _, self.configs, _ = run.setup("long_solve", 7, True, self.workdir)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def calls(self, spoil, edit):
        fake = CorruptOutput(self.cli, spoil, edit)
        return run.run_calls(fake, self.configs, False, self.workdir / "out",
                             run.Gate(False), 0.0, min_calls=6)

    def test_clean_calls_pass(self):
        self.assertEqual([c.problems for c in self.calls((), str)], [[]] * 6)

    def test_changed_bytes_count_as_one_failure(self):
        failed = [bool(c.problems) for c in self.calls({4}, _bump_last_digit)]
        self.assertEqual(failed, [False] * 4 + [True, False])

    def test_non_finite_value_fails(self):
        calls = self.calls({0}, _nan_first_value)
        self.assertIn("non-finite", calls[0].problems[0])

    def test_mc_estimate_off_by_more_than_four_stderr_fails(self):
        files = self.cli.run_scenario(self.configs[0], with_mc=True,
                                      out_dir=self.workdir / "mc", echo=lambda *a: None)
        profiles, summary = (f.read_bytes() for f in files)
        self.assertEqual(run.csv_problems(profiles, summary, True), [])
        header, row = summary.decode().splitlines()[:2]
        f = row.split(",")
        f[run.SUMMARY_MC_MEAN] = repr(float(f[run.SUMMARY_V0]) + 5 * float(f[run.SUMMARY_MC_STDERR]))
        spoiled = f"{header}\n{','.join(f)}\n".encode()
        self.assertIn("stderr", run.csv_problems(profiles, spoiled, True)[0])

    def test_raising_call_fails(self):
        def boom(_text):
            raise RuntimeError("spoiled")

        calls = self.calls({1}, boom)
        self.assertIn("raised", calls[1].problems[0])


if __name__ == "__main__":
    unittest.main()
