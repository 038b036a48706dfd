"""The benchmark's per-layer tracing (``bench/tracer.py``) stays exact
over simulations of several reduction chunks and compute blocks.

The tracer charges each wrapped call's time to one shared stack, so its
self times sum to the root ``cli.run_scenario`` spans only while every
wrapped call runs inside one, on the calling thread.  The benchmark's
own self-test runs single-block path counts; this test runs the shipped
configs at 3 chunks of 1000 paths in blocks of 100, with the interpreter
switching threads every microsecond, so that payoffs computed on two
threads would corrupt the stack in every run, not once in a while.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from valadj import cli, oracle

ROOT = Path(__file__).resolve().parent.parent
PATHS = 3000


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("tracer")


def test_self_times_sum_to_root_spans(tracing, tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 1000)
    monkeypatch.setattr(oracle, "_BLOCK", 100)
    configs = []
    for src in sorted((ROOT / "configs").glob("*.json")):
        doc = json.loads(src.read_text())
        doc["numerics"].update(panels_per_year=16, mc_paths=PATHS)
        (tmp_path / src.name).write_text(json.dumps(doc))
        configs.append(cli.load_config(tmp_path / src.name))

    tracer = tracing.Tracer()
    tracer.install("valadj", [sys.modules[f"valadj.{name}"] for name in tracing.LAYERS])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cfg in configs:
            cli.run_scenario(cfg, with_mc=True, out_dir=tmp_path / "out", echo=lambda *a: None)
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()

    assert tracer.self_time_gap_ns() == 0
    runs = tracer.entries["cli.run_scenario@cli"]
    assert runs.calls == len(configs)
    simulated = sum(
        e.work.get("paths", 0) for name, e in tracer.entries.items() if name.startswith("oracle.")
    )
    points = sum(len(cfg.lambda_bar_sweep) + len(cfg.theta_sweep) for cfg in configs)
    assert simulated == points * PATHS
