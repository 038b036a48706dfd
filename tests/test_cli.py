import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valadj import AdjustmentProfile, McEstimate, adjustment_independent, cli, mc_value_independent
from valadj.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    PROFILE_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    load_config,
    main,
    run_scenario,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


DBL_MAX = sys.float_info.max


def base_config(**overrides):
    doc = {
        "market": {"risk_free": 0.01, "collateral": 0.005},
        "credit": {"investor": 0.02},
        "bond_recovery": 0.4,
        "closeout": {"recovery_investor": 0.4, "recovery_counterparty": 0.4},
        "schedule": {"flows": [{"t": 1.0, "amount": 1.0}]},
        "regime": "riskfree_cpty",
        "sweep": {"lambda_bar": [0.0, 0.02]},
        "numerics": {"panels_per_year": 64, "mc_paths": 4000, "seed": 7},
    }
    doc.update(overrides)
    return doc


def shipped_config(name, counterparty=None, flows=None, theta=None, amount=1.0):
    """A shipped config at 4096 paths, with the given changes; ``flows``
    are the times of flows of ``amount`` each."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc["numerics"]["mc_paths"] = 4096
    if counterparty is not None:
        doc["credit"]["counterparty"] = counterparty
    if flows is not None:
        doc["schedule"] = {"flows": [{"t": t, "amount": amount} for t in flows]}
    if theta is not None:
        doc["sweep"]["theta"] = theta
    return doc


def propagation_overflow_doc():
    """A config whose set-up is finite, so it validates, and whose run
    overflows in panel propagation: the risk-free rate is 800 until 0.5
    and -1600 after, so the flow discounted to 0 is about ``exp(400)``,
    but to a time ``t`` after 0.5 it is ``exp(1600 (1 - t))``, past the
    largest double before ``t = 0.557``."""
    doc = shipped_config("correlated_bond", flows=[1.0], theta=[0.0])
    doc["market"]["risk_free"] = [{"t": 0.0, "value": 800.0}, {"t": 0.5, "value": -1600.0}]
    return doc


def correlated_config(**overrides):
    doc = base_config(
        regime="correlated",
        bond_recovery=0.0,
        credit={"investor": 0.02, "counterparty": 0.03},
        sweep={"theta": [0.0, 1.0]},
    )
    doc.update(overrides)
    return doc


def overflowing_integer_docs():
    """``(name, key, config)`` triples: each config holds one JSON integer
    past the range of a double, 10**400, in the field ``key`` names; the
    case is called ``name``, the key or, for a closeout recovery, its
    section."""
    big = 10**400
    closeout = {"recovery_investor": big, "recovery_counterparty": 0.4}
    docs = [
        ("market.risk_free", base_config(market={"risk_free": big, "collateral": 0.005})),
        ("bond_recovery", base_config(bond_recovery=big)),
        ("closeout.recovery_investor", base_config(closeout=closeout)),
        # a flow's amount turns float in the schedule, which is one field
        ("schedule", base_config(schedule={"flows": [{"t": 1.0, "amount": big}]})),
        ("sweep.lambda_bar[1]", base_config(sweep={"lambda_bar": [0.0, big]})),
        ("sweep.theta[0]", correlated_config(sweep={"theta": [big]})),
    ]
    return [(key.removesuffix(".recovery_investor"), key, doc) for key, doc in docs]


# JSON values that are false but not absent, null or an empty list
FALSY = {"zero": 0, "false": False, "empty_string": ""}


def schema_leaves(schema, path=""):
    """The dotted path of every leaf of a config schema."""
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from schema_leaves(entry, f"{path}{key}.")
        else:
            yield f"{path}{key}"


def holds(doc, path):
    """Whether config ``doc`` gives the leaf at dotted ``path``."""
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return False
        doc = doc[key]
    return True


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestValidate:
    def test_accepts_good_config(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["validate", str(path)]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "invalid JSON" in err["diagnostics"][0]

    @pytest.mark.parametrize(
        "raw, diagnostic",
        [
            (b'{"regime": "\xff"}', "cannot read config: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100000 + b"]" * 100000, "invalid JSON: maximum recursion depth exceeded"),
        ],
        ids=["not_utf8", "nested_100000_deep"],
    )
    def test_unreadable_config_rejected_by_both_commands(
        self, tmp_path, capsys, raw, diagnostic
    ):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--mc", "--out", str(out)]):
            assert main([*command, str(path)]) == EXIT_CONFIG
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config"
            assert err["diagnostics"][0].startswith(diagnostic)
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, value, diagnostic",
        [
            ("market.risk_free", [[0.01]], "node 0: expected an object with t and value"),
            (
                "market.risk_free",
                [{"t": 0.0, "value": 0.01}, {"t": 1.0}],
                "node 1: expected an object with t and value",
            ),
            ("schedule.flows", [{"t": 5}], "node 0: expected an object with t and amount"),
            ("schedule.flows", [5], "node 0: expected an object with t and amount"),
            ("schedule.flows", {"t": 5, "amount": 1.0}, "expected a list of {t, amount} nodes"),
        ],
        ids=[
            "list_of_lists", "node_without_value", "flow_without_amount", "flow_not_an_object",
            "flows_not_a_list",
        ],
    )
    def test_bad_curve_node_named_by_both_commands(
        self, tmp_path, capsys, where, value, diagnostic
    ):
        doc = base_config()
        section, key = where.split(".")
        doc[section][key] = value
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--mc", "--out", str(out)]):
            assert main([*command, str(path)]) == EXIT_CONFIG
            err = json.loads(capsys.readouterr().err)
            assert err["diagnostics"] == [f"{where}: {diagnostic}"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["0.5", True], ids=["string", "bool"])
    @pytest.mark.parametrize(
        "path, diagnostic",
        [
            (("market", "risk_free", 0, "t"), "market.risk_free: node 0: must be a number"),
            (("market", "risk_free", 0, "value"), "market.risk_free: node 0: must be a number"),
            (("schedule", "flows", 0, "t"), "schedule.flows: node 0: must be a number"),
            (("schedule", "flows", 0, "amount"), "schedule.flows: node 0: must be a number"),
            (("schedule", "maturity"), "schedule.maturity: must be a number"),
            (("bond_recovery",), "bond_recovery: must be a number"),
            (("closeout", "recovery_investor"), "closeout.recovery_investor: must be a number"),
            (
                ("closeout", "recovery_counterparty"),
                "closeout.recovery_counterparty: must be a number",
            ),
        ],
        ids=["curve_t", "curve_value", "flow_t", "flow_amount", "maturity", "bond_recovery",
             "recovery_investor", "recovery_counterparty"],
    )
    def test_numeric_leaf_must_be_a_json_number(self, tmp_path, capsys, path, diagnostic, bad):
        doc = base_config()
        doc["market"]["risk_free"] = [{"t": 0.0, "value": 0.01}]
        *parents, leaf = path
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = bad
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--mc", "--out", str(out)]):
            assert main([*command, str(config)]) == EXIT_CONFIG
            err = json.loads(capsys.readouterr().err)
            assert err["diagnostics"] == [diagnostic]
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert "cannot read config" in err["detail"]

    def test_collects_all_diagnostics(self, tmp_path, capsys):
        doc = base_config()
        del doc["market"]
        doc["regime"] = "hedged"
        doc["bond_recovery"] = 2.0
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        joined = "\n".join(err["diagnostics"])
        assert "market.risk_free" in joined
        assert "market.collateral" in joined
        assert "regime" in joined
        assert "bond_recovery" in joined

    def test_rejects_nan_flow_time(self, tmp_path, capsys):
        doc = base_config(
            schedule={
                "flows": [
                    {"t": 1.0, "amount": 1.0},
                    {"t": float("nan"), "amount": 2.0},
                    {"t": 3.0, "amount": 5.0},
                ]
            }
        )
        path = write_config(tmp_path, doc)
        assert "NaN" in path.read_text()
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert any(d.startswith("schedule:") and "finite" in d for d in err["diagnostics"])

    @pytest.mark.parametrize(
        "key, name",
        [
            ("profiles", "sub/p.csv"),
            ("summary", "../s.csv"),
            ("profiles", "/tmp/p.csv"),
            ("summary", ""),
            ("profiles", ".."),
            ("summary", "."),
            ("profiles", 5),
        ],
    )
    def test_output_names_stay_inside_out_dir(self, tmp_path, capsys, key, name):
        output = {"profiles": "p.csv", "summary": "s.csv", key: name}
        path = write_config(tmp_path, base_config(output=output))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert [d for d in err["diagnostics"] if d.startswith(f"output.{key}:")]
        # run refuses the same config before writing anything
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_output_names_must_differ(self, tmp_path, capsys):
        output = {"profiles": "same.csv", "summary": "same.csv"}
        path = write_config(tmp_path, base_config(output=output))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert any(
            d.startswith("output.summary:") and "output.profiles" in d
            for d in err["diagnostics"]
        )

    def test_mc_paths_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # the simulators' memory is flat in the path count, so validate
        # sets no bound on it; it parses the config and runs nothing
        def must_not_run(*args, **kwargs):
            raise AssertionError("validate ran the scenario")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        doc = base_config(numerics={"panels_per_year": 64, "mc_paths": 2**60, "seed": 7})
        path = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            assert main(["validate", str(path)]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().out == "config ok\n"

    def test_lambda_bar_whose_discount_overflows(self, tmp_path, capsys):
        # r_bar = r_F - (1 - R) lambda_bar: the discount factor
        # exp(-int r_bar) of 1e300 over a year overflows, and run used to
        # write v0 = 1.9e296 with exit 0
        doc = base_config(sweep={"lambda_bar": [0.0, 1e300, 0.02]})
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        (diag,) = err["diagnostics"]
        assert diag == "sweep.lambda_bar[1]: non-finite discounted closeout at t = 1.0"
        # the simulator's discount exp(-int_0^t r_bar) = exp((1 - R) int_0^t
        # lambda_bar - int_0^t r_F) must stay finite up to maturity, with
        # r_F = 0.022 here
        for lam, code in ((709.0 / 0.6, EXIT_OK), (710.0 / 0.6, EXIT_CONFIG)):
            doc = base_config(sweep={"lambda_bar": [lam]})
            assert main(["validate", str(write_config(tmp_path, doc))]) == code
        # the largest exponent can come before maturity: 709.99 at 0.5,
        # then a funding rate of 10 brings it down to 704.99 at 1
        doc = base_config(
            market={"risk_free": [{"t": 0.0, "value": 0.01}, {"t": 0.5, "value": 10.0}],
                    "collateral": 0.005},
            sweep={"lambda_bar": [[{"t": 0.0, "value": 2 * 710.0 / 0.6},
                                   {"t": 0.5, "value": 0.0}]]},
        )
        assert main(["validate", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
        # a long trade whose funding rate outgrows (1 - R) lambda_bar
        doc = base_config(sweep={"lambda_bar": [0.02]})
        doc["schedule"]["maturity"] = 1e5
        assert main(["validate", str(write_config(tmp_path, doc))]) == EXIT_OK
        # no overflow without a bond loss: r_bar = r_F
        doc = base_config(bond_recovery=1.0, sweep={"lambda_bar": [710.0 / 0.6]})
        assert main(["validate", str(write_config(tmp_path, doc))]) == EXIT_OK

    @pytest.mark.parametrize(
        "where, value",
        [
            (section, 5)
            for section in (
                "market", "credit", "closeout", "schedule", "sweep", "numerics", "output"
            )
        ]
        + [("sweep.lambda_bar", 0.02), ("sweep.theta", 1.0)],
    )
    def test_wrong_shapes_named_by_dotted_key(self, tmp_path, capsys, where, value):
        doc = base_config()
        if where == "sweep.theta":  # read by the correlated regime only
            doc.update(regime="correlated", bond_recovery=0.0, sweep={})
            doc["credit"]["counterparty"] = 0.03
        section, _, key = where.partition(".")
        if key:
            doc[section][key] = value
        else:
            doc[section] = value
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        diags = json.loads(capsys.readouterr().err)["diagnostics"]
        assert any(d.startswith(f"{where}: must be") for d in diags), diags

    def test_unknown_keys_named_by_dotted_path(self, tmp_path, capsys):
        doc = base_config(regmie="independent")
        doc["numerics"]["panel_per_year"] = 64
        doc["market"]["risk_free"] = [{"t": 0.0, "value": 0.01, "vlaue": 0.02}]
        doc["schedule"]["flows"][0]["when"] = 1.0
        doc["sweep"]["lambda_bar"] = [[{"t": 0.0, "value": 0.02, "unit": "bp"}]]
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        diags = json.loads(capsys.readouterr().err)["diagnostics"]
        for where in (
            "regmie",
            "numerics.panel_per_year",
            "market.risk_free[0].vlaue",
            "schedule.flows[0].when",
            "sweep.lambda_bar[0][0].unit",
        ):
            assert f"{where}: unknown key" in diags
        assert len(diags) == 5

    def test_shipped_configs_validate(self, capsys):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            assert main(["validate", str(path)]) == EXIT_OK, path
            assert "config ok" in capsys.readouterr().out

    def test_panel_grid_beyond_physical_memory(self, tmp_path, capsys):
        # checked by arithmetic only: nothing of this size is allocated
        doc = base_config()
        doc["schedule"]["maturity"] = 1e7
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        (diag,) = json.loads(capsys.readouterr().err)["diagnostics"]
        assert diag.startswith("numerics.panels_per_year: 64 panels per year")
        assert str(cli._physical_memory()) in diag

    def test_panel_grid_bytes(self, tmp_path, monkeypatch):
        doc = base_config()
        doc["market"]["risk_free"] = [{"t": 0.0, "value": 0.01}, {"t": 0.5, "value": 0.02}]
        cfg = load_config(write_config(tmp_path, doc))
        # 64 uniform panels + 1 edge, 1 flow date, 2 + 1 + 1 + 1 + 1 curve nodes
        points = 64 + 1 + 1 + 6
        # one row of the point with the longest label: its text, a str per
        # value, the kept t and v_X text of two points, and list slots
        row_bytes = len("riskfree_cpty,0.02,,,") + 6 * 25 + 6 * (49 + 25) + 4 * 25 + 128
        need = points * (256 + row_bytes)
        assert cli._panel_grid_bytes(cfg) == need
        monkeypatch.setattr(cli, "_physical_memory", lambda: need)
        assert cli._panel_memory_problem(cfg) is None
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        assert str(need) in cli._panel_memory_problem(cfg)

    @pytest.mark.parametrize("sweep", ["correlated", "piecewise"])
    def test_run_peak_under_panel_grid_bytes(self, tmp_path, sweep):
        # at 4096 panels/yr a run's heap peak is its panel grids and the
        # text of one point: correlated_mixed's three points, and a
        # piecewise sweep whose grids change between points, with a point
        # repeated so that one takes the t and v_X text the last one kept.
        # The first call warms one-time caches.
        if sweep == "correlated":
            doc = json.loads((CONFIG_DIR / "correlated_mixed.json").read_text())
        else:
            doc = json.loads((CONFIG_DIR / "independent_mixed.json").read_text())
            nodes = [{"t": 0.0, "value": 0.01}, {"t": 1.3, "value": 0.0123456789012345}]
            doc["sweep"]["lambda_bar"] = [0.02, nodes, nodes, nodes[:1]]
        doc["numerics"]["panels_per_year"] = 4096
        cfg = load_config(write_config(tmp_path, doc))
        run_scenario(cfg, out_dir=tmp_path / "out", echo=lambda _: None)
        tracemalloc.start()
        try:
            run_scenario(cfg, out_dir=tmp_path / "out", echo=lambda _: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cli._panel_grid_bytes(cfg)

    @pytest.mark.parametrize(
        "investor, counterparty, theta, code",
        [
            # theta * H_C(1) = 0.03 theta: exp(theta * H_C) overflows
            (0.02, 0.03, 23650.0, EXIT_OK),
            (0.02, 0.03, 23700.0, EXIT_CONFIG),
            # theta * H_C(1) = 709.2 at 177.3: lam_C * exp(theta * H_C) overflows first
            (0.02, 4.0, 177.0, EXIT_OK),
            (0.02, 4.0, 177.3, EXIT_CONFIG),
            # the peak is at the left limit of a node before maturity:
            # lam_C = 4 on [0, 0.5), then 0
            (0.02, [{"t": 0.0, "value": 4.0}, {"t": 0.5, "value": 0.0}], 354.0, EXIT_OK),
            (0.02, [{"t": 0.0, "value": 4.0}, {"t": 0.5, "value": 0.0}], 354.6, EXIT_CONFIG),
            # only S = exp(theta H_I) + exp(theta H_C) - 1 overflows: 2 exp(709.5)
            (0.03, 0.03, 23600.0, EXIT_OK),
            (0.03, 0.03, 23650.0, EXIT_CONFIG),
        ],
    )
    def test_theta_whose_copula_terms_overflow(
        self, tmp_path, capsys, investor, counterparty, theta, code
    ):
        doc = json.loads((CONFIG_DIR / "correlated_bond.json").read_text())
        doc["credit"] = {"investor": investor, "counterparty": counterparty}
        doc["sweep"]["theta"] = [0.0, theta]
        doc["numerics"].update(panels_per_year=64, mc_paths=4096)
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--mc", "--out", str(out)]):
            assert main([*command, str(path)]) == code
            err = capsys.readouterr().err
            if code == EXIT_CONFIG:
                # theta = 0 is the product law: never rejected
                (diag,) = json.loads(err)["diagnostics"]
                assert diag.startswith("sweep.theta[1]:")
            else:
                assert err == ""
        assert out.exists() == (code == EXIT_OK)

    @pytest.mark.parametrize(
        "doc, diagnostics, closed_forms",
        [
            # the simulator's discount exp(-int r_bar) overflows; its check
            # names the end of the segment where it does
            (
                base_config(sweep={"lambda_bar": [0.0, 1e300, 0.02]}),
                ["sweep.lambda_bar[1]: non-finite discounted closeout at t = 1.0"],
                None,
            ),
            (
                base_config(market={"risk_free": -1e6, "collateral": 0.005}),
                [f"sweep.lambda_bar[{i}]: non-finite discounted closeout at t = 1.0"
                 for i in (0, 1)],
                None,
            ),
            # exp(theta * H_C) = exp(711 t) overflows
            (
                shipped_config("correlated_bond", theta=[0.0, 23700.0]),
                ["sweep.theta[1]: non-finite alpha coefficient at t = 0.998287922494211"],
                [math.log(DBL_MAX) / 711.0],
            ),
            # the counterparty's cumulative hazard 1e307 t overflows
            (
                shipped_config("independent_mixed", counterparty=1e307, flows=[100.0]),
                [f"sweep.lambda_bar[{i}]: non-finite integrated alpha at t = 17.97693134862316"
                 for i in (0, 1)],
                [DBL_MAX / 1e307] * 2,
            ),
            # beta(0) = -(1 - R_C) 1e308 x(0) overflows at the first edge,
            # which has no earlier edge to bisect from
            (
                shipped_config("independent_mixed", counterparty=1e308, flows=[1.0], amount=10.0),
                [f"sweep.lambda_bar[{i}]: non-finite beta coefficient at t = 0.0"
                 for i in (0, 1)],
                None,
            ),
            # theta = 0: the hazard, as above; theta > 0: the first-to-default
            # intensity 1e307 exp(theta 1e307 t) / S
            (
                shipped_config("correlated_mixed", counterparty=1e307, flows=[100.0]),
                ["sweep.theta[0]: non-finite alpha coefficient at t = 17.97693134862316",
                 "sweep.theta[1]: non-finite alpha coefficient at t = 2.889089344211972e-299",
                 "sweep.theta[2]: non-finite alpha coefficient at t = 2.8890893442119722e-307"],
                [DBL_MAX / 1e307]
                + [math.log(DBL_MAX / 1e307) / (theta * 1e307) for theta in (1e-8, 1.0)],
            ),
            # the integral of a curve overflows at one of its nodes
            (
                shipped_config(
                    "correlated_bond",
                    counterparty=[{"t": 0.0, "value": 2.0**1023}, {"t": 2.0, "value": 0.0}],
                    flows=[1.0],
                    theta=[0.0],
                ),
                ["credit.counterparty: curve integral overflows a double at t = 2.0"],
                None,
            ),
            # JSON integers past the range of a double, one field each
            *(
                (doc, [f"{key}: int too large to convert to float"], None)
                for _, key, doc in overflowing_integer_docs()
            ),
            # names run could not write: open() rejects a NUL byte, and the
            # temporary name of a 244-byte name passes 255 bytes
            (
                base_config(output={"profiles": "p\0.csv"}),
                ["output.profiles: embedded null byte"],
                None,
            ),
            (
                base_config(output={"summary": "s" * 244}),
                ["output.summary: must be at most 237 bytes, so that its temporary name fits 255"],
                None,
            ),
        ],
        ids=["lambda_bar", "risk_free", "theta", "independent_1e307", "beta_at_0", "correlated_1e307",
             "node_integral", *(f"overflow_{name}" for name, _, _ in overflowing_integer_docs()),
             "output_nul", "output_244_bytes"],
    )
    def test_rejected_by_both_commands(self, tmp_path, capsys, doc, diagnostics, closed_forms):
        # validate builds what run builds, so both reject the config with
        # the same diagnostics: the point, the quantity and the time, which
        # for a coefficient is where it breaks
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--mc", "--out", str(out)]):
            assert main([*command, str(path)]) == EXIT_CONFIG
            assert json.loads(capsys.readouterr().err)["diagnostics"] == diagnostics
        assert not out.exists()
        for diag, t in zip(diagnostics, closed_forms or ()):
            assert float(diag.rsplit("at t = ", 1)[1]) == pytest.approx(t, rel=1e-12)

    @pytest.mark.parametrize("seed", [2**128 - 1, 2**200])
    def test_seeds_past_128_bits(self, tmp_path, capsys, seed):
        # sweep point i simulates with seed + i; SeedSequence takes any
        # non-negative integer, so no seed is too large
        doc = base_config(numerics={"panels_per_year": 8, "mc_paths": 16, "seed": seed})
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--mc", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[9] for row in summary[1:]] == [str(seed), str(seed + 1)]


class TestConfigParsing:
    def test_round_trip_through_canonical_json(self, tmp_path):
        doc = base_config(
            market={
                "risk_free": [{"t": 0.0, "value": 0.01}, {"t": 2.0, "value": 0.03}],
                "collateral": 0.005,
            }
        )
        cfg = load_config(write_config(tmp_path, doc))
        again = load_config(write_config(tmp_path, cfg.to_json_dict(), "again.json"))
        assert again == cfg

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_round_trip(self, tmp_path, path):
        cfg = load_config(path)
        doc = cfg.to_json_dict()
        assert ("counterparty" in doc["credit"]) == (cfg.counterparty is not None)
        assert list(doc["sweep"]) == ["theta" if cfg.regime == "correlated" else "lambda_bar"]
        assert load_config(write_config(tmp_path, doc)) == cfg

    def test_root_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, [base_config()]))
        assert info.value.diagnostics == ["config root must be a JSON object"]

    @pytest.mark.parametrize(
        "doc, diagnostics",
        [
            (
                base_config(credit={"investor": -0.01}),
                ["credit.investor: default intensity must be non-negative"],
            ),
            (
                base_config(closeout={"recovery_investor": 1.5, "recovery_counterparty": 0.4}),
                ["closeout.recovery_investor: recovery out of range [0, 1]"],
            ),
            (
                correlated_config(sweep={"theta": [0.0], "lambda_bar": [0.02]}),
                ["sweep.lambda_bar: not used by the correlated regime"],
            ),
            (
                correlated_config(sweep={"theta": []}),
                ["sweep.theta: the correlated regime needs at least one theta"],
            ),
            (
                correlated_config(sweep={"theta": [0.5, -1.0, True, "1.0"]}),
                ["sweep.theta[1]: dependence parameter theta must be finite and >= 0",
                 "sweep.theta[2]: must be a number",
                 "sweep.theta[3]: must be a number"],
            ),
            # the regime's other sweep key may only be absent, null or []
            *(
                (base_config(sweep={"lambda_bar": [0.02], "theta": falsy}),
                 ["sweep.theta: must be a list"])
                for falsy in FALSY.values()
            ),
            *(
                (correlated_config(sweep={"theta": [0.0], "lambda_bar": falsy}),
                 ["sweep.lambda_bar: must be a list"])
                for falsy in FALSY.values()
            ),
            # names that fail to read are not compared
            (
                base_config(output={"profiles": 5, "summary": 5}),
                [f"output.{key}: must be a plain file name inside --out (non-empty, no directory "
                 "part, not '.' or '..')" for key in ("profiles", "summary")],
            ),
        ],
        ids=["negative_intensity", "closeout_recovery", "lambda_bar_under_correlated",
             "empty_theta", "invalid_theta", *(f"theta_{name}_under_riskfree_cpty" for name in FALSY),
             *(f"lambda_bar_{name}_under_correlated" for name in FALSY), "two_bad_output_names"],
    )
    def test_rejected_field_named_by_key(self, tmp_path, doc, diagnostics):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, doc))
        assert info.value.diagnostics == diagnostics

    @pytest.mark.parametrize("empty", [None, []])
    def test_unused_sweep_key_absent_null_or_empty(self, tmp_path, empty):
        for doc, unused in (
            (base_config(sweep={"lambda_bar": [0.02]}), "theta"),
            (correlated_config(sweep={"theta": [1.0]}), "lambda_bar"),
        ):
            cfg = load_config(write_config(tmp_path, doc))
            doc["sweep"][unused] = empty
            assert load_config(write_config(tmp_path, doc)) == cfg

    def test_null_leaf_takes_its_default(self, tmp_path):
        doc = base_config(bond_recovery=None, closeout={"recovery_investor": None})
        doc["numerics"] = {"panels_per_year": None, "mc_paths": None, "seed": None}
        doc["output"] = {"profiles": None}
        doc["schedule"]["maturity"] = None
        cfg = load_config(write_config(tmp_path, doc))
        for key in ("bond_recovery", "closeout", "numerics", "output"):
            del doc[key]
        del doc["schedule"]["maturity"]
        assert cfg == load_config(write_config(tmp_path, doc))
        assert cfg.bond_recovery == 0.0 and cfg.panels_per_year == 512

    def test_readme_config_example_names_every_leaf(self):
        # the README's schema section shows one config, which validates and
        # holds every leaf of cli._SCHEMA but the two its prose names
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config schema\n", 1)[1].split("\n### ", 1)[0]
        example, prose = re.fullmatch(r"\s*```json\n(.*?)```(.*)", section, re.S).groups()
        doc = json.loads(example)
        cli._parse_config_dict(doc)
        missing = {leaf for leaf in schema_leaves(cli._SCHEMA) if not holds(doc, leaf)}
        assert missing == {"schedule.maturity", "sweep.theta"}
        for leaf in missing:
            assert f"`{leaf}`" in prose

    def test_scalar_curve_becomes_flat(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.market.risk_free.value(10.0) == 0.01

    def test_defaults(self, tmp_path):
        doc = base_config()
        del doc["numerics"]
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.panels_per_year == 512
        assert cfg.mc_paths == 100_000
        assert cfg.seed == 0
        assert cfg.profiles_out == "profiles.csv"
        assert cfg.summary_out == "summary.csv"

    def test_theta_sweep_rejected_outside_correlated(self, tmp_path):
        doc = base_config()
        doc["sweep"]["theta"] = [1.0]
        with pytest.raises(ConfigError, match="sweep.theta"):
            load_config(write_config(tmp_path, doc))

    def test_correlated_requirements(self, tmp_path):
        doc = base_config(regime="correlated", sweep={"theta": [0.0, 1.0]})
        # counterparty missing and bond recovery nonzero: both reported
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, doc))
        msgs = info.value.diagnostics
        assert any("credit.counterparty" in m for m in msgs)
        assert any("zero bond recovery" in m for m in msgs)

    def test_correlated_good_config(self, tmp_path):
        doc = base_config(
            regime="correlated",
            sweep={"theta": [0.0, 1.0]},
            bond_recovery=0.0,
        )
        doc["credit"]["counterparty"] = 0.03
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.theta_sweep == (0.0, 1.0)
        assert cfg.lambda_bar_sweep == ()

    def test_independent_needs_counterparty(self, tmp_path):
        doc = base_config(regime="independent")
        with pytest.raises(ConfigError, match="credit.counterparty"):
            load_config(write_config(tmp_path, doc))

    def test_negative_lambda_bar_rejected(self, tmp_path):
        doc = base_config(sweep={"lambda_bar": [-0.01]})
        with pytest.raises(ConfigError, match="non-negative"):
            load_config(write_config(tmp_path, doc))

    def test_piecewise_lambda_bar_accepted(self, tmp_path):
        doc = base_config(
            sweep={"lambda_bar": [[{"t": 0.0, "value": 0.0}, {"t": 1.0, "value": 0.02}]]}
        )
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.lambda_bar_sweep[0].value(2.0) == 0.02

    def test_numerics_type_checks(self, tmp_path):
        doc = base_config(
            numerics={"panels_per_year": 0, "mc_paths": 1, "seed": True}
        )
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, doc))
        joined = "\n".join(info.value.diagnostics)
        assert "panels_per_year" in joined
        assert "mc_paths" in joined
        assert "seed" in joined

    def test_empty_sweep_rejected(self, tmp_path):
        doc = base_config(sweep={})
        with pytest.raises(ConfigError, match="lambda_bar"):
            load_config(write_config(tmp_path, doc))


class TestRun:
    def test_writes_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("u0=") == 2

        profiles = (tmp_path / "out" / "profiles.csv").read_text().splitlines()
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert profiles[0] == PROFILE_COLUMNS
        assert summary[0] == SUMMARY_COLUMNS
        # two sweep points, 65 grid rows each
        assert len(profiles) == 1 + 2 * 65
        assert len(summary) == 3
        # no Monte Carlo columns without --mc
        assert profiles[1].split(",")[9] == ""
        assert summary[1].split(",")[6] == ""

    def test_summary_values_match_engine(self, tmp_path, flat_market, investor, closeout):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path)
        main(["run", str(path), "--out", str(tmp_path / "out")])
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        for row, lam in zip(rows, (0.0, 0.02)):
            fields = row.split(",")
            prof = adjustment_independent(
                flat_market, investor, None, 0.4, lam, cfg.schedule, closeout,
                panels_per_year=64,
            )
            # repr round trip: exact equality after parsing
            assert float(fields[4]) == prof.adjustment()
            assert float(fields[5]) == prof.value()

    def test_mc_columns_on_first_profile_row_only(self, tmp_path):
        path = write_config(tmp_path, base_config(sweep={"lambda_bar": [0.02]}))
        main(["run", str(path), "--mc", "--out", str(tmp_path / "out")])
        rows = (tmp_path / "out" / "profiles.csv").read_text().splitlines()
        first = rows[1].split(",")
        assert first[3] == "0.0"
        assert first[9] != "" and first[10] != ""
        for row in rows[2:]:
            fields = row.split(",")
            assert fields[9] == "" and fields[10] == ""

    def test_mc_seed_offsets_per_sweep_point(self, tmp_path, flat_market, investor, closeout):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path)
        main(["run", str(path), "--mc", "--out", str(tmp_path / "out")])
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        for i, (row, lam) in enumerate(zip(rows, (0.0, 0.02))):
            fields = row.split(",")
            est = mc_value_independent(
                flat_market, investor, None, 0.4, lam, cfg.schedule, closeout, 4000, 7 + i
            )
            assert fields[6] == repr(est.mean)
            assert fields[7] == repr(est.std_error)
            assert fields[8] == "4000"
            assert fields[9] == str(7 + i)

    def test_payoffs_whose_squares_overflow(self, tmp_path, capsys):
        # no path defaults, and each is paid exp(-int r_bar) = exp(399.988)
        # ~ 5.2e173, whose square overflows: the simulation reduces the
        # payoffs scaled by a power of two.  The solver's Gauss panels
        # are off by about (h alpha)**6 / 2016000 relative, 6e-13 at
        # 4096 a year
        doc = base_config(
            market={"risk_free": -400.0, "collateral": 0.005},
            sweep={"lambda_bar": [0.0]},
            numerics={"panels_per_year": 4096, "mc_paths": 4000, "seed": 7},
        )
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--mc", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        (row,) = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        fields = row.split(",")
        exact = math.exp(400.0 - 0.6 * 0.02)
        assert float(fields[6]) == pytest.approx(exact, rel=1e-12)
        assert float(fields[5]) == pytest.approx(exact, rel=1e-7)

    def test_byte_deterministic_reruns(self, tmp_path):
        path = write_config(tmp_path, base_config())
        main(["run", str(path), "--mc", "--out", str(tmp_path / "a")])
        main(["run", str(path), "--mc", "--out", str(tmp_path / "b")])
        for name in ("profiles.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_panels_override(self, tmp_path):
        path = write_config(tmp_path, base_config(sweep={"lambda_bar": [0.0]}))
        main(["run", str(path), "--out", str(tmp_path / "out"), "--panels", "8"])
        rows = (tmp_path / "out" / "profiles.csv").read_text().splitlines()
        assert len(rows) == 1 + 9

    def test_panels_override_writes_the_bytes_of_the_config_value(self, tmp_path, capsys):
        doc = base_config()
        flagged = write_config(tmp_path, doc, "flagged.json")
        doc["numerics"]["panels_per_year"] = 8
        configured = write_config(tmp_path, doc, "configured.json")
        run = ["run", "--mc", "--out"]
        assert main([*run, str(tmp_path / "a"), "--panels", "8", str(flagged)]) == EXIT_OK
        echo = capsys.readouterr().out
        assert main([*run, str(tmp_path / "b"), str(configured)]) == EXIT_OK
        assert capsys.readouterr().out == echo
        for name in ("profiles.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_panels_override_beyond_physical_memory(self, tmp_path, capsys):
        # checked by arithmetic only: nothing of this size is allocated
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--panels", str(10**15)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["detail"].startswith(f"--panels: {10**15} panels per year")
        assert not out.exists()

    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_not_a_directory(self, tmp_path, capsys, under_file):
        path = write_config(tmp_path, base_config())
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if under_file else taken
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "config"
        assert err["detail"].startswith("--out: ")
        assert captured.out == ""  # refused before any solve
        assert taken.read_text() == ""

    def test_riskfree_ignores_a_listed_counterparty(self, tmp_path):
        doc = base_config()
        plain = write_config(tmp_path, doc, "plain.json")
        doc["credit"]["counterparty"] = 0.05
        listed = write_config(tmp_path, doc, "listed.json")
        assert main(["run", str(plain), "--mc", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", str(listed), "--mc", "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("profiles.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_profile_rows_match_naive_formatting(self, tmp_path, monkeypatch):
        values = np.array(
            [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 0.1, -1.0 / 3.0, 1e16, 123456.789, 2.0**60]
        )
        n = len(values)
        profile = AdjustmentProfile(
            grid=np.linspace(0.0, 1.0, n),
            v_x=values,
            u=values[::-1].copy(),
            v=np.roll(values, 3),
            alpha=-values,
            beta=values * 0.5,
        )
        naive = naive_rows(profile, "1.5", "0.25")
        assert point_texts(tmp_path, monkeypatch, [profile], with_mc=True) == ["".join(naive)]
        assert "-0.0" in naive[1] and "5e-324" in naive[2]

    def test_bad_panels_override(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["run", str(path), "--panels", "0"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        # read by the config's own numerics.panels_per_year reader
        assert err["detail"] == "--panels: must be an integer >= 1"

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(regime="nope"))
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["diagnostics"]

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # every set-up value is finite, so the config validates, but the
        # panel propagation overflows; the run must fail loudly with the
        # numeric exit code, not write NaNs
        path = write_config(tmp_path, propagation_overflow_doc())
        assert main(["validate", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        # the detail names the point and the time at which propagation broke
        assert re.fullmatch(
            r"sweep\.theta\[0\]: adjustment overflowed during panel propagation at t = 0\.\d+",
            err["detail"],
        ), err["detail"]
        assert not (tmp_path / "out" / "profiles.csv").exists()

    def test_numeric_failure_stderr_is_one_json_document(self, tmp_path):
        # no RuntimeWarning may precede the JSON error (a child process,
        # because this suite turns warnings into errors)
        path = write_config(tmp_path, propagation_overflow_doc())
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "valadj.cli", "run", "--mc", "--out", str(out), str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert json.loads(proc.stderr)["error"] == "numeric"
        assert not list(out.glob("*.csv"))

    def test_correlated_run(self, tmp_path):
        doc = base_config(
            regime="correlated",
            bond_recovery=0.0,
            sweep={"theta": [0.0, 1.0]},
            schedule={"flows": [{"t": 1.0, "amount": 1.0}]},
        )
        doc["credit"]["counterparty"] = 0.03
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["0.0", "1.0"]
        assert all(r.split(",")[1] == "0.0" for r in rows)

    def test_failed_write_keeps_the_old_reports(self, tmp_path, monkeypatch):
        # each point is written to both temporary files as it is done, and
        # neither is renamed before the last point: a failed write of
        # either one leaves both old reports and no temporary file
        tear_each_report(tmp_path, monkeypatch, after_points=0)

    def test_write_torn_after_the_first_point_keeps_the_old_reports(self, tmp_path, monkeypatch):
        tear_each_report(tmp_path, monkeypatch, after_points=1)

    def test_numeric_failure_after_the_first_point_keeps_the_old_reports(self, tmp_path, monkeypatch):
        doc = base_config(sweep={"lambda_bar": [0.0, 0.02]})
        cfg = load_config(write_config(tmp_path, doc))
        out = tmp_path / "out"
        out.mkdir()
        (out / "profiles.csv").write_text("old profiles\n")
        (out / "summary.csv").write_text("old summary\n")
        solve = cli.adjustment_independent
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise cli.InvariantError("non-finite u at t = 0.5")
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "adjustment_independent", failing)
        with pytest.raises(cli.InvariantError, match=r"sweep\.lambda_bar\[1\]: non-finite"):
            run_scenario(cfg, out_dir=out, echo=lambda _: None)
        assert (out / "profiles.csv").read_text() == "old profiles\n"
        assert (out / "summary.csv").read_text() == "old summary\n"
        assert sorted(os.listdir(out)) == ["profiles.csv", "summary.csv"]

    def test_write_failure_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link", src, None, dst)

        monkeypatch.setattr(os, "replace", refuse)
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "output"
        assert err["detail"].startswith(f"cannot write {out / 'profiles.csv'}: [Errno {errno.EXDEV}]")
        assert os.listdir(out) == []

    def test_reports_take_the_umask_mode(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        umask = os.umask(0o027)
        try:
            files = run_scenario(cfg, out_dir=tmp_path / "out", echo=lambda _: None)
        finally:
            os.umask(umask)
        assert [f.stat().st_mode & 0o777 for f in files] == [0o640, 0o640]

    def test_run_scenario_custom_filenames(self, tmp_path):
        doc = base_config(output={"profiles": "p.csv", "summary": "s.csv"})
        cfg = load_config(write_config(tmp_path, doc))
        notes = []
        p, s = run_scenario(cfg, out_dir=tmp_path / "out", echo=notes.append)
        assert p.name == "p.csv" and p.exists()
        assert s.name == "s.csv" and s.exists()
        assert len(notes) == 2


def tear_each_report(tmp_path, monkeypatch, after_points):
    """Run a two-point config with each report in turn torn after
    ``after_points`` points: ``run_scenario`` raises, naming the torn
    report, and the old reports remain with no temporary file."""

    class Torn:
        """A file that takes the header and ``after_points`` points, then
        half of what is written next, and fails."""

        def __init__(self, f):
            self.f = f
            self.writes = 0

        def close(self):
            self.f.close()

        def write(self, text):
            self.writes += 1
            if self.writes <= 1 + after_points:
                return self.f.write(text)
            self.f.write(text[: len(text) // 2])
            raise OSError("no space left on device")

    cfg = load_config(write_config(tmp_path, base_config()))
    for torn, name in enumerate(("profiles.csv", "summary.csv")):
        out = tmp_path / f"out{torn}"
        out.mkdir()
        (out / "profiles.csv").write_text("old profiles\n")
        (out / "summary.csv").write_text("old summary\n")
        opened = []

        def opening(path, mode):
            opened.append(path)
            f = open(path, mode)
            return Torn(f) if len(opened) == torn + 1 else f

        monkeypatch.setattr(cli, "open", opening, raising=False)
        notes = []
        match = f"cannot write {re.escape(str(out / name))}: no space"
        with pytest.raises(OSError, match=match):
            run_scenario(cfg, out_dir=out, echo=notes.append)
        assert len(opened) == 2
        assert len(notes) == after_points  # the points done before the tear
        assert (out / "profiles.csv").read_text() == "old profiles\n"
        assert (out / "summary.csv").read_text() == "old summary\n"
        assert sorted(os.listdir(out)) == ["profiles.csv", "summary.csv"]


def naive_rows(profile, mc_mean="", mc_err="", prefix=("riskfree_cpty", "0.02", "")):
    """A point's profile rows, each value formatted by its own ``repr``."""
    columns = (profile.grid, profile.v_x, profile.u, profile.v, profile.alpha, profile.beta)
    rows = []
    for j in range(len(profile.grid)):
        cells = [repr(float(a[j])) for a in columns]
        mc = [mc_mean, mc_err] if j == 0 else ["", ""]
        rows.append(",".join([*prefix, *cells, *mc]) + "\n")
    return rows


def point_texts(tmp_path, monkeypatch, profiles, with_mc=False):
    """The profile texts ``cli._point`` gives for ``profiles``, solved in
    turn at the points of a riskfree_cpty sweep of ``lambda_bar = 0.02``,
    each taking what the point before it kept, as ``run_scenario`` does."""
    doc = base_config(sweep={"lambda_bar": [0.02] * len(profiles)})
    cfg = load_config(write_config(tmp_path, doc, "points.json"))
    solved = iter(profiles)
    monkeypatch.setattr(cli, "adjustment_independent", lambda *a, **k: next(solved))
    monkeypatch.setattr(cli, "mc_value_independent", lambda *a: McEstimate(1.5, 0.25, 4000, 7))
    texts, kept = [], None
    for i, point in enumerate(cli._sweep_points(cfg)):
        text, _, _, kept = cli._point(cfg, i, point, with_mc, kept)
        texts.append(text)
    return texts


def profile_of(**columns):
    """A profile of the given columns; the others count up from 0.5."""
    n = len(next(iter(columns.values())))
    filler = np.arange(n) + 0.5
    names = ("grid", "v_x", "u", "v", "alpha", "beta")
    return AdjustmentProfile(
        **{name: np.asarray(columns.get(name, filler + k), dtype=float) for k, name in enumerate(names)}
    )


# values whose text a match by ``==`` or by length would confuse: signed
# zeros, the smallest subnormal and one-ulp neighbours
TEXT_POOL = (
    0.0, -0.0, 5e-324, -5e-324, 0.1, float(np.nextafter(0.1, 1.0)), float(np.nextafter(0.1, 0.0)),
    1.0, float(np.nextafter(1.0, 2.0)), -1.0 / 3.0,
)
TEXT_ROWS = (8, 12, 16)


def twin(x):
    """``x`` with its sign flipped if it is a zero, so ``==`` to it with
    other bits; else the value one ulp above it."""
    return -x if x == 0.0 else float(np.nextafter(x, math.inf))


@st.composite
def text_columns(draw, n):
    """A column of ``n`` values from ``TEXT_POOL`` in one run, in all
    distinct runs, or in just under, at or just over ``n / 4`` runs of
    bitwise-equal values, where a column starts to be formatted per run."""
    runs = draw(st.sampled_from([1, n // 4 - 1, n // 4, n // 4 + 1, n]))
    first = draw(st.integers(0, len(TEXT_POOL) - 1))
    steps = draw(st.lists(st.integers(1, len(TEXT_POOL) - 1), min_size=runs - 1, max_size=runs - 1))
    picks = np.cumsum([first, *steps]) % len(TEXT_POOL)  # adjacent runs differ
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=runs - 1, max_size=runs - 1))
    return np.repeat(np.array(TEXT_POOL)[picks], np.diff([0, *sorted(cuts), n]))


@st.composite
def text_profiles(draw):
    """1-4 profiles in sweep order.  Each point after the first has the
    ``t`` and ``v_X`` of the point before, or the same with one node of
    ``t`` or ``v_X`` changed to its twin, or columns of another length."""
    n = draw(st.sampled_from(TEXT_ROWS))
    t, v_x = draw(text_columns(n)), draw(text_columns(n))
    profiles = []
    for _ in range(draw(st.integers(1, 4))):
        t, v_x = t.copy(), v_x.copy()
        step = draw(st.sampled_from(["same", "one node", "length"])) if profiles else "same"
        if step == "one node":
            column = draw(st.sampled_from([t, v_x]))
            k = draw(st.integers(0, n - 1))
            column[k] = twin(column[k])
        elif step == "length":
            n = draw(st.sampled_from([m for m in TEXT_ROWS if m != n]))
            t, v_x = draw(text_columns(n)), draw(text_columns(n))
        others = {name: draw(text_columns(n)) for name in ("u", "v", "alpha", "beta")}
        profiles.append(AdjustmentProfile(grid=t, v_x=v_x, **others))
    return profiles


class TestPointText:
    """Each point's text equals naive formatting, whatever the points
    before it held: signed zeros, values one ulp apart, runs of equal
    values and grids that change between points."""

    def test_signed_zeros_side_by_side_and_across_points(self, tmp_path, monkeypatch):
        zeros = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0]
        flipped = [-z if k % 3 == 0 else z for k, z in enumerate(zeros)]
        first = profile_of(grid=np.linspace(0.0, 1.0, 8), v_x=zeros, alpha=zeros, beta=zeros)
        same = profile_of(grid=np.linspace(0.0, 1.0, 8), v_x=zeros, alpha=flipped, beta=zeros)
        other = profile_of(grid=np.linspace(0.0, 1.0, 8), v_x=flipped, alpha=zeros, beta=flipped)
        texts = point_texts(tmp_path, monkeypatch, [first, same, other])
        assert texts == ["".join(naive_rows(p)) for p in (first, same, other)]
        assert ",-0.0," in texts[2].splitlines()[0]

    def test_columns_one_ulp_apart(self, tmp_path, monkeypatch):
        grid = np.linspace(0.0, 2.0, 9)
        base = np.full(9, 0.1)
        up = base.copy()
        up[4] = np.nextafter(0.1, 1.0)  # one ulp above its neighbours
        down = np.nextafter(up, 0.0)
        profiles = [
            profile_of(grid=grid, v_x=base, alpha=up, beta=base),
            profile_of(grid=np.nextafter(grid, 3.0), v_x=up, alpha=base, beta=down),
            profile_of(grid=np.nextafter(grid, 3.0), v_x=down, alpha=down, beta=up),
        ]
        texts = point_texts(tmp_path, monkeypatch, profiles)
        assert texts == ["".join(naive_rows(p)) for p in profiles]

    @pytest.mark.parametrize(
        "column",
        [
            [1.5] * 6 + [0.25, 0.5, 0.75, 1.0],  # a run at the start
            [0.25, 0.5, 0.75, 1.0] + [1.5] * 6,  # at the end
            [1.5] * 3 + [0.25, 0.5, 0.75, 1.0] + [-1.5] * 3,  # at both
            [2.0] * 10,  # one run
            [0.25 * k for k in range(10)],  # no run
            [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0],  # pairs
        ],
    )
    def test_runs(self, tmp_path, monkeypatch, column):
        grid = np.linspace(0.0, 1.0, len(column))
        profiles = [
            profile_of(grid=grid, v_x=column, u=column, v=column, alpha=column, beta=column),
            profile_of(grid=grid, v_x=column[::-1], alpha=column[::-1]),
        ]
        texts = point_texts(tmp_path, monkeypatch, profiles, with_mc=True)
        assert texts == ["".join(naive_rows(p, "1.5", "0.25")) for p in profiles]

    def test_piecewise_sweep_changes_the_grid(self, tmp_path):
        # nodes off the uniform grid add a point; two sweep points with one
        # node each have grids of one length that differ at that node
        sweep = [
            0.02,
            [{"t": 0.0, "value": 0.01}, {"t": 0.3, "value": 0.03}],
            [{"t": 0.0, "value": 0.01}, {"t": 0.7, "value": 0.03}],
            [{"t": 0.0, "value": 0.01}, {"t": 0.3, "value": 0.03}, {"t": 0.7, "value": 0.0}],
            0.0,
            0.0,
        ]
        schedule = {"flows": [{"t": 0.5, "amount": -1.0}, {"t": 1.0, "amount": 2.0}]}
        doc = base_config(sweep={"lambda_bar": sweep}, schedule=schedule)
        cfg = load_config(write_config(tmp_path, doc))
        profiles_path, _ = run_scenario(cfg, out_dir=tmp_path / "out", echo=lambda _: None)
        naive = [PROFILE_COLUMNS + "\n"]
        lengths = []
        for _, label, _, args in cli._sweep_points(cfg):
            profile = adjustment_independent(*args, panels_per_year=64)
            naive += naive_rows(profile, prefix=("riskfree_cpty", label, ""))
            lengths.append(len(profile.grid))
        assert lengths == [65, 66, 66, 67, 65, 65]
        assert profiles_path.read_text() == "".join(naive)

    @settings(max_examples=300, deadline=None)
    @given(profiles=text_profiles(), with_mc=st.booleans())
    def test_point_texts_match_naive_formatting(self, profiles, with_mc):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            texts = point_texts(Path(tmp), mp, profiles, with_mc)
        mc = ("1.5", "0.25") if with_mc else ("", "")
        assert texts == ["".join(naive_rows(p, *mc)) for p in profiles]


def _curve_docs(values):
    """A flat curve, or nodes at 0 and at up to three times within 100 years."""
    nodes = st.tuples(
        values,
        st.lists(st.tuples(st.floats(0.01, 100.0), values), max_size=3, unique_by=lambda n: n[0]),
    ).map(lambda v: [{"t": t, "value": x} for t, x in [(0.0, v[0]), *sorted(v[1])]])
    return st.one_of(values, nodes)


@st.composite
def scenario_docs(draw):
    """Configs inside the schema: every regime, zero and piecewise curves,
    hazards up to 1e308, flows at maturity, theta up to 1e6 and at most
    4096 paths."""
    regime = draw(st.sampled_from(cli.REGIMES))
    rates = st.floats(-0.05, 0.2)
    hazards = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e308))
    maturity = draw(st.floats(0.05, 100.0))
    times = sorted(draw(st.lists(st.floats(0.01, maturity), max_size=3, unique=True)))
    if not times or (times[-1] < maturity and draw(st.booleans())):
        times.append(maturity)
    doc = {
        "market": {"risk_free": draw(_curve_docs(rates)), "collateral": draw(_curve_docs(rates))},
        "credit": {"investor": draw(_curve_docs(hazards))},
        "bond_recovery": 0.0 if regime == "correlated" else draw(st.floats(0.0, 1.0)),
        "closeout": {
            "recovery_investor": draw(st.floats(0.0, 1.0)),
            "recovery_counterparty": draw(st.floats(0.0, 1.0)),
        },
        "schedule": {"flows": [{"t": t, "amount": draw(st.floats(-2.0, 2.0))} for t in times]},
        "regime": regime,
        "numerics": {
            "panels_per_year": draw(st.integers(1, 64)),
            "mc_paths": draw(st.integers(2, 4096)),
            "seed": draw(st.integers(0, 2**200)),
        },
    }
    if draw(st.booleans()):
        doc["schedule"]["maturity"] = maturity
    if regime != "riskfree_cpty" or draw(st.booleans()):
        doc["credit"]["counterparty"] = draw(_curve_docs(hazards))
    if regime == "correlated":
        thetas = st.one_of(
            st.just(0.0), st.floats(0.0, 1e6), st.floats(-30.0, 6.0).map(lambda x: 10.0**x)
        )
        doc["sweep"] = {"theta": draw(st.lists(thetas, min_size=1, max_size=3))}
    else:
        doc["sweep"] = {"lambda_bar": draw(st.lists(_curve_docs(hazards), min_size=1, max_size=3))}
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=scenario_docs())
def test_validated_configs_run(doc):
    """Whatever ``validate`` accepts, ``run --mc`` executes: it exits 0, or
    3 when panel propagation overflows (the one step that ``validate``
    does not build), never with an uncaught exception (nor, under this
    suite's warning filter, with an overflow warning)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if main(["validate", str(path)]) != EXIT_OK:
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(
                    ["run", "--mc", "--panels", "8", "--out", str(Path(tmp) / "out"), str(path)]
                )
    assert code in (EXIT_OK, EXIT_NUMERIC), sink.getvalue() + err.getvalue()
    if code == EXIT_NUMERIC:
        assert "during panel propagation at t = " in json.loads(err.getvalue())["detail"]


@settings(max_examples=100, deadline=None)
@given(doc=scenario_docs())
def test_canonical_json_round_trips(doc):
    """Whatever ``load_config`` accepts, ``to_json_dict`` writes as a
    config that loads back equal."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cfg = load_config(write_config(Path(tmp), doc))
        except ConfigError:
            return
        assert load_config(write_config(Path(tmp), cfg.to_json_dict(), "again.json")) == cfg
