import contextlib
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

from valadj import AdjustmentProfile, adjustment_independent, cli, mc_value_independent
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
    overflows in panel propagation: with a counterparty hazard of 9e307,
    Simpson's ``4 * beta_mid`` term is past the largest double."""
    return shipped_config("correlated_bond", counterparty=9e307, flows=[1.0], theta=[0.0])


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
        rows = [f"riskfree_cpty,{lam},,," for lam in ("0.0", "0.02")]
        row_bytes = sum(3 * (len(r) + 6 * 25) + 64 for r in rows)
        need = points * (256 + row_bytes)
        assert cli._panel_grid_bytes(cfg, 64) == need
        monkeypatch.setattr(cli, "_physical_memory", lambda: need)
        assert cli._panel_memory_problem(cfg, 64) is None
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        assert str(need) in cli._panel_memory_problem(cfg, 64)

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
        ],
        ids=["lambda_bar", "risk_free", "theta", "independent_1e307", "beta_at_0", "correlated_1e307",
             "node_integral"],
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
        # payoffs scaled by a power of two.  The solver's Simpson panels
        # are off by (h alpha)**4 / 2880 relative, 3e-8 at 4096 a year
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

    def test_profile_rows_match_naive_formatting(self):
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
        naive = []
        for j in range(n):
            cells = [
                repr(float(a[j]))
                for a in (profile.grid, profile.v_x, profile.u, profile.v, profile.alpha, profile.beta)
            ]
            mc = ["1.5", "0.25"] if j == 0 else ["", ""]
            naive.append(",".join(["riskfree_cpty", "0.02", ""] + cells + mc))
        assert cli._profile_rows("riskfree_cpty,0.02,", profile, "1.5", "0.25") == naive
        assert "-0.0" in naive[1] and "5e-324" in naive[2]

    def test_bad_panels_override(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["run", str(path), "--panels", "0"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "config"

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
        out = tmp_path / "out"
        out.mkdir()
        (out / "profiles.csv").write_text("old profiles\n")
        (out / "summary.csv").write_text("old summary\n")
        class Torn:
            """A file that takes half of what is written, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(cli, "open", lambda path, mode: Torn(open(path, mode)), raising=False)
        cfg = load_config(write_config(tmp_path, base_config()))
        with pytest.raises(OSError, match="no space"):
            run_scenario(cfg, out_dir=out, echo=lambda _: None)
        assert (out / "profiles.csv").read_text() == "old profiles\n"
        assert (out / "summary.csv").read_text() == "old summary\n"
        assert sorted(os.listdir(out)) == ["profiles.csv", "summary.csv"]

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
