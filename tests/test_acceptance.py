"""Acceptance gate: every release criterion, one test each, at the
stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[PASS]``/``[FAIL]`` line per criterion.  These tests duplicate some
unit-test coverage on purpose; they are the sign-off checklist, kept
self-contained and explicit.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from valadj import (
    CashflowSchedule,
    CloseoutSpec,
    CreditCurve,
    JointDefaultModel,
    MarketRates,
    TermCurve,
    adjustment_correlated,
    adjustment_independent,
    bond_price,
    expected_conditional_discount,
    internal_bond_price,
    reprice_contingent_bond,
    mc_value_correlated,
    mc_value_independent,
    sample_joint_defaults,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MARKET = MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))
INVESTOR = CreditCurve("I", TermCurve.flat(0.02))
COUNTERPARTY = CreditCurve("C", TermCurve.flat(0.03))
CLOSEOUT = CloseoutSpec(0.4, 0.4)
BULLET = CashflowSchedule.from_flows([(5.0, 1.0)])
MIXED = CashflowSchedule.from_flows([(2.5, 1.0), (5.0, -1.0)])
COUPON = CashflowSchedule.from_flows(
    [(0.5 * k, 0.025) for k in range(1, 10)] + [(5.0, 1.025)]
)
SCHEDULES = (("bullet", BULLET), ("mixed", MIXED), ("coupon", COUPON))
MC_PATHS = 1_000_000


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_bond_invariance_sweep():
    start = time.monotonic()
    worst = 0.0
    for maturity in (1.0, 5.0, 10.0):
        target = bond_price(MARKET, INVESTOR, 0.4, maturity)
        for lam_bar in (0.0, 0.005, 0.01, 0.02, 0.04):
            got = internal_bond_price(MARKET, INVESTOR, 0.4, lam_bar, maturity)
            worst = max(worst, abs(got - target) / target)
    elapsed = time.monotonic() - start
    _report(
        1,
        f"bond invariance sweep, max rel gap {worst:.2e} (<= 1e-12), "
        f"{elapsed:.2f}s (< 1s)",
        worst <= 1e-12 and elapsed < 1.0,
    )


def test_criterion_2_limiting_cases():
    # default-free internal choice: pure funding, closed form
    prof0 = adjustment_independent(MARKET, INVESTOR, None, 0.4, 0.0, BULLET, CLOSEOUT)
    closed = math.exp(-0.022 * 5.0) - math.exp(-0.005 * 5.0)
    gap_closed = abs(prof0.adjustment() - closed)

    # market-consensus internal choice: coefficients reduce to the
    # conventional CVA/DVA/funding form with r_bar = r
    prof = adjustment_independent(MARKET, INVESTOR, None, 0.4, 0.02, MIXED, CLOSEOUT)
    gap_alpha = float(np.max(np.abs(prof.alpha - 0.03)))
    beta_ref = 0.6 * 0.02 * np.maximum(-prof.v_x, 0.0) - (0.01 - 0.005) * prof.v_x
    gap_beta = float(np.max(np.abs(prof.beta - beta_ref)))

    _report(
        2,
        f"limiting cases: closed-form gap {gap_closed:.2e} (<= 1e-9), "
        f"coefficient gaps {gap_alpha:.2e}/{gap_beta:.2e} (<= 1e-12)",
        gap_closed <= 1e-9 and gap_alpha <= 1e-12 and gap_beta <= 1e-12,
    )


def test_criterion_3_regime_lattice():
    start = time.monotonic()
    dead = CreditCurve("C", TermCurve.flat(0.0))
    indep0 = adjustment_independent(MARKET, INVESTOR, dead, 0.4, 0.02, MIXED, CLOSEOUT)
    riskfree = adjustment_independent(MARKET, INVESTOR, None, 0.4, 0.02, MIXED, CLOSEOUT)
    same_grid_a = np.array_equal(indep0.grid, riskfree.grid)
    gap_a = float(np.max(np.abs(indep0.u - riskfree.u)))

    tiny = JointDefaultModel(INVESTOR, COUNTERPARTY, 1e-8)
    corr = adjustment_correlated(MARKET, tiny, MIXED, CLOSEOUT)
    indep = adjustment_independent(MARKET, INVESTOR, COUNTERPARTY, 0.0, 0.0, MIXED, CLOSEOUT)
    same_grid_b = np.array_equal(corr.grid, indep.grid)
    gap_b = float(np.max(np.abs(corr.u - indep.u)))
    elapsed = time.monotonic() - start

    _report(
        3,
        f"regime lattice: no-counterparty gap {gap_a:.2e} (= 0), "
        f"theta->0 gap {gap_b:.2e} (<= 1e-6), {elapsed:.2f}s (< 1s)",
        same_grid_a and gap_a == 0.0 and same_grid_b and gap_b <= 1e-6 and elapsed < 1.0,
    )


def test_criterion_4_conditional_discount_identity():
    start = time.monotonic()
    investor = CreditCurve("I", TermCurve.flat(0.02))
    counterparty = CreditCurve("C", TermCurve.flat(0.02))
    target = math.exp(-0.01) * math.exp(-0.02)
    worst_identity = 0.0
    for theta in (0.0, 0.5, 1.0, 3.0):
        model = JointDefaultModel(investor, counterparty, theta)
        got = expected_conditional_discount(MARKET, model, 1.0)
        worst_identity = max(worst_identity, abs(got - target))

    worst_reprice = 0.0
    for theta in (0.0, 0.5, 1.0, 3.0):
        model = JointDefaultModel(investor, counterparty, theta)
        for t_c in (0.0, 0.5):
            external = math.exp(-0.01) * model.joint_survival(1.0, t_c)
            internal = expected_conditional_discount(MARKET, model, 1.0, contingency=t_c)
            worst_reprice = max(worst_reprice, abs(internal - external))
            # must also clear its own internal consistency gate
            px = reprice_contingent_bond(MARKET, model, 1.0, t_c, tolerance=1e-8)
            assert px == external
    elapsed = time.monotonic() - start

    _report(
        4,
        f"conditional-discount identity {worst_identity:.2e} and repricing "
        f"{worst_reprice:.2e} (<= 1e-8), {elapsed:.2f}s (< 5s)",
        worst_identity <= 1e-8 and worst_reprice <= 1e-8 and elapsed < 5.0,
    )


def test_criterion_5_monte_carlo_agreement():
    budgets = []
    worst_z = 0.0
    worst_se = 0.0

    start = time.monotonic()
    seed = 2000
    for _, schedule in SCHEDULES:
        for lam_bar in (0.005, 0.01, 0.02):
            engine = adjustment_independent(
                MARKET, INVESTOR, None, 0.4, lam_bar, schedule, CLOSEOUT
            ).value()
            mc = mc_value_independent(
                MARKET, INVESTOR, None, 0.4, lam_bar, schedule, CLOSEOUT, MC_PATHS, seed
            )
            worst_z = max(worst_z, abs(mc.mean - engine) / mc.std_error)
            worst_se = max(worst_se, mc.std_error)
            seed += 1
    budgets.append(time.monotonic() - start)

    start = time.monotonic()
    seed = 3000
    for _, schedule in SCHEDULES:
        for lam_bar in (0.0, 0.01, 0.02):
            engine = adjustment_independent(
                MARKET, INVESTOR, COUNTERPARTY, 0.4, lam_bar, schedule, CLOSEOUT
            ).value()
            mc = mc_value_independent(
                MARKET, INVESTOR, COUNTERPARTY, 0.4, lam_bar, schedule, CLOSEOUT,
                MC_PATHS, seed,
            )
            worst_z = max(worst_z, abs(mc.mean - engine) / mc.std_error)
            worst_se = max(worst_se, mc.std_error)
            seed += 1
    budgets.append(time.monotonic() - start)

    start = time.monotonic()
    seed = 4000
    for _, schedule in SCHEDULES:
        for theta in (0.0, 1.0, 3.0):
            model = JointDefaultModel(INVESTOR, COUNTERPARTY, theta)
            engine = adjustment_correlated(MARKET, model, schedule, CLOSEOUT).value()
            mc = mc_value_correlated(MARKET, model, schedule, CLOSEOUT, MC_PATHS, seed)
            worst_z = max(worst_z, abs(mc.mean - engine) / mc.std_error)
            worst_se = max(worst_se, mc.std_error)
            seed += 1
    budgets.append(time.monotonic() - start)

    _report(
        5,
        f"MC agreement on 3x3 grids per regime: worst |z| {worst_z:.2f} (<= 3), "
        f"worst SE {worst_se:.2e} (<= 5e-4), regime times "
        f"{'/'.join(f'{b:.1f}s' for b in budgets)} (< 60s each)",
        worst_z <= 3.0 and worst_se <= 5e-4 and all(b < 60.0 for b in budgets),
    )


def test_criterion_6_grid_convergence():
    model = JointDefaultModel(INVESTOR, COUNTERPARTY, 1.0)
    runs = [
        lambda ppy, s=s: adjustment_independent(
            MARKET, INVESTOR, None, 0.4, 0.02, s, CLOSEOUT, panels_per_year=ppy
        )
        for _, s in SCHEDULES[:2]
    ] + [
        lambda ppy, s=s: adjustment_independent(
            MARKET, INVESTOR, COUNTERPARTY, 0.4, 0.02, s, CLOSEOUT, panels_per_year=ppy
        )
        for _, s in SCHEDULES[:2]
    ] + [
        lambda ppy, s=s: adjustment_correlated(
            MARKET, model, s, CLOSEOUT, panels_per_year=ppy
        )
        for _, s in SCHEDULES[:2]
    ]
    worst = max(abs(run(1024).adjustment() - run(512).adjustment()) for run in runs)
    _report(
        6,
        f"grid convergence 512 -> 1024 panels/year: worst change {worst:.2e} (<= 1e-9)",
        worst <= 1e-9,
    )


def test_criterion_7_credit_math():
    h = 1e-5
    worst_fd = 0.0
    worst_marginal = 0.0
    for theta in (0.0, 0.5, 1.0, 3.0):
        model = JointDefaultModel(INVESTOR, COUNTERPARTY, theta)
        for t in (0.5, 2.0, 5.0):
            fd_i = -(
                model.log_joint_survival(t + h, t) - model.log_joint_survival(t - h, t)
            ) / (2 * h)
            fd_c = -(
                model.log_joint_survival(t, t + h) - model.log_joint_survival(t, t - h)
            ) / (2 * h)
            worst_fd = max(
                worst_fd,
                abs(model.ftd_intensity(t)[0] - fd_i),
                abs(model.ftd_intensity(t)[1] - fd_c),
            )
        for t in np.linspace(0.0, 10.0, 101):
            worst_marginal = max(
                worst_marginal,
                abs(model.joint_survival(t, 0.0) - INVESTOR.survival(t)),
                abs(model.joint_survival(0.0, t) - COUNTERPARTY.survival(t)),
            )

    model = JointDefaultModel(INVESTOR, COUNTERPARTY, 1.0)
    tau_i, tau_c = sample_joint_defaults(model, MC_PATHS, 5)
    worst_emp = 0.0
    for a, b in [(1.0, 2.0), (3.0, 1.0), (5.0, 5.0)]:
        p = model.joint_survival(a, b)
        se = math.sqrt(p * (1.0 - p) / MC_PATHS)
        p_hat = float(np.mean((tau_i > a) & (tau_c > b)))
        worst_emp = max(worst_emp, abs(p_hat - p) / se)

    _report(
        7,
        f"credit math: FTD intensity FD gap {worst_fd:.2e} (<= 1e-6), marginal "
        f"gap {worst_marginal:.2e} (<= 1e-12), joint survival |z| {worst_emp:.2f} (<= 3)",
        worst_fd <= 1e-6 and worst_marginal <= 1e-12 and worst_emp <= 3.0,
    )


def _cli(config, out_dir, mc=True):
    args = [
        sys.executable, "-m", "valadj.cli", "run",
        str(CONFIG_DIR / config), "--out", str(out_dir),
    ]
    if mc:
        args.append("--mc")
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def _read(out_dir, name):
    return (Path(out_dir) / name).read_text().splitlines()


def test_criterion_8_cli_end_to_end(tmp_path):
    _cli("riskfree_bullet.json", tmp_path / "rf")
    _cli("riskfree_bullet.json", tmp_path / "rf2")
    _cli("independent_nocpty_bullet.json", tmp_path / "nc", mc=False)
    _cli("independent_mixed.json", tmp_path / "im")
    _cli("correlated_mixed.json", tmp_path / "cm")
    _cli("correlated_bond.json", tmp_path / "cb")

    # byte-deterministic reruns
    deterministic = all(
        (tmp_path / "rf" / f"riskfree_bullet_{kind}.csv").read_bytes()
        == (tmp_path / "rf2" / f"riskfree_bullet_{kind}.csv").read_bytes()
        for kind in ("profiles", "summary")
    )

    # criterion 2 from the CSVs: closed form and coefficient columns
    rf_summary = _read(tmp_path / "rf", "riskfree_bullet_summary.csv")
    u0 = float(rf_summary[1].split(",")[4])
    gap_closed = abs(u0 - (math.exp(-0.022) - math.exp(-0.005)))
    rf_profiles = [r.split(",") for r in _read(tmp_path / "rf", "riskfree_bullet_profiles.csv")[1:]]
    gap_coeff = 0.0
    for row in rf_profiles:
        if row[1] != "0.02":
            continue
        v_x, alpha, beta = float(row[4]), float(row[7]), float(row[8])
        beta_ref = 0.6 * 0.02 * max(-v_x, 0.0) - (0.01 - 0.005) * v_x
        gap_coeff = max(gap_coeff, abs(alpha - 0.03), abs(beta - beta_ref))

    # criterion 3 from the CSVs: lattice collapses
    nc_profiles = [r.split(",") for r in _read(tmp_path / "nc", "independent_nocpty_profiles.csv")[1:]]
    lattice_exact = len(rf_profiles) == len(nc_profiles) and all(
        a[5] == b[5] for a, b in zip(rf_profiles, nc_profiles)
    )
    im_rows = [r.split(",") for r in _read(tmp_path / "im", "independent_mixed_profiles.csv")[1:]]
    cm_rows = [r.split(",") for r in _read(tmp_path / "cm", "correlated_mixed_profiles.csv")[1:]]
    im0 = [r for r in im_rows if r[1] == "0.0"]
    cm_tiny = [r for r in cm_rows if r[2] == "1e-08"]
    cm_zero = [r for r in cm_rows if r[2] == "0.0"]
    gap_theta_tiny = max(abs(float(a[5]) - float(b[5])) for a, b in zip(im0, cm_tiny))
    gap_theta_zero = max(abs(float(a[5]) - float(b[5])) for a, b in zip(im0, cm_zero))

    # criterion 4 from the CSVs: the zero-recovery trade on a single
    # positive flow is a survival-contingent bond; its engine value must
    # equal the external copula price
    gap_bond = 0.0
    for row in _read(tmp_path / "cb", "correlated_bond_summary.csv")[1:]:
        fields = row.split(",")
        theta, v0 = float(fields[2]), float(fields[5])
        model = JointDefaultModel(INVESTOR, COUNTERPARTY, theta)
        gap_bond = max(gap_bond, abs(v0 - math.exp(-0.01) * model.joint_survival(1.0, 1.0)))

    # criterion 5 from the CSVs: every MC column agrees with the engine
    mc_ok = True
    for sub, name in (
        ("rf", "riskfree_bullet_summary.csv"),
        ("im", "independent_mixed_summary.csv"),
        ("cm", "correlated_mixed_summary.csv"),
        ("cb", "correlated_bond_summary.csv"),
    ):
        for row in _read(tmp_path / sub, name)[1:]:
            fields = row.split(",")
            v0, mean, se = float(fields[5]), float(fields[6]), float(fields[7])
            if se <= 1e-15:
                mc_ok = mc_ok and abs(mean - v0) <= 1e-12
            else:
                mc_ok = mc_ok and abs(mean - v0) <= 3.0 * se and se <= 5e-4

    _report(
        8,
        "CLI end to end: deterministic bytes, closed form "
        f"{gap_closed:.2e} (<= 1e-9), coefficients {gap_coeff:.2e} (<= 1e-12), "
        f"lattice exact {lattice_exact}, theta gaps {gap_theta_zero:.2e} (<= 1e-9)"
        f"/{gap_theta_tiny:.2e} (<= 1e-6), contingent bond {gap_bond:.2e} (<= 1e-8), "
        f"MC columns within 3 SE: {mc_ok}",
        deterministic
        and gap_closed <= 1e-9
        and gap_coeff <= 1e-12
        and lattice_exact
        and gap_theta_zero <= 1e-9
        and gap_theta_tiny <= 1e-6
        and gap_bond <= 1e-8
        and mc_ok,
    )
