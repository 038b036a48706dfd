"""Value adjustments for uncollateralized deterministic cashflow streams.

A trade whose flows are known in advance would be worth its
collateral-rate value ``v_X`` if it were perfectly collateralized.
Uncollateralized, its value ``v`` under the investor's chosen pricing
measure differs by an adjustment ``u = v - v_X`` driven by funding and
default: this package solves ``u`` along the trade (``engine``), builds
the admissible pricing measures from the funding-rate constraint
(``measure``), models single-name and dependent default times
(``credit``), and cross-checks everything with an independent Monte
Carlo simulator (``oracle``).  A JSON-driven CLI (``cli``) sweeps the
measure parameters and writes deterministic CSV reports.
"""

from .credit import CreditCurve, JointDefaultModel, clayton_survival_copula
from .curves import MarketRates, TermCurve, as_curve, combined
from .engine import (
    AdjustmentProfile,
    adjustment_correlated,
    adjustment_independent,
    panel_grid,
    solve_linear_adjustment,
)
from .errors import InvariantError
from .instruments import (
    CashflowSchedule,
    CloseoutSpec,
    closeout_values,
    collateral_value,
)
from .measure import (
    bond_price,
    conditional_discount,
    expected_conditional_discount,
    funding_rate,
    internal_bond_price,
    internal_rate,
    pre_default_rate,
    reprice_contingent_bond,
)
from .oracle import (
    McEstimate,
    mc_value_correlated,
    mc_value_independent,
    sample_joint_defaults,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentProfile",
    "CashflowSchedule",
    "CloseoutSpec",
    "CreditCurve",
    "InvariantError",
    "JointDefaultModel",
    "MarketRates",
    "McEstimate",
    "TermCurve",
    "adjustment_correlated",
    "adjustment_independent",
    "as_curve",
    "bond_price",
    "clayton_survival_copula",
    "closeout_values",
    "collateral_value",
    "combined",
    "conditional_discount",
    "expected_conditional_discount",
    "funding_rate",
    "internal_bond_price",
    "internal_rate",
    "mc_value_correlated",
    "mc_value_independent",
    "panel_grid",
    "pre_default_rate",
    "reprice_contingent_bond",
    "sample_joint_defaults",
    "solve_linear_adjustment",
]
