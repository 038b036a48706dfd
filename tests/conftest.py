import os
from pathlib import Path

import pytest

from valadj import CashflowSchedule, CloseoutSpec, CreditCurve, MarketRates, TermCurve

# pytest puts src/ on this process's path (pyproject.toml); child
# interpreters, such as the CLI end-to-end test's, need it in the
# environment to import the same checkout
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def flat_market():
    return MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))


@pytest.fixture
def investor():
    return CreditCurve("I", TermCurve.flat(0.02))


@pytest.fixture
def counterparty():
    return CreditCurve("C", TermCurve.flat(0.03))


@pytest.fixture
def closeout():
    return CloseoutSpec(recovery_investor=0.4, recovery_counterparty=0.4)


@pytest.fixture
def bullet():
    return CashflowSchedule.from_flows([(5.0, 1.0)])


@pytest.fixture
def mixed():
    # v_X changes sign after the first payment
    return CashflowSchedule.from_flows([(2.5, 1.0), (5.0, -1.0)])


@pytest.fixture
def coupon():
    flows = [(0.5 * k, 0.025) for k in range(1, 10)] + [(5.0, 1.025)]
    return CashflowSchedule.from_flows(flows)
