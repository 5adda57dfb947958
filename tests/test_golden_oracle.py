"""Golden oracle outputs: a small lattice, scenario-family and Monte Carlo
battery compared bit for bit with tests/golden/oracle.json.

The oracles are the independent check on every engine bound, so a change
that moves any of their bits must re-commit the golden file on purpose:

    PYTHONPATH=src python tests/test_golden_oracle.py

rewrites it from the current code.
"""

import json
import os

import pytest

from robust_rates.curve import DiscountCurve
from robust_rates.linear_pricing import TenorSchedule
from robust_rates.mc import MCConfig
from robust_rates.option_pricing import OptionContract, price_swaption
from robust_rates.oracle import ConstantControls, PiecewiseControls, lattice_price, scenario_sup
from robust_rates.stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
    capped_call_spread_leg,
)
from robust_rates.uncertainty import UncertaintyBand
from robust_rates.vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    VolStructure,
    ho_lee,
    hull_white,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "oracle.json")

CURVE = DiscountCurve(knots=((0.0, 0.015), (2.0, 0.025), (10.0, 0.03)))
BAND_1F = UncertaintyBand((0.5,), (1.5,))
MODELS = {
    "ho-lee": (ho_lee(0.015), BAND_1F),
    "hull-white": (hull_white(0.012, 0.1), BAND_1F),
    "2f-hw-hl": (
        VolStructure(factors=(HullWhiteFactor(c=0.01, kappa=0.2), HoLeeFactor(c=0.006))),
        UncertaintyBand((0.5, 0.8), (1.5, 1.2)),
    ),
}
SCHED = TenorSchedule(dates=(1.0, 1.5, 2.0))
SWAPTION = OptionContract(
    kind="swaption-payer", schedule=TenorSchedule(dates=(1.0, 1.5, 2.0, 3.0)),
    strike_rate=0.025, notional=-3.0,
)
CONTRACTS = {
    "cap": OptionContract(kind="cap", schedule=SCHED, strike_rate=0.04, notional=2.0),
    "in-arrears": OptionContract(kind="in-arrears-payer-swap", schedule=SCHED, strike_rate=0.03),
    "swaption": SWAPTION,
    "stream": CashflowStream(
        schedule=TenorSchedule(dates=(0.5, 1.2, 1.5, 2.0)),
        legs=(ConstantLeg(0.01), FloatingLinearLeg(1.3, 0.002), capped_call_spread_leg(0.97, 0.02)),
        notional=5.0,
    ),
}
FAMILIES = {
    "constant": ConstantControls(3),
    "piecewise": PiecewiseControls(2, (0.7, 1.2)),
}
LATTICE_STEPS = 200
PATHS = 2000


def lattice_case(model: str, side: str) -> list:
    vs, band = MODELS[model]
    leg = capped_call_spread_leg(0.97, 0.02)
    sign = 1.0 if side == "upper" else -1.0
    v = lattice_price(CURVE, vs, band, 1.0, 1.0, 1.5, lambda p: sign * leg.payoff(p), LATTICE_STEPS)
    return [sign * v]


def scenario_case(model: str, contract: str, family: str) -> list:
    vs, band = MODELS[model]
    r = scenario_sup(CURVE, vs, band, CONTRACTS[contract], FAMILIES[family],
                     MCConfig(paths=PATHS, seed=17))
    return [r.value, r.se, r.control, [list(row) for row in r.table]]


def swaption_case(model: str) -> list:
    vs, band = MODELS[model]
    b = price_swaption(CURVE, vs, band, SWAPTION, method="monte-carlo",
                       mc=MCConfig(paths=PATHS, seed=23))
    return [b.lower, b.upper, b.diagnostics["se_lower"], b.diagnostics["se_upper"]]


CASES = {
    **{f"lattice/{m}/{side}": (lattice_case, (m, side))
       for m in ("ho-lee", "hull-white") for side in ("upper", "lower")},
    **{f"scenario/{m}/{c}/{f}": (scenario_case, (m, c, f))
       for m in ("ho-lee", "2f-hw-hl") for c in CONTRACTS for f in FAMILIES},
    **{f"mc-swaption/{m}": (swaption_case, (m,)) for m in ("ho-lee", "2f-hw-hl")},
}


def compute(name: str) -> list:
    fn, args = CASES[name]
    return fn(*args)


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_output_matches_golden_bits(golden, name):
    # JSON keeps every digit of a float (repr round-trips), so == is exact.
    assert compute(name) == golden[name]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump({name: compute(name) for name in sorted(CASES)}, fh, indent=1)
        fh.write("\n")
