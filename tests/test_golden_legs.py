"""Golden cap, floor and in-arrears swap bounds: about 200 seeded contracts
priced from their per-period closed forms at the band extremes, plus a few
convex and concave closed-form streams through price_stream, compared by
float.hex with tests/golden/leg-closed-forms.json.

The cases cover Ho-Lee, Hull-White, tabulated and two-factor structures,
1 to 40 periods, schedules whose periods have different accruals, strikes
from 1e-12 to 5, wide and degenerate bands, volatilities below the closed
forms' floor and negative notionals.  The file holds every input next to
its bounds, so the check does not depend on how the cases were drawn.  A
change that moves any bit must re-commit the file on purpose:

    PYTHONPATH=src python tests/test_golden_legs.py

rewrites it from the current code.
"""

import json
import math
import os

import numpy as np
import pytest

from robust_rates.curve import DiscountCurve
from robust_rates.linear_pricing import TenorSchedule
from robust_rates.option_pricing import OptionContract, price_option
from robust_rates.stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
    OptionLeg,
    caplet_leg,
    floorlet_leg,
    in_arrears_leg,
    price_stream,
)
from robust_rates.uncertainty import UncertaintyBand
from robust_rates.vol_structure import HoLeeFactor, HullWhiteFactor, TabulatedFactor, VolStructure

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "leg-closed-forms.json")

CURVE = {"knots": [[0.0, 0.012], [2.0, 0.022], [10.0, 0.031], [30.0, 0.035]], "horizon": 60.0}
KINDS = ("cap", "floor", "in-arrears-payer-swap")
OPTION_LEGS = {"caplet": caplet_leg, "floorlet": floorlet_leg, "in-arrears": in_arrears_leg}


def build_factor(spec: dict):
    if spec["kind"] == "ho-lee":
        return HoLeeFactor(c=spec["c"])
    if spec["kind"] == "hull-white":
        return HullWhiteFactor(c=spec["c"], kappa=spec["kappa"])
    return TabulatedFactor(t_grid=tuple(spec["t_grid"]), maturity_grid=tuple(spec["maturity_grid"]),
                           values=tuple(map(tuple, spec["values"])))


def negated(leg: OptionLeg) -> OptionLeg:
    """-g for a convex leg g: a concave leg with a closed form."""
    return OptionLeg(payoff=lambda p: -leg.payoff(p), convexity="concave",
                     expected_value=lambda x, v: -leg.expected_value(x, v), label=f"-{leg.label}")


def build_leg(spec: dict, accrual: float):
    if spec["type"] == "constant":
        return ConstantLeg(amount=spec["amount"])
    if spec["type"] == "floating":
        return FloatingLinearLeg(slope=spec["slope"], intercept=spec["intercept"])
    leg = OPTION_LEGS[spec["type"]](accrual, spec["strike_rate"])
    return negated(leg) if spec["negated"] else leg


def price(case: dict) -> list[str]:
    """The case's (lower, upper) bounds as float.hex."""
    curve = DiscountCurve(knots=tuple(map(tuple, CURVE["knots"])), horizon=CURVE["horizon"])
    vs = VolStructure(factors=tuple(build_factor(f) for f in case["factors"]))
    band = UncertaintyBand(tuple(case["band"][0]), tuple(case["band"][1]))
    schedule = TenorSchedule(dates=tuple(case["dates"]))
    if case["kind"] == "stream":
        legs = tuple(build_leg(spec, d) for spec, d in zip(case["legs"], schedule.accruals))
        b = price_stream(curve, vs, band,
                         CashflowStream(schedule=schedule, legs=legs, notional=case["notional"]))
    else:
        b = price_option(curve, vs, band, OptionContract(
            kind=case["kind"], schedule=schedule, strike_rate=case["strike"],
            notional=case["notional"]))
    return [float.hex(b.lower), float.hex(b.upper)]


def draw_cases() -> dict[str, dict]:
    """The seeded battery: random contracts over every factor kind, plus
    hand-picked edge cases and a few closed-form streams."""
    rng = np.random.default_rng(2020)

    def log_uniform(lo, hi):
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    def factor(kind):
        if kind == "ho-lee":
            return {"kind": kind, "c": log_uniform(0.002, 0.04)}
        if kind == "hull-white":
            return {"kind": kind, "c": log_uniform(0.002, 0.04), "kappa": log_uniform(0.005, 1.5)}
        t_grid, maturity_grid = [0.0, 3.0, 12.0], [0.0, 8.0, 25.0, 60.0]
        values = [[log_uniform(0.003, 0.02) for _ in maturity_grid] for _ in t_grid]
        return {"kind": kind, "t_grid": t_grid, "maturity_grid": maturity_grid, "values": values}

    def factors(kind):
        return [factor("hull-white"), factor("ho-lee")] if kind == "2f" else [factor(kind)]

    def band(dim, degenerate):
        lower = [float(rng.uniform(0.2, 1.0)) for _ in range(dim)]
        upper = lower if degenerate else [float(rng.uniform(1.0, 3.0)) for _ in range(dim)]
        return [lower, upper]

    def dates(periods, mixed):
        start = float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.5, 5.0]))
        steps = rng.choice([0.25, 0.5, 1.0], size=periods) if mixed else [rng.choice([0.25, 0.5, 1.0])] * periods
        out = [start]
        for step in steps:
            out.append(out[-1] + float(step))
        return out

    # The random tabulated contracts keep 1 to 3 periods, so the seeded
    # draws, and with them every other case, stay as first written; the
    # 40-period tabulated cases are hand-picked below.
    cases = {}
    for k in range(192):
        kind = KINDS[k % 3]
        vol = "tabulated" if k % 16 == 15 else ("ho-lee", "hull-white", "2f", "ho-lee", "hull-white")[k % 5]
        periods = int(rng.integers(1, 4 if vol == "tabulated" else 41))
        strike = log_uniform(1e-12, 5.0) if k % 4 else log_uniform(0.005, 0.06)
        cases[f"random/{k:03d}/{kind}/{vol}"] = {
            "kind": kind, "factors": factors(vol), "band": band(2 if vol == "2f" else 1, k % 5 == 1),
            "dates": dates(periods, k % 3 == 1), "strike": strike,
            "notional": -2.5 if k % 7 == 0 else 1.0,
        }
    tabulated = [factor("tabulated")]
    hand = {
        "strike/1e-12": ([{"kind": "hull-white", "c": 0.01, "kappa": 0.3}], [[0.5], [1.5]],
                         [1.0, 1.5, 2.0, 2.5], 1e-12),
        "strike/5": ([{"kind": "ho-lee", "c": 0.02}], [[0.5], [1.5]], [3.0, 4.0, 5.0], 5.0),
        # Every stdev at or below the closed forms' floor: intrinsic values.
        "below-floor": ([{"kind": "ho-lee", "c": 1e-17}], [[0.5], [1.5]], [1.0, 2.0, 3.0], 0.03),
        "long/ho-lee/wide": ([{"kind": "ho-lee", "c": 0.015}], [[0.2], [3.0]],
                             [1.0 + 0.25 * k for k in range(41)], 0.03),
        "long/2f/degenerate": ([{"kind": "hull-white", "c": 0.012, "kappa": 0.1}, {"kind": "ho-lee", "c": 0.006}],
                               [[1.3, 0.7], [1.3, 0.7]], [2.0 + 0.5 * k for k in range(41)], 0.028),
        # Tenths accrue 0.1 plus or minus a few ulps: nearly equal, distinct accruals.
        "mixed-accruals/tenths": ([{"kind": "hull-white", "c": 0.01, "kappa": 0.05}], [[0.5], [2.0]],
                                  [1.0 + 0.1 * k for k in range(31)], 0.025),
        "large-variance": ([{"kind": "ho-lee", "c": 0.2}], [[0.5], [3.0]], [10.0, 15.0, 20.0], 0.03),
        "tabulated/wide": (tabulated, [[0.5], [1.5]], [0.5, 1.0, 2.0], 0.025),
        # 40 periods across both t-knots and a maturity knot of the grid.
        "long/tabulated/wide": (tabulated, [[0.4], [2.0]], [0.5 + 0.5 * k for k in range(41)], 0.03),
    }
    for name, (specs, bnd, ds, strike) in hand.items():
        for kind in KINDS:
            cases[f"{name}/{kind}"] = {"kind": kind, "factors": specs, "band": bnd, "dates": ds,
                                       "strike": strike, "notional": 1.0}
    # Streams whose option legs all share one convexity and have closed forms.
    for k in range(12):
        vol = ("ho-lee", "hull-white", "2f", "tabulated")[k % 4]
        periods = int(rng.integers(1, 4 if vol == "tabulated" else 13))
        concave = k % 2 == 1
        legs = []
        for _ in range(periods):
            pick = rng.integers(0, 5)
            if pick == 3:
                legs.append({"type": "constant", "amount": float(rng.uniform(-0.05, 0.05))})
            elif pick == 4:
                legs.append({"type": "floating", "slope": float(rng.uniform(0.0, 1.0)),
                             "intercept": float(rng.uniform(-0.02, 0.02))})
            else:
                legs.append({"type": ("caplet", "floorlet", "in-arrears")[pick],
                             "strike_rate": log_uniform(0.005, 0.06), "negated": concave})
        cases[f"stream/{k:02d}/{'concave' if concave else 'convex'}/{vol}"] = {
            "kind": "stream", "factors": factors(vol), "band": band(2 if vol == "2f" else 1, k % 5 == 2),
            "dates": dates(periods, k % 3 == 0), "legs": legs, "notional": -1.5 if k % 3 == 2 else 1.0,
        }
    legs = [{"type": ("caplet", "floorlet", "in-arrears")[k % 3], "strike_rate": 0.01 + 0.001 * k,
             "negated": False} for k in range(40)]
    cases["stream/long/convex/tabulated"] = {
        "kind": "stream", "factors": tabulated, "band": [[0.4], [2.0]],
        "dates": [0.5 + 0.5 * k for k in range(41)], "legs": legs, "notional": 1.0,
    }
    return cases


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_holds_the_battery(golden):
    assert golden["curve"] == CURVE
    cases = golden["cases"]
    assert len(cases) >= 200
    kinds = {f["kind"] for case in cases.values() for f in case["factors"]}
    assert kinds == {"ho-lee", "hull-white", "tabulated"}
    assert any(len(case["factors"]) == 2 for case in cases.values())
    periods = {len(case["dates"]) - 1 for case in cases.values()}
    assert min(periods) == 1 and max(periods) == 40
    assert {case["kind"] for case in cases.values()} == set(KINDS) | {"stream"}
    assert any(case["band"][0] == case["band"][1] for case in cases.values())
    assert any(case["notional"] < 0.0 for case in cases.values())
    assert any(len(set(TenorSchedule(dates=tuple(case["dates"])).accruals)) > 1
               for case in cases.values())
    assert {leg.get("negated") for case in cases.values() for leg in case.get("legs", ())} >= {True, False}


def test_leg_bounds_match_golden_bits(golden):
    for name, case in golden["cases"].items():
        assert price(case) == case["bounds"], name


if __name__ == "__main__":
    cases = draw_cases()
    for case in cases.values():
        case["bounds"] = price(case)
    with open(GOLDEN, "w") as fh:
        json.dump({"curve": CURVE, "cases": cases}, fh, indent=1)
        fh.write("\n")
