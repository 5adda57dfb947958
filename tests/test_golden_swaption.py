"""Golden one-factor swaption bounds: about 200 seeded payer swaptions priced
by quadrature (and a few by Monte Carlo), compared by float.hex with
tests/golden/swaption-quadrature.json.

The cases cover Ho-Lee, Hull-White and tabulated factors, 1 to 40 periods,
strikes from 1e-12 to 5, wide and degenerate bands, volatilities below the
quadrature's floor, and both early exits of the root bracket (never
exercised at z = 40, always exercised at z = -40).  The file holds every
input next to its bounds, so the check does not depend on how the cases
were drawn.  A change that moves any bit must re-commit the file on
purpose:

    PYTHONPATH=src python tests/test_golden_swaption.py

rewrites it from the current code.
"""

import json
import math
import os

import numpy as np
import pytest

from robust_rates.curve import DiscountCurve
from robust_rates.linear_pricing import TenorSchedule
from robust_rates.mc import MCConfig
from robust_rates.option_pricing import OptionContract, price_swaption
from robust_rates.uncertainty import UncertaintyBand
from robust_rates.vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    TabulatedFactor,
    single_factor,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "swaption-quadrature.json")

CURVE = {"knots": [[0.0, 0.012], [2.0, 0.022], [10.0, 0.031], [30.0, 0.035]], "horizon": 60.0}
PATHS = 2000


def build_factor(spec: dict):
    if spec["kind"] == "ho-lee":
        return HoLeeFactor(c=spec["c"])
    if spec["kind"] == "hull-white":
        return HullWhiteFactor(c=spec["c"], kappa=spec["kappa"])
    return TabulatedFactor(t_grid=tuple(spec["t_grid"]), maturity_grid=tuple(spec["maturity_grid"]),
                           values=tuple(map(tuple, spec["values"])))


def price(case: dict) -> list[str]:
    """The case's bounds (and, for Monte Carlo, standard errors) as float.hex."""
    curve = DiscountCurve(knots=tuple(map(tuple, CURVE["knots"])), horizon=CURVE["horizon"])
    contract = OptionContract(kind="swaption-payer", schedule=TenorSchedule(dates=tuple(case["dates"])),
                              strike_rate=case["strike"], notional=case["notional"])
    band = UncertaintyBand((case["band"][0],), (case["band"][1],))
    mc = MCConfig(paths=PATHS, seed=case["seed"]) if case["method"] == "monte-carlo" else None
    b = price_swaption(curve, single_factor(build_factor(case["factor"])), band, contract,
                       case["method"], mc)
    out = [b.lower, b.upper]
    if mc is not None:
        out += [b.diagnostics["se_lower"], b.diagnostics["se_upper"]]
    return [float.hex(v) for v in out]


def draw_cases() -> dict[str, dict]:
    """The seeded battery: random contracts over every factor kind, plus
    hand-picked cases for each branch of the quadrature."""
    rng = np.random.default_rng(1919)

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

    # The random tabulated contracts keep 1 or 2 periods, so the seeded
    # draws, and with them every other case, stay as first written; the
    # 20- and 40-period tabulated cases are hand-picked below.
    cases = {}
    for k in range(186):
        kind = "tabulated" if k % 16 == 15 else ("ho-lee", "hull-white")[k % 2]
        periods = int(rng.integers(1, 3 if kind == "tabulated" else 41))
        start = float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.5, 5.0]))
        accrual = float(rng.choice([0.25, 0.5, 1.0]))
        if periods * accrual > 40.0:
            accrual = 0.5
        dates = [start + accrual * i for i in range(periods + 1)]
        strike = log_uniform(1e-12, 5.0) if k % 4 else log_uniform(0.005, 0.06)
        lower = float(rng.uniform(0.2, 1.0))
        upper = lower if k % 5 == 0 else float(rng.uniform(1.0, 3.0))
        cases[f"random/{k:03d}/{kind}"] = {
            "factor": factor(kind), "band": [lower, upper], "dates": dates, "strike": strike,
            "notional": -2.5 if k % 7 == 0 else 1.0, "method": "quadrature-1f", "seed": 0,
        }
    tabulated = factor("tabulated")
    hand = {
        # gap(40) <= 0: never exercised within the bracket.
        "never-exercised/ho-lee": ({"kind": "ho-lee", "c": 1e-4}, [1.0, 1.0], [1.0, 1.5], 5.0),
        "never-exercised/hull-white": (
            {"kind": "hull-white", "c": 2e-4, "kappa": 0.2}, [0.5, 2.0], [2.0, 3.0, 4.0], 5.0),
        # gap(-40) >= 0 at a small total stdev: always exercised.
        "always-exercised/small-stdev": (
            {"kind": "ho-lee", "c": 1e-5}, [0.5, 2.0], [1.0 + k for k in range(6)], 1e-12),
        # gap(-40) >= 0 at a huge total stdev.
        "always-exercised/huge-stdev": (
            {"kind": "ho-lee", "c": 300.0}, [0.5, 1.5], [5.0 + 0.5 * k for k in range(41)], 0.03),
        "always-exercised/huge-stdev-hull-white": (
            {"kind": "hull-white", "c": 400.0, "kappa": 0.05}, [1.0, 1.0], [4.0, 5.0, 6.0], 1e-3),
        # Total stdevs of 8 to 50: e^{-w z - w^2/2} overflows to inf near z = -40.
        "overflowing-gap/ho-lee": ({"kind": "ho-lee", "c": 30.0}, [0.5, 1.5],
                                   [5.0 + 0.5 * k for k in range(41)], 0.03),
        # Every total stdev at or below the quadrature's floor: intrinsic value.
        "below-floor/in-the-money": ({"kind": "ho-lee", "c": 1e-17}, [0.5, 1.5], [1.0, 2.0, 3.0], 1e-3),
        "below-floor/out-of-the-money": ({"kind": "ho-lee", "c": 1e-17}, [1.0, 1.0], [1.0, 2.0], 0.5),
        # 40 periods at both closed-form factor kinds, wide and degenerate bands.
        "long/ho-lee/wide": ({"kind": "ho-lee", "c": 0.015}, [0.2, 3.0],
                             [1.0 + 0.25 * k for k in range(41)], 0.03),
        "long/hull-white/degenerate": ({"kind": "hull-white", "c": 0.012, "kappa": 0.1}, [1.3, 1.3],
                                       [2.0 + 0.5 * k for k in range(41)], 0.028),
        "tabulated/wide": (tabulated, [0.5, 1.5], [0.5, 1.0, 1.5, 2.0], 0.025),
        # 20 and 40 periods across both t-knots and a maturity knot of the grid.
        "long/tabulated/20-periods": (tabulated, [0.6, 1.6], [2.0 + 0.5 * k for k in range(21)], 0.028),
        "long/tabulated/wide": (tabulated, [0.4, 2.0], [0.5 + 0.5 * k for k in range(41)], 0.03),
        "strike/1e-12": ({"kind": "hull-white", "c": 0.01, "kappa": 0.3}, [0.5, 1.5],
                         [1.0, 1.5, 2.0, 2.5], 1e-12),
        "strike/5": ({"kind": "ho-lee", "c": 0.02}, [0.5, 1.5], [3.0, 4.0, 5.0], 5.0),
    }
    for name, (spec, band, dates, strike) in hand.items():
        cases[name] = {"factor": spec, "band": band, "dates": dates, "strike": strike,
                       "notional": 1.0, "method": "quadrature-1f", "seed": 0}
    # A few of the same contracts by Monte Carlo.
    for name in ("random/001/hull-white", "random/004/ho-lee", "random/015/tabulated",
                 "random/031/tabulated", "random/010/ho-lee", "long/ho-lee/wide", "long/hull-white/degenerate",
                 "always-exercised/huge-stdev", "never-exercised/hull-white",
                 "long/tabulated/20-periods"):
        cases[f"monte-carlo/{name}"] = dict(cases[name], method="monte-carlo", seed=31)
    return cases


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_holds_the_battery(golden):
    assert golden["curve"] == CURVE
    cases = golden["cases"]
    assert len(cases) >= 200
    kinds = {case["factor"]["kind"] for case in cases.values()}
    assert kinds == {"ho-lee", "hull-white", "tabulated"}
    periods = {len(case["dates"]) - 1 for case in cases.values()}
    assert min(periods) == 1 and max(periods) == 40
    assert any(case["band"][0] == case["band"][1] for case in cases.values())
    assert any(case["method"] == "monte-carlo" for case in cases.values())


def test_swaption_bounds_match_golden_bits(golden):
    for name, case in golden["cases"].items():
        assert price(case) == case["bounds"], name


if __name__ == "__main__":
    cases = draw_cases()
    for case in cases.values():
        case["bounds"] = price(case)
    with open(GOLDEN, "w") as fh:
        json.dump({"curve": CURVE, "cases": cases}, fh, indent=1)
        fh.write("\n")
