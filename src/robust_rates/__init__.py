"""Robust fixed-income pricing under uncertain volatility.

Symmetric contracts (fixed coupon bonds, floating rate notes, swaps) get a
single price; asymmetric contracts (caps, floors, swaptions, in-arrears
swaps, generic forward-price options and streams) get upper and lower
bounds, evaluated at the extremes of a volatility uncertainty band and
cross-checked by independent lattice and Monte Carlo oracles.
"""

from .curve import DiscountCurve, flat_curve, load_curve
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    ParseError,
    RobustRatesError,
    StabilityError,
    UnsupportedMethodError,
)
from .linear_pricing import (
    LinearContract,
    TenorSchedule,
    annuity,
    price_fixed_coupon_bond,
    price_floating_rate_note,
    price_linear,
    price_swap,
    swap_rate,
)
from .mc import MCConfig
from .option_pricing import (
    OptionContract,
    price_cap,
    price_floor,
    price_in_arrears_swap,
    price_option,
    price_swaption,
)
from .oracle import (
    ConstantControls,
    PiecewiseControls,
    expectations_hypothesis_check,
    lattice_price,
    scenario_sup,
)
from .pde import PDEGrid, default_grid, solve_lower, solve_single_option
from .stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
    OptionLeg,
    capped_call_spread_leg,
    capped_forward_leg,
    caplet_leg,
    floorlet_leg,
    in_arrears_leg,
    price_leg_bounds,
    price_stream,
    transformed_strike,
)
from .uncertainty import PriceBounds, UncertaintyBand, degenerate_band
from .vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    TabulatedFactor,
    VolStructure,
    ho_lee,
    hull_white,
    load_tabulated_factor,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
