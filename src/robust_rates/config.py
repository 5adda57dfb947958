"""One-file JSON run configuration: curve, volatility factors, band, contracts.

Schema (see README for the full reference):

    {
      "curve":         {"csv": "curve.csv"}  or
                       {"knots": [[0, 0.02], [30, 0.02]],
                        "interpolation": "linear", "horizon": 30},
      "vol_structure": {"factors": [{"kind": "ho-lee", "c": 0.01}, ...]},
      "band":          {"sigma_lower": [0.5], "sigma_upper": [1.5]},
      "contracts":     [ {...}, ... ]
    }

Relative file paths resolve against the config file's directory.  Errors
raise ConfigError naming the offending field.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .curve import DiscountCurve, load_curve
from .errors import ConfigError, DomainError, RobustRatesError
from .linear_pricing import LINEAR_KINDS, LinearContract, TenorSchedule, price_linear
from .mc import MCConfig, child_seed
from .option_pricing import OPTION_KINDS, SWAPTION_METHODS, OptionContract, price_option
from .pde import check_resolution
from .stream import (
    CashflowStream,
    ConstantLeg,
    FloatingLinearLeg,
    capped_call_spread_leg,
    capped_forward_leg,
    caplet_leg,
    floorlet_leg,
    in_arrears_leg,
    price_stream,
)
from .uncertainty import PriceBounds, UncertaintyBand
from .vol_structure import (
    HoLeeFactor,
    HullWhiteFactor,
    VolStructure,
    load_tabulated_factor,
)


@dataclass(frozen=True)
class ConfiguredContract:
    name: str
    contract: LinearContract | OptionContract | CashflowStream
    method: str = "quadrature-1f"
    mc: MCConfig | None = None
    nx: int = 241
    nt: int = 240
    seed_pinned: bool = False


@dataclass(frozen=True)
class PricingSetup:
    curve: DiscountCurve
    vol: VolStructure
    band: UncertaintyBand
    contracts: tuple[ConfiguredContract, ...]


def _require(section: dict, field: str, where: str):
    if field not in section:
        raise ConfigError(f"{where}: missing field '{field}'")
    return section[field]


def _is_number(value) -> bool:
    """A JSON number: an int or a float, never a bool or a numeric string."""
    return type(value) in (int, float)


def _floats(values: list) -> tuple[float, ...]:
    """JSON numbers as floats; an int beyond the float range reads as inf."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        return (math.inf,)


def _number(value, where: str) -> float:
    """A JSON number as a finite float.  JSON's NaN and Infinity literals
    parse, so they are rejected here rather than surfacing later as pricing
    errors."""
    if not _is_number(value):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    (x,) = _floats([value])
    if not math.isfinite(x):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return x


def _number_field(section: dict, field: str, where: str, default: float | None = None) -> float:
    """The finite number section[field]; required unless a default is given."""
    value = _require(section, field, where) if default is None else section.get(field, default)
    return _number(value, f"{where}.{field}")


def _numbers(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of numbers, got {values!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(values))


def _integer_field(section: dict, field: str, where: str, default: int) -> int:
    """section[field], a JSON number with an integral value, as an int."""
    value = section.get(field, default)
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where}.{field}: expected an integer, got {value!r}")
    return int(value)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _load_file(loader, base_dir: str, name, where: str, **kwargs):
    """loader applied to a data file the config names, relative to its directory."""
    path = os.path.join(base_dir, str(name))
    try:
        return loader(path, **kwargs)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot read {path}: {exc.strerror}") from exc
    except RobustRatesError as exc:  # a malformed file
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_curve(section, base_dir: str) -> DiscountCurve:
    _object(section, "curve")
    horizon = None if section.get("horizon") is None else _number_field(section, "horizon", "curve")
    if "csv" in section:
        return _load_file(
            load_curve, base_dir, section["csv"], "curve.csv",
            interpolation=section.get("interpolation", "linear"),
            horizon=horizon,
        )
    knots = _list(_require(section, "knots", "curve"), "curve.knots")
    try:
        return DiscountCurve(
            knots=tuple(_numbers(k, f"curve.knots[{i}]") for i, k in enumerate(knots)),
            interpolation=section.get("interpolation", "linear"),
            horizon=horizon,
        )
    except RobustRatesError as exc:
        raise ConfigError(f"curve: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"curve.knots: expected [[maturity, rate], ...]: {exc}") from exc


def _parse_factor(f, idx: int, base_dir: str):
    where = f"vol_structure.factors[{idx}]"
    kind = _require(_object(f, where), "kind", where)
    try:
        if kind == "ho-lee":
            return HoLeeFactor(c=_number_field(f, "c", where))
        if kind == "hull-white":
            return HullWhiteFactor(
                c=_number_field(f, "c", where), kappa=_number_field(f, "kappa", where)
            )
        if kind == "tabulated":
            csv = _require(f, "csv", where)
            return _load_file(load_tabulated_factor, base_dir, csv, f"{where}.csv")
    except ConfigError:
        raise
    except RobustRatesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown kind {kind!r}")


def _parse_band(section) -> UncertaintyBand:
    _object(section, "band")
    lo = _numbers(_require(section, "sigma_lower", "band"), "band.sigma_lower")
    hi = _numbers(_require(section, "sigma_upper", "band"), "band.sigma_upper")
    try:
        return UncertaintyBand(lower=lo, upper=hi)
    except RobustRatesError as exc:
        raise ConfigError(f"band: {exc}") from exc


def _parse_schedule(entry, where: str, name: str) -> TenorSchedule:
    dates = _require(entry, "schedule", where)
    if not isinstance(dates, list) or not set(map(type, dates)) <= {int, float}:
        raise ConfigError(
            f"{where}.schedule: contract '{name}': expected a list of dates, got {dates!r}"
        )
    floats = _floats(dates)
    if not all(map(math.isfinite, floats)):  # NaN passes the ordering checks
        raise ConfigError(f"{where}.schedule: contract '{name}': dates must be finite")
    try:
        return TenorSchedule(dates=floats)
    except RobustRatesError as exc:
        raise ConfigError(f"{where}.schedule: {exc}") from exc


def _parse_notional(entry, where: str) -> float:
    """Prices are reported per unit notional, so it must be finite and nonzero."""
    notional = _number_field(entry, "notional", where, 1.0)
    if notional == 0.0:
        raise ConfigError(f"{where}.notional: must be nonzero, got {entry['notional']!r}")
    return notional


def _parse_leg(leg, accrual: float, where: str):
    kind = _require(_object(leg, where), "type", where)

    def num(field: str, default: float | None = None) -> float:
        return _number_field(leg, field, where, default)

    try:
        if kind == "constant":
            return ConstantLeg(amount=num("amount"))
        if kind == "floating":
            return FloatingLinearLeg(slope=num("slope"), intercept=num("intercept", 0.0))
        if kind == "caplet":
            return caplet_leg(accrual, num("strike_rate"))
        if kind == "floorlet":
            return floorlet_leg(accrual, num("strike_rate"))
        if kind == "in-arrears":
            return in_arrears_leg(accrual, num("strike_rate"))
        if kind == "capped-call-spread":
            return capped_call_spread_leg(num("strike"), num("cap"))
        if kind == "capped-forward":
            return capped_forward_leg(num("cap"))
    except ConfigError:
        raise
    except RobustRatesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: unknown leg type {kind!r}")


def _parse_contract(entry, idx: int) -> ConfiguredContract:
    where = f"contracts[{idx}]"
    kind = _require(_object(entry, where), "kind", where)
    name = str(entry.get("name", f"contract-{idx}"))
    notional = _parse_notional(entry, where)
    schedule = _parse_schedule(entry, where, name)
    mc = None
    if "mc" in entry:
        m = _object(entry["mc"], f"{where}.mc")
        paths = _integer_field(m, "paths", f"{where}.mc", 100_000)
        seed = _integer_field(m, "seed", f"{where}.mc", 0)
        antithetic = m.get("antithetic", True)
        if not isinstance(antithetic, bool):
            raise ConfigError(f"{where}.mc.antithetic: expected true or false, got {antithetic!r}")
        try:
            mc = MCConfig(paths=paths, seed=seed, antithetic=antithetic)
        except RobustRatesError as exc:
            raise ConfigError(f"{where}.mc: {exc}") from exc
    grid = _object(entry.get("grid", {}), f"{where}.grid")
    nx = _integer_field(grid, "nx", f"{where}.grid", 241)
    nt = _integer_field(grid, "nt", f"{where}.grid", 240)
    try:
        check_resolution(nx, nt)
    except RobustRatesError as exc:
        raise ConfigError(f"{where}.grid: {exc}") from exc
    try:
        if kind in LINEAR_KINDS:
            rate = entry.get("fixed_rate")
            contract = LinearContract(
                kind=kind,
                schedule=schedule,
                fixed_rate=None if rate is None else _number(rate, f"{where}.fixed_rate"),
                notional=notional,
            )
        elif kind in OPTION_KINDS:
            contract = OptionContract(
                kind=kind,
                schedule=schedule,
                strike_rate=_number_field(entry, "strike_rate", where),
                notional=notional,
            )
        elif kind == "stream":
            legs_cfg = _list(_require(entry, "legs", where), f"{where}.legs")
            if len(legs_cfg) != schedule.periods:
                raise ConfigError(
                    f"{where}.legs: need {schedule.periods} legs, got {len(legs_cfg)}"
                )
            legs = tuple(
                _parse_leg(leg, accrual, f"{where}.legs[{j}]")
                for j, (leg, accrual) in enumerate(zip(legs_cfg, schedule.accruals))
            )
            contract = CashflowStream(schedule=schedule, legs=legs, notional=notional)
        else:
            raise ConfigError(f"{where}.kind: unknown contract kind {kind!r}")
    except ConfigError:
        raise
    except RobustRatesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    method = entry.get("method", "quadrature-1f")
    if "method" in entry and kind != "swaption-payer":
        raise ConfigError(f"{where}.method: only swaption-payer contracts take a method")
    if method not in SWAPTION_METHODS:
        raise ConfigError(
            f"{where}.method: unknown swaption method {method!r}; use one of {SWAPTION_METHODS}"
        )
    return ConfiguredContract(
        name=name,
        contract=contract,
        method=method,
        mc=mc,
        nx=nx,
        nt=nt,
        seed_pinned="mc" in entry and "seed" in entry["mc"],
    )


def load_config(path: str) -> PricingSetup:
    """Parse and validate a run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    _object(raw, "config")
    curve = _parse_curve(_require(raw, "curve", "config"), base_dir)
    vol_section = _object(_require(raw, "vol_structure", "config"), "vol_structure")
    factors = _list(_require(vol_section, "factors", "vol_structure"), "vol_structure.factors")
    if not factors:
        raise ConfigError("vol_structure.factors: need at least one factor")
    vol = VolStructure(factors=tuple(_parse_factor(f, i, base_dir) for i, f in enumerate(factors)))
    band = _parse_band(_require(raw, "band", "config"))
    if band.dim != vol.dim:
        raise ConfigError(
            f"band: dimension {band.dim} does not match vol_structure dimension {vol.dim}"
        )
    entries = _list(_require(raw, "contracts", "config"), "contracts")
    if not entries:
        raise ConfigError("contracts: need at least one contract")
    contracts = tuple(_parse_contract(e, i) for i, e in enumerate(entries))
    for cc in contracts:
        if cc.contract.schedule.end > curve.horizon:
            raise ConfigError(
                f"contract '{cc.name}': schedule end {cc.contract.schedule.end} "
                f"exceeds curve horizon {curve.horizon}"
            )
    return PricingSetup(curve=curve, vol=vol, band=band, contracts=contracts)


def price_configured(
    setup: PricingSetup,
    cc: ConfiguredContract,
    band: UncertaintyBand | None = None,
    default_seed: int = 0,
    index: int = 0,
) -> PriceBounds:
    """Price one configured contract; the Monte Carlo seed derives from the
    run seed and the contract index unless the config pinned one."""
    band = band or setup.band
    contract = cc.contract
    try:
        if isinstance(contract, LinearContract):
            return price_linear(setup.curve, contract)
        if isinstance(contract, OptionContract):
            mc = cc.mc or MCConfig()
            if not cc.seed_pinned:
                seed = child_seed(default_seed, index)
                mc = MCConfig(paths=mc.paths, seed=seed, antithetic=mc.antithetic)
            return price_option(setup.curve, setup.vol, band, contract, method=cc.method, mc=mc)
        return price_stream(setup.curve, setup.vol, band, contract, nx=cc.nx, nt=cc.nt)
    except OverflowError as exc:  # a factor level too large for its variance integral
        raise DomainError(f"contract '{cc.name}': numerical overflow ({exc})") from exc
    except RobustRatesError as exc:
        raise type(exc)(f"contract '{cc.name}': {exc}") from exc
