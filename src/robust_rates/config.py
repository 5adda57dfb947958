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
from .errors import ConfigError, RobustRatesError
from .linear_pricing import LINEAR_KINDS, LinearContract, TenorSchedule, price_linear
from .mc import MCConfig, child_seed
from .option_pricing import OPTION_KINDS, OptionContract, price_option
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


def _parse_curve(section, base_dir: str) -> DiscountCurve:
    if not isinstance(section, dict):
        raise ConfigError("curve: expected an object")
    if "csv" in section:
        path = os.path.join(base_dir, section["csv"])
        return load_curve(
            path,
            interpolation=section.get("interpolation", "linear"),
            horizon=section.get("horizon"),
        )
    knots = _require(section, "knots", "curve")
    try:
        return DiscountCurve(
            knots=tuple((float(m), float(r)) for m, r in knots),
            interpolation=section.get("interpolation", "linear"),
            horizon=section.get("horizon"),
        )
    except RobustRatesError as exc:
        raise ConfigError(f"curve: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"curve.knots: expected [[maturity, rate], ...]: {exc}") from exc


def _parse_factor(f: dict, idx: int, base_dir: str):
    kind = _require(f, "kind", f"vol_structure.factors[{idx}]")
    try:
        if kind == "ho-lee":
            return HoLeeFactor(c=float(_require(f, "c", f"factors[{idx}]")))
        if kind == "hull-white":
            return HullWhiteFactor(
                c=float(_require(f, "c", f"factors[{idx}]")),
                kappa=float(_require(f, "kappa", f"factors[{idx}]")),
            )
        if kind == "tabulated":
            return load_tabulated_factor(
                os.path.join(base_dir, _require(f, "csv", f"factors[{idx}]"))
            )
    except RobustRatesError as exc:
        raise ConfigError(f"vol_structure.factors[{idx}]: {exc}") from exc
    raise ConfigError(f"vol_structure.factors[{idx}].kind: unknown kind {kind!r}")


def _parse_band(section) -> UncertaintyBand:
    lo = _require(section, "sigma_lower", "band")
    hi = _require(section, "sigma_upper", "band")
    try:
        return UncertaintyBand(lower=tuple(map(float, lo)), upper=tuple(map(float, hi)))
    except RobustRatesError as exc:
        raise ConfigError(f"band: {exc}") from exc


def _parse_schedule(entry, where: str, name: str) -> TenorSchedule:
    dates = _require(entry, "schedule", where)
    try:
        return TenorSchedule(dates=tuple(float(d) for d in dates))
    except RobustRatesError as exc:
        raise ConfigError(f"{where}.schedule: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"{where}.schedule: contract '{name}': expected a list of dates, got {dates!r}"
        ) from exc


def _parse_notional(entry, where: str) -> float:
    """Prices are reported per unit notional, so it must be finite and nonzero."""
    value = entry.get("notional", 1.0)
    try:
        notional = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.notional: expected a number, got {value!r}") from exc
    if notional == 0.0 or not math.isfinite(notional):
        raise ConfigError(f"{where}.notional: must be finite and nonzero, got {value!r}")
    return notional


def _parse_leg(leg: dict, accrual: float, where: str):
    kind = _require(leg, "type", where)
    try:
        if kind == "constant":
            return ConstantLeg(amount=float(_require(leg, "amount", where)))
        if kind == "floating":
            return FloatingLinearLeg(
                slope=float(_require(leg, "slope", where)),
                intercept=float(leg.get("intercept", 0.0)),
            )
        if kind == "caplet":
            return caplet_leg(accrual, float(_require(leg, "strike_rate", where)))
        if kind == "floorlet":
            return floorlet_leg(accrual, float(_require(leg, "strike_rate", where)))
        if kind == "in-arrears":
            return in_arrears_leg(accrual, float(_require(leg, "strike_rate", where)))
        if kind == "capped-call-spread":
            return capped_call_spread_leg(
                float(_require(leg, "strike", where)), float(_require(leg, "cap", where))
            )
        if kind == "capped-forward":
            return capped_forward_leg(float(_require(leg, "cap", where)))
    except RobustRatesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: unknown leg type {kind!r}")


def _parse_contract(entry: dict, idx: int) -> ConfiguredContract:
    where = f"contracts[{idx}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _require(entry, "kind", where)
    name = str(entry.get("name", f"contract-{idx}"))
    notional = _parse_notional(entry, where)
    schedule = _parse_schedule(entry, where, name)
    mc = None
    if "mc" in entry:
        m = entry["mc"]
        mc = MCConfig(
            paths=int(m.get("paths", 100_000)),
            seed=int(m.get("seed", 0)),
            antithetic=bool(m.get("antithetic", True)),
        )
    try:
        if kind in LINEAR_KINDS:
            rate = entry.get("fixed_rate")
            contract = LinearContract(
                kind=kind,
                schedule=schedule,
                fixed_rate=None if rate is None else float(rate),
                notional=notional,
            )
        elif kind in OPTION_KINDS:
            contract = OptionContract(
                kind=kind,
                schedule=schedule,
                strike_rate=float(_require(entry, "strike_rate", where)),
                notional=notional,
            )
        elif kind == "stream":
            legs_cfg = _require(entry, "legs", where)
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
    grid = entry.get("grid", {})
    return ConfiguredContract(
        name=name,
        contract=contract,
        method=entry.get("method", "quadrature-1f"),
        mc=mc,
        nx=int(grid.get("nx", 241)),
        nt=int(grid.get("nt", 240)),
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
    curve = _parse_curve(_require(raw, "curve", "config"), base_dir)
    factors = _require(_require(raw, "vol_structure", "config"), "factors", "vol_structure")
    if not factors:
        raise ConfigError("vol_structure.factors: need at least one factor")
    vol = VolStructure(factors=tuple(_parse_factor(f, i, base_dir) for i, f in enumerate(factors)))
    band = _parse_band(_require(raw, "band", "config"))
    if band.dim != vol.dim:
        raise ConfigError(
            f"band: dimension {band.dim} does not match vol_structure dimension {vol.dim}"
        )
    entries = _require(raw, "contracts", "config")
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
    if isinstance(contract, LinearContract):
        return price_linear(setup.curve, contract)
    if isinstance(contract, OptionContract):
        mc = cc.mc or MCConfig()
        if not cc.seed_pinned:
            mc = MCConfig(paths=mc.paths, seed=child_seed(default_seed, index), antithetic=mc.antithetic)
        return price_option(setup.curve, setup.vol, band, contract, method=cc.method, mc=mc)
    return price_stream(setup.curve, setup.vol, band, contract, nx=cc.nx, nt=cc.nt)
