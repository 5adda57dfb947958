"""Seeded inputs for the three benchmark workloads.

Every workload is written as robust-rates config files and read back through
``robust_rates.config.load_config``, so the program only ever sees generated
inputs.  What the seed changes, and what it keeps fixed:

* vanilla-book -- a fixed universe of 2 x 2000 closed-form contracts (built
  from ``UNIVERSE_SEED``, committed reference prices for every one).  The run
  seed picks one contract out of each neighbouring pair of the universe
  sorted by (kind, periods, strike), so every seed gets a book of the same
  size and cost mix, then shuffles the order and draws the notionals.
* stream-book -- a fixed set of 26 streams, each at a fixed notional, whose
  PDE bounds have committed high-resolution references and whose
  ``--threads 1`` output rows are committed too.  The seed shuffles the
  order within each group.  Groups stay in a fixed order (coupled pairs
  first) because the thread pool's makespan depends on where the long jobs
  sit.
* oracle-audit -- a fixed battery of oracle checks (lattice, scenario
  families, Monte Carlo swaptions).  The seed shuffles the order and keys
  the swaption Monte Carlo streams; the scenario families keep the
  committed seeds in ``AUDIT_SCENARIO_SEED``, so that their one-sided
  3-standard-error checks are deterministic.
"""

from __future__ import annotations

import json
import os

import numpy as np

HORIZON = 30.0
CURVE = {
    "knots": [[0.0, 0.015], [5.0, 0.025], [10.0, 0.03], [30.0, 0.035]],
    "interpolation": "linear",
    "horizon": HORIZON,
}
BAND = {"sigma_lower": [0.5], "sigma_upper": [1.5]}
MODELS = {
    "hl": [{"kind": "ho-lee", "c": 0.01}],
    "hw": [{"kind": "hull-white", "c": 0.012, "kappa": 0.1}],
}
TWO_FACTOR = [{"kind": "ho-lee", "c": 0.008}, {"kind": "hull-white", "c": 0.01, "kappa": 0.2}]
BAND_2F = {"sigma_lower": [0.5, 0.5], "sigma_upper": [1.5, 1.5]}

UNIVERSE_SEED = 2003_04606
UNIVERSE_SINGLES = 1700
UNIVERSE_TRIPLES = 100  # cap / floor / payer swap on one schedule and strike
SINGLE_KINDS = (
    ("fixed-coupon-bond", 0.10),
    ("floating-rate-note", 0.10),
    ("payer-swap", 0.10),
    ("cap", 0.20),
    ("floor", 0.15),
    ("in-arrears-payer-swap", 0.15),
    ("swaption-payer", 0.20),
)

AUDIT_SCENARIO_SEED = 20200310
LATTICE_STEPS = 2000
MC_PATHS = 100_000

# Generator parameters, recorded with every result.
PARAMETERS = {
    "vanilla-book": {
        "models": ["ho-lee", "hull-white"],
        "universe_seed": UNIVERSE_SEED,
        "universe_per_model": UNIVERSE_SINGLES + 3 * UNIVERSE_TRIPLES,
        "book_per_model": (UNIVERSE_SINGLES + 3 * UNIVERSE_TRIPLES) // 2,
        "periods": [2, 40],
        "strike_rate": [0.005, 0.05],
        "accrual": [0.25, 0.5, 1.0],
        "notional": [1e4, 1e7],
        "threads": 1,
        "pool_threads": 2,
    },
    "stream-book": {
        "models": ["ho-lee", "hull-white"],
        "per_model": {"coupled-pair": 3, "general": 6, "concave": 2, "convex": 2},
        "grid": {"nx": 241, "nt": 240},
        "notional": 1e6,
        "threads": 1,
        "pool_threads": 2,
    },
    "oracle-audit": {
        "lattice_steps": LATTICE_STEPS,
        "mc_paths": MC_PATHS,
        "scenario_families": {"constant": 3, "piecewise": 16},
        "scenario_seed": AUDIT_SCENARIO_SEED,
    },
}


def _config(factors, band, contracts) -> dict:
    return {"curve": CURVE, "vol_structure": {"factors": factors}, "band": band,
            "contracts": contracts}


def write_config(path: str, config: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


# -- vanilla-book ------------------------------------------------------------


def _schedule(rng) -> list[float]:
    accrual = float(rng.choice([0.25, 0.5, 1.0]))
    start = 0.25 * int(rng.integers(1, 21))
    n = int(rng.integers(2, min(40, int((HORIZON - start) / accrual)) + 1))
    return [start + accrual * k for k in range(n + 1)]


def _strike(rng) -> float:
    return round(float(rng.uniform(0.005, 0.05)), 5)


def _vanilla_entry(kind: str, schedule: list[float], strike: float) -> dict:
    entry = {"kind": kind, "schedule": schedule}
    if kind in ("fixed-coupon-bond", "payer-swap"):
        entry["fixed_rate"] = strike
    elif kind != "floating-rate-note":
        entry["strike_rate"] = strike
    if kind == "swaption-payer":
        entry["method"] = "quadrature-1f"
    return entry


def vanilla_universe(model: str) -> tuple[list[dict], list[tuple[int, int, int]]]:
    """(entries, parity triples as universe indices) for one model; fixed."""
    rng = np.random.default_rng([UNIVERSE_SEED, list(MODELS).index(model)])
    kinds, weights = zip(*SINGLE_KINDS)
    entries: list[dict] = []
    for _ in range(UNIVERSE_SINGLES):
        kind = str(rng.choice(kinds, p=weights))
        entries.append(_vanilla_entry(kind, _schedule(rng), _strike(rng)))
    triples = []
    for _ in range(UNIVERSE_TRIPLES):
        schedule, strike = _schedule(rng), _strike(rng)
        first = len(entries)
        for kind in ("cap", "floor", "payer-swap"):
            entries.append(_vanilla_entry(kind, schedule, strike))
        triples.append((first, first + 1, first + 2))
    return entries, triples


def _pick_half(rng, items: list, key) -> list:
    """One item out of each neighbouring pair in key order."""
    ordered = sorted(items, key=key)
    return [ordered[i + int(rng.integers(0, 2))] for i in range(0, len(ordered) - 1, 2)]


def _notional(rng) -> float:
    return float(rng.integers(1, 1001)) * 1e4


def vanilla_book(seed: int, out_dir: str) -> list[dict]:
    """Write one config per model; return [{model, path, uids, names}]."""
    books = []
    for m, model in enumerate(MODELS):
        rng = np.random.default_rng([seed, 1, m])
        entries, triples = vanilla_universe(model)
        in_triple = {u for t in triples for u in t}
        singles = [u for u in range(len(entries)) if u not in in_triple]

        def size(u):
            e = entries[u]
            return (e["kind"], len(e["schedule"]), e.get("strike_rate", e.get("fixed_rate", 0.0)))

        picked = _pick_half(rng, singles, size)
        picked += [u for t in _pick_half(rng, triples, lambda t: size(t[0])) for u in t]
        rng.shuffle(picked)
        contracts = [
            {"name": f"{model}-{u:04d}", "notional": _notional(rng), **entries[u]} for u in picked
        ]
        path = write_config(os.path.join(out_dir, f"vanilla-{model}.json"),
                            _config(MODELS[model], BAND, contracts))
        books.append({"model": model, "path": path, "uids": picked})
    return books


# -- stream-book ---------------------------------------------------------------


def _ccs(strike, cap):
    return {"type": "capped-call-spread", "strike": strike, "cap": cap}


def _const(amount):
    return {"type": "constant", "amount": amount}


def _stream(start, legs, accrual=0.5):
    return {"kind": "stream", "schedule": [start + accrual * k for k in range(len(legs) + 1)],
            "legs": legs}


# (group, stream) in group order; the same set under each model.
STREAMS = [
    ("coupled-pair", _stream(1.0, [_ccs(0.985, 0.01), {"type": "caplet", "strike_rate": 0.04}])),
    ("coupled-pair", _stream(1.5, [_ccs(0.984, 0.012), {"type": "floorlet", "strike_rate": 0.02}])),
    ("coupled-pair", _stream(2.0, [_ccs(0.983, 0.01), {"type": "caplet", "strike_rate": 0.035}])),
    ("general", _stream(1.0, [_ccs(0.985, 0.01), _const(0.01)])),
    ("general", _stream(1.5, [_const(0.005), _ccs(0.986, 0.008)])),
    ("general", _stream(2.0, [_ccs(0.982, 0.015), {"type": "floating", "slope": 0.5}])),
    ("general", _stream(3.0, [_ccs(0.98, 0.01)])),
    ("general", _stream(0.5, [_ccs(0.99, 0.006), _const(0.02)])),
    ("general", _stream(2.5, [_const(0.01), _const(0.01), _ccs(0.981, 0.012)])),
    ("concave", _stream(1.0, [{"type": "capped-forward", "cap": c}
                              for c in (0.99, 0.988, 0.987, 0.986, 0.985, 0.984)])),
    ("concave", _stream(2.0, [{"type": "capped-forward", "cap": c}
                              for c in (0.985, 0.984, 0.983, 0.982, 0.981, 0.98)])),
    ("convex", _stream(1.0, [{"type": "caplet", "strike_rate": 0.03},
                             {"type": "floorlet", "strike_rate": 0.02},
                             {"type": "in-arrears", "strike_rate": 0.025}])),
    ("convex", _stream(2.0, [{"type": "floorlet", "strike_rate": 0.025}, _const(0.01),
                             {"type": "caplet", "strike_rate": 0.035}])),
]
GROUPS = ("coupled-pair", "general", "concave", "convex")
STREAM_NOTIONAL = 1e6


def stream_id(model: str, k: int) -> str:
    return f"{model}-s{k:02d}"


def stream_book(seed: int, out_dir: str) -> list[dict]:
    books = []
    for m, model in enumerate(MODELS):
        rng = np.random.default_rng([seed, 2, m])
        order = []
        for group in GROUPS:
            ks = [k for k, (g, _) in enumerate(STREAMS) if g == group]
            rng.shuffle(ks)
            order += ks
        contracts = [
            {"name": stream_id(model, k), "notional": STREAM_NOTIONAL, **STREAMS[k][1]} for k in order
        ]
        path = write_config(os.path.join(out_dir, f"stream-{model}.json"),
                            _config(MODELS[model], BAND, contracts))
        books.append({"model": model, "path": path, "ids": [stream_id(model, k) for k in order]})
    return books


def stream_config(model: str) -> dict:
    """The whole stream set in group order (for the reference script)."""
    contracts = [{"name": stream_id(model, k), "notional": STREAM_NOTIONAL, **s}
                 for k, (_, s) in enumerate(STREAMS)]
    return _config(MODELS[model], BAND, contracts)


# -- oracle-audit --------------------------------------------------------------

CAPLET = _stream(2.0, [{"type": "caplet", "strike_rate": 0.03}])
SPREAD = _stream(2.0, [_ccs(0.985, 0.01)])
PAIR = STREAMS[0][1]
SCENARIO_CONTRACTS = {
    "cap": {"kind": "cap", "schedule": [1.0, 1.5, 2.0], "strike_rate": 0.03},
    "in-arrears": {"kind": "in-arrears-payer-swap", "schedule": [1.0, 1.5, 2.0],
                   "strike_rate": 0.03},
    "swaption": {"kind": "swaption-payer", "schedule": [2.0, 2.5, 3.0, 3.5, 4.0],
                 "strike_rate": 0.03},
    "stream": PAIR,
}
SWAPTION_1F = {"kind": "swaption-payer", "schedule": [2.0 + 0.5 * k for k in range(9)],
               "strike_rate": 0.03, "method": "monte-carlo", "mc": {"paths": MC_PATHS}}
SWAPTION_2F = {"kind": "swaption-payer", "schedule": [2.0 + 0.25 * k for k in range(41)],
               "strike_rate": 0.03, "method": "monte-carlo", "mc": {"paths": MC_PATHS}}


def audit_checks() -> list[dict]:
    """The fixed battery: each check names its config, contract and oracle."""
    checks = []
    for model in MODELS:
        for what in ("caplet", "spread"):
            for side in ("upper", "lower"):
                checks.append({"id": f"lattice-{what}-{model}-{side}", "oracle": "lattice",
                               "config": model, "contract": what, "side": side})
    for what in SCENARIO_CONTRACTS:
        for family in ("constant", "piecewise"):
            checks.append({"id": f"scenario-{what}-{family}", "oracle": "scenario",
                           "config": "hl", "contract": what, "family": family})
    for config in ("hl", "hw", "2f"):
        checks.append({"id": f"mc-swaption-{config}", "oracle": "mc-swaption",
                       "config": config, "contract": "swaption"})
    for index, check in enumerate(checks):
        check["index"] = index  # keys the check's Monte Carlo stream
    return checks


def audit_configs() -> dict[str, dict]:
    one_factor = [{"name": "caplet", **CAPLET}, {"name": "spread", **SPREAD},
                  {"name": "swaption", **SWAPTION_1F}]
    configs = {m: _config(MODELS[m], BAND, list(one_factor)) for m in MODELS}
    configs["hl"]["contracts"] += [{"name": k, **v} for k, v in SCENARIO_CONTRACTS.items()]
    configs["2f"] = _config(TWO_FACTOR, BAND_2F, [{"name": "swaption", **SWAPTION_2F}])
    return configs


def oracle_audit(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    checks = audit_checks()
    rng.shuffle(checks)
    paths = {name: write_config(os.path.join(out_dir, f"audit-{name}.json"), cfg)
             for name, cfg in audit_configs().items()}
    return {"paths": paths, "checks": checks, "mc_seed": int(rng.integers(0, 2**31))}
