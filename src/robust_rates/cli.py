"""Command-line front end.

    robust-rates price  CONFIG [--format table|json|csv] [--seed N] [--threads N]
    robust-rates stress CONFIG --epsilon E [same flags]
    robust-rates verify SUITE [--seed N]

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error,
3 pricing error.  Identical config and seed produce byte-identical reports
regardless of the thread count: contracts are priced concurrently but
reported in config order, and every contract's Monte Carlo stream is keyed
by (run seed, contract index).

``--threads`` falls back to the ROBUST_RATES_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import PricingSetup, load_config, price_configured
from .errors import ConfigError, RobustRatesError
from .uncertainty import UncertaintyBand, degenerate_band
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRICING = 3

FORMATS = ("table", "json", "csv")


def _fmt(x: float) -> str:
    """Prices rendered to 12 significant digits."""
    return f"{x:.12g}"


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("ROBUST_RATES_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"ROBUST_RATES_THREADS: not an integer: {env!r}") from None
    return 1


def _price_all(setup: PricingSetup, band: UncertaintyBand | None, seed: int, threads: int):
    """Price every contract, preserving config order in the results."""
    def job(i):
        cc = setup.contracts[i]
        return price_configured(setup, cc, band=band, default_seed=seed, index=i)

    indices = range(len(setup.contracts))
    if threads <= 1:
        return [job(i) for i in indices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job, indices))


def _rows_price(setup: PricingSetup, bounds_list, full_diagnostics: bool) -> list[dict]:
    rows = []
    for cc, b in zip(setup.contracts, bounds_list):
        kind = getattr(cc.contract, "kind", "stream")
        notional = cc.contract.notional
        row = {
            "name": cc.name,
            "kind": kind,
            "notional": notional,
            "lower": b.lower / notional,
            "upper": b.upper / notional,
            "symmetric": b.symmetric,
            "method": str(b.diagnostics.get("method", "")),
        }
        if full_diagnostics:
            row["diagnostics"] = b.diagnostics
        rows.append(row)
    return rows


def _emit(rows: list[dict], fmt: str, numeric_fields: tuple[str, ...]) -> str:
    if fmt == "json":
        return json.dumps({"contracts": rows}, indent=2, allow_nan=False)
    fields = list(rows[0].keys())
    if fmt == "csv":
        lines = [",".join(fields)]
        for r in rows:
            lines.append(",".join(
                _fmt(r[f]) if f in numeric_fields else str(r[f]) for f in fields
            ))
        return "\n".join(lines)
    # table
    cells = [[(_fmt(r[f]) if f in numeric_fields else str(r[f])) for f in fields] for r in rows]
    widths = [max(len(f), *(len(row[i]) for row in cells)) for i, f in enumerate(fields)]
    lines = ["  ".join(f.ljust(w) for f, w in zip(fields, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def cmd_price(args) -> int:
    setup = load_config(args.config)
    bounds = _price_all(setup, None, args.seed, _threads(args))
    rows = _rows_price(setup, bounds, full_diagnostics=args.format == "json")
    print(_emit(rows, args.format, ("notional", "lower", "upper")))
    return EXIT_OK


def cmd_stress(args) -> int:
    if not (0.0 < args.epsilon < 1.0):
        raise ConfigError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    setup = load_config(args.config)
    d = setup.band.dim
    stress_band = UncertaintyBand(
        lower=tuple(1.0 - args.epsilon for _ in range(d)),
        upper=tuple(1.0 + args.epsilon for _ in range(d)),
    )
    unit_band = degenerate_band(1.0, dim=d)
    threads = _threads(args)
    stressed = _price_all(setup, stress_band, args.seed, threads)
    classical = _price_all(setup, unit_band, args.seed, threads)
    rows = []
    for cc, sb, cb in zip(setup.contracts, stressed, classical):
        notional = cc.contract.notional
        classic = cb.mid / notional
        lower = sb.lower / notional
        upper = sb.upper / notional
        half_spread = 0.5 * (upper - lower)
        rows.append({
            "name": cc.name,
            "kind": getattr(cc.contract, "kind", "stream"),
            "classical": classic,
            "lower": lower,
            "upper": upper,
            "rel_half_spread": half_spread / max(abs(classic), 1e-12),
        })
    print(_emit(rows, args.format, ("classical", "lower", "upper", "rel_half_spread")))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from: {', '.join(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    results = run_suite(args.suite, seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{status}] {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _add_global_flags(p: argparse.ArgumentParser, top: bool) -> None:
    # Flags live on the top-level parser with real defaults and on each
    # subparser with SUPPRESS, so both positions work and a subcommand
    # occurrence wins without clobbering a top-level one.
    default = dict(default=argparse.SUPPRESS) if not top else {}
    p.add_argument("--format", choices=FORMATS,
                   **(default or {"default": "table"}))
    p.add_argument("--seed", type=int, help="run seed for Monte Carlo streams",
                   **(default or {"default": 0}))
    p.add_argument("--threads", type=int,
                   help="price contracts concurrently (env ROBUST_RATES_THREADS)",
                   **(default or {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robust-rates",
        description="Robust fixed-income pricing under uncertain volatility.",
    )
    _add_global_flags(p, top=True)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("price", help="price every contract in a config file")
    sp.add_argument("config")
    _add_global_flags(sp, top=False)
    sp.set_defaults(fn=cmd_price)

    ss = sub.add_parser("stress", help="reprice under a symmetric band around unit volatility")
    ss.add_argument("config")
    ss.add_argument("--epsilon", type=float, required=True)
    _add_global_flags(ss, top=False)
    ss.set_defaults(fn=cmd_stress)

    sv = sub.add_parser("verify", help="run a built-in verification suite")
    sv.add_argument("suite")
    _add_global_flags(sv, top=False)
    sv.set_defaults(fn=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RobustRatesError as exc:
        print(f"pricing error: {exc}", file=sys.stderr)
        return EXIT_PRICING


if __name__ == "__main__":
    sys.exit(main())
