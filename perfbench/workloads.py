"""The three workloads: one timed pass each, and the correctness gate.

A pass prices the whole workload once: ``robust-rates price --format json``
through ``cli.main`` on every generated config (vanilla-book, stream-book),
or every check of the audit battery (oracle-audit).  ``check`` runs outside
the timed region and returns, per pass, which operations failed plus the
largest deviation from the committed reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from time import thread_time

import books

# Tolerances, per unit notional.
ROUNDING_FLOOR = 1e-12  # ref_err_max reports at least this: smaller deviations are rounding
VANILLA_TOL = 1e-10     # closed forms against the committed outputs of the same closed forms
PARITY_TOL = 1e-12      # cap - floor = payer swap at each bound
SANDWICH_TOL = 1e-9     # sum of leg lower bounds <= stream bounds <= sum of leg upper bounds
STREAM_TOL = 2e-5       # PDE bounds against the high-resolution reference (3x the worst default-grid error)
LATTICE_TOL = 5e-6      # 2000-step lattice against closed forms / high-resolution PDE
SCENARIO_SE = 3.0       # scenario family max <= engine upper + 3 se
MC_SE = 4.0             # one-factor MC swaption within 4 se of the quadrature

# Vector share of each kind of operation: the weight of speed.vector in the
# host slowdown that rescales its CPU time (see speed.py).  Fitted on the
# benchmark's host: each kind was timed 154 times over 12 minutes, between
# runs of the two kernels, and its share set to the tenth that left the
# smallest quartile spread.  Coupled pairs, scenario families and Monte Carlo
# work on arrays of 1e4-1e5 points; the rest is interpreted.
VECTOR_SHARE = {
    "closed-form": 0.2,
    "convex-decoupled": 0.3,
    "concave-decoupled": 0.2,
    "single-option-pde": 0.2,
    "coupled-pair-pde": 1.0,
    "lattice": 0.2,
    "scenario": 1.0,
    "mc-swaption": 0.8,
}

PIECEWISE_SWITCHES = (0.25, 0.5, 0.75)  # four segments: a family of 2^4 = 16


def _finite(*xs) -> bool:
    return all(isinstance(x, float) and math.isfinite(x) for x in xs)


def digest(output) -> str:
    """Fingerprint of a pass's output (repr keeps every digit of a float)."""
    return hashlib.sha256(repr(output).encode()).hexdigest()


class Outputs:
    """The first pass's output in full and a digest of every pass's, so that
    memory does not grow with the number of passes."""

    def __init__(self) -> None:
        self.first = None
        self.digests: list[str] = []

    def add(self, output) -> None:
        if self.first is None:
            self.first = output
        self.digests.append(digest(output))


class CliBook:
    """A book priced by ``robust-rates price --format json`` over its configs.

    Timed passes run at ``--threads 1``.  The traced run adds one pass at
    ``--threads pool_threads``: it gives ``cli.thread_efficiency`` and must
    print the same bytes as the single-threaded passes.
    """

    threads = 1
    pool_threads = 2

    def __init__(self, configs: list[dict], reference: dict) -> None:
        self.configs = configs
        self.reference = reference
        self.size = sum(len(c["names"]) for c in configs)

    def config_paths(self) -> list[str]:
        return [c["path"] for c in self.configs]

    def run_pass(self, threads: int, tracer=None, clock=None) -> list[tuple[int, str]]:
        """(exit code, stdout) per config.  With a clock, the CPU seconds of
        each contract's thread (one thread_time pair) are recorded on it with
        the contract's vector share, and the clock may run its kernels
        between contracts."""
        from robust_rates import cli

        original = cli.price_configured
        if clock is not None:
            def timed(setup, cc, *args, **kwargs):
                start = thread_time()
                try:
                    return original(setup, cc, *args, **kwargs)
                finally:
                    clock.record(thread_time() - start, self.vector_share(cc.name))
                    clock.tick()

            cli.price_configured = timed
        outputs = []
        try:
            for c in self.configs:
                if tracer is not None:
                    tracer.context = f"{c['model']}:"
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["price", c["path"], "--format", "json",
                                     "--threads", str(threads)])
                outputs.append((code, buf.getvalue()))
        finally:
            cli.price_configured = original
        return outputs

    def expected(self, first: list) -> list:
        """The output every pass must reproduce byte for byte."""
        return first

    def check(self, outputs: Outputs) -> tuple[list[int], float]:
        """Failed operations per pass and the largest reference deviation.

        The first pass is checked in full; every pass must then print
        ``expected`` byte for byte, or all its operations count as failed.
        """
        bad: set[tuple[int, int]] = set()
        err = 0.0
        for ci, (c, (code, text)) in enumerate(zip(self.configs, outputs.first)):
            rows = json.loads(text)["contracts"] if code == 0 else []
            if [r["name"] for r in rows] != c["names"]:
                bad.update((ci, r) for r in range(len(c["names"])))
                continue
            for r, row in enumerate(rows):
                lo, hi = row["lower"], row["upper"]
                if not (_finite(lo, hi) and lo <= hi) or (row["symmetric"] and lo != hi):
                    bad.add((ci, r))
                    continue
                ref_lo, ref_hi, tol = self.reference_of(c, row)
                dev = max(abs(lo - ref_lo), abs(hi - ref_hi))
                err = max(err, dev)
                if not dev <= tol:
                    bad.add((ci, r))
            bad.update((ci, r) for r in self.invariant_failures(c, rows))
        expected = digest(self.expected(outputs.first))
        failed = [len(bad) if d == expected else self.size for d in outputs.digests]
        return failed, max(err, ROUNDING_FLOOR)


class VanillaBook(CliBook):
    name = "vanilla-book"
    # p99.9 has 10 samples beyond it at 10000 samples, but it read 4-20 ms
    # across runs (interpreter and host pauses); p99 keeps >= 100 beyond.
    tail_percentile = 99.0
    min_passes = 5
    warm_up = True

    def __init__(self, seed: int, out_dir: str, reference: dict) -> None:
        configs = books.vanilla_book(seed, out_dir)
        for c in configs:
            c["names"] = [f"{c['model']}-{u:04d}" for u in c["uids"]]
        super().__init__(configs, reference)

    def vector_share(self, name: str) -> float:
        return VECTOR_SHARE["closed-form"]

    def reference_of(self, c, row):
        uid = int(row["name"].rsplit("-", 1)[1])
        lo, hi = self.reference["vanilla"][c["model"]][uid]
        return lo, hi, VANILLA_TOL

    def invariant_failures(self, c, rows) -> set[int]:
        """Rows of matched cap/floor/swap triples that break parity at a bound."""
        _, triples = books.vanilla_universe(c["model"])
        at = {u: r for r, u in enumerate(c["uids"])}
        bad = set()
        for t in triples:
            if not all(u in at for u in t):
                continue
            cap, floor, swap = (rows[at[u]] for u in t)
            for side in ("lower", "upper"):
                if not abs(cap[side] - floor[side] - swap[side]) <= PARITY_TOL:
                    bad.update(at[u] for u in t)
        return bad


class StreamBook(CliBook):
    name = "stream-book"
    # 78 latency samples: 10.1 beyond p87.  The blocks (2 convex, 6 + 6
    # general, 4 concave, 6 pairs per pass) put p50 inside the Ho-Lee
    # general legs and p87 inside the coupled pairs, away from block edges.
    tail_percentile = 87.0
    min_passes = 3
    warm_up = False  # a pass takes ~10 s; the median over passes drops the cold one

    def __init__(self, seed: int, out_dir: str, reference: dict) -> None:
        configs = books.stream_book(seed, out_dir)
        for c in configs:
            c["names"] = c["ids"]
        super().__init__(configs, reference)

    def expected(self, first: list) -> list:
        """The committed --threads 1 output of this book, row for row."""
        rows = self.reference["stream"]
        return [(0, json.dumps({"contracts": [rows[n]["row"] for n in c["names"]]}, indent=2) + "\n")
                for c in self.configs]

    def vector_share(self, name: str) -> float:
        return VECTOR_SHARE[self.reference["stream"][name]["row"]["method"]]

    def reference_of(self, c, row):
        ref = self.reference["stream"][row["name"]]
        lo, hi = ref["ref"]
        return lo, hi, STREAM_TOL if ref["pde"] else VANILLA_TOL

    def invariant_failures(self, c, rows) -> set[int]:
        """Rows outside the per-leg sublinearity sandwich."""
        from robust_rates.config import load_config
        from robust_rates.stream import price_leg_bounds

        setup = load_config(c["path"])
        bad = set()
        for r, (cc, row) in enumerate(zip(setup.contracts, rows)):
            legs = [price_leg_bounds(setup.curve, setup.vol, setup.band, cc.contract, j,
                                     nx=cc.nx, nt=cc.nt)
                    for j in range(len(cc.contract.legs))]
            lo_sum = sum(b.lower for b in legs)
            hi_sum = sum(b.upper for b in legs)
            if not (lo_sum <= row["lower"] + SANDWICH_TOL and row["upper"] <= hi_sum + SANDWICH_TOL):
                bad.add(r)
        return bad


class OracleAudit:
    """The audit battery: lattice, scenario-family and Monte Carlo checks."""

    name = "oracle-audit"
    threads = 1
    pool_threads = None
    tail_percentile = 90.0
    min_passes = 6  # 114 latency samples: 11.4 beyond p90
    warm_up = True

    def __init__(self, seed: int, out_dir: str, reference: dict) -> None:
        from robust_rates.config import load_config

        audit = books.oracle_audit(seed, out_dir)
        self.paths = audit["paths"]
        self.checks = audit["checks"]
        self.mc_seed = audit["mc_seed"]
        self.reference = reference
        self.size = len(self.checks)
        self.setups = {k: load_config(p) for k, p in self.paths.items()}
        self.engine = None

    def config_paths(self) -> list[str]:
        return list(self.paths.values())

    def _contract(self, config: str, name: str):
        setup = self.setups[config]
        return setup, next(cc for cc in setup.contracts if cc.name == name)

    def engine_values(self) -> dict:
        """Engine bounds the oracle checks compare against (outside any timing)."""
        from robust_rates.config import price_configured
        from robust_rates.option_pricing import price_swaption

        values = {}
        for check in self.checks:
            setup, cc = self._contract(check["config"], check["contract"])
            if check["oracle"] == "scenario":
                values[check["id"]] = price_configured(setup, cc).upper
            elif check["oracle"] == "mc-swaption" and setup.vol.dim == 1:
                b = price_swaption(setup.curve, setup.vol, setup.band, cc.contract)
                values[check["id"]] = (b.lower, b.upper)
        return values

    def run_check(self, check: dict) -> tuple:
        from robust_rates import option_pricing, oracle
        from robust_rates.mc import MCConfig, child_seed

        setup, cc = self._contract(check["config"], check["contract"])
        if check["oracle"] == "lattice":
            leg = cc.contract.legs[0]
            T, T_i = cc.contract.schedule.dates[:2]
            sign = 1.0 if check["side"] == "upper" else -1.0
            v = oracle.lattice_price(setup.curve, setup.vol, setup.band, T, T, T_i,
                                     lambda p: sign * leg.payoff(p), books.LATTICE_STEPS)
            return (sign * v * setup.curve.bond_price(T),)
        if check["oracle"] == "scenario":
            controls = (oracle.ConstantControls(3) if check["family"] == "constant"
                        else oracle.PiecewiseControls(k=2, switch_dates=PIECEWISE_SWITCHES))
            mc = MCConfig(paths=books.MC_PATHS, seed=child_seed(books.AUDIT_SCENARIO_SEED, check["index"]))
            r = oracle.scenario_sup(setup.curve, setup.vol, setup.band, cc.contract, controls, mc)
            return (r.value, r.se)
        mc = MCConfig(paths=books.MC_PATHS, seed=child_seed(self.mc_seed, check["index"]))
        b = option_pricing.price_swaption(setup.curve, setup.vol, setup.band, cc.contract,
                                          method="monte-carlo", mc=mc)
        return (b.lower, b.upper, b.diagnostics["se_lower"], b.diagnostics["se_upper"])

    def run_pass(self, threads: int, tracer=None, clock=None) -> list[tuple]:
        """One result tuple per check; a pricing error reads as (nan,).
        With a clock, each check's CPU seconds are recorded on it with the
        vector share of its oracle."""
        from robust_rates.errors import RobustRatesError

        run = self.run_check
        if tracer is not None:
            run = tracer.wrap("audit", "check", run, contract=lambda a, k: a[0]["id"])
        out = []
        for check in self.checks:
            start = thread_time()
            try:
                out.append(run(check))
            except RobustRatesError:
                out.append((math.nan,))
            if clock is not None:
                clock.record(thread_time() - start, VECTOR_SHARE[check["oracle"]])
                clock.tick()
        return out

    def check(self, outputs: Outputs) -> tuple[list[int], float]:
        if self.engine is None:
            self.engine = self.engine_values()
        bad = set()
        err = 0.0
        for i, (check, res) in enumerate(zip(self.checks, outputs.first)):
            if not _finite(*res):
                bad.add(i)
                continue
            if check["oracle"] == "lattice":
                dev = abs(res[0] - self.reference["audit"][check["id"]]["ref"])
                err = max(err, dev)
                ok = dev <= LATTICE_TOL
            elif check["oracle"] == "scenario":
                ok = res[0] <= self.engine[check["id"]] + SCENARIO_SE * res[1]
            else:
                lo, hi, se_lo, se_hi = res
                ok = 0.0 <= lo <= hi <= 1.0
                if check["id"] in self.engine:
                    q_lo, q_hi = self.engine[check["id"]]
                    ok = ok and abs(lo - q_lo) <= MC_SE * se_lo and abs(hi - q_hi) <= MC_SE * se_hi
            if not ok:
                bad.add(i)
        first = outputs.digests[0]
        failed = [len(bad) if d == first else self.size for d in outputs.digests]
        return failed, max(err, ROUNDING_FLOOR)


WORKLOADS = {w.name: w for w in (VanillaBook, StreamBook, OracleAudit)}
