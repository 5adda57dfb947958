"""In-memory span tracer installed around the program's public entry points.

Each wrapped call records one span: layer, name, start, end, parent span,
contract id, plus a work count and a tag read from its arguments or result.
Spans nest per thread.  A span's self time is its duration minus the time
covered by its direct child spans (children run sequentially within one
thread, so their durations add).  Nothing here changes the program: the
wrappers replace module and class attributes and ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
from time import perf_counter

# Span record fields (a list while open, kept as-is when closed).
ID, PARENT, PARENT_LAYER, LAYER, NAME, CONTRACT, START, END, CHILD_S, WORK, TAG = range(11)


def _arg(fn, name):
    """Reader for one argument of fn, given by name, from (args, kwargs)."""
    sig = inspect.signature(fn)
    pos = list(sig.parameters).index(name)
    default = sig.parameters[name].default

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default

    return read


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.context = ""  # prefix of contract ids, e.g. the config being priced
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, layer, name, fn, contract=None, work=None, tag=None):
        """fn wrapped to record a span; contract/work/tag read (args, kwargs[, out])."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._tls, "stack", None)
            if stack is None:
                stack = tracer._tls.stack = []
            parent = stack[-1] if stack else None
            rec = [next(tracer._ids), 0, None, layer, name, None, 0.0, 0.0, 0.0, 0, None]
            if parent is not None:
                rec[PARENT], rec[PARENT_LAYER], rec[CONTRACT] = parent[ID], parent[LAYER], parent[CONTRACT]
            if contract is not None:
                rec[CONTRACT] = f"{tracer.context}{contract(args, kwargs)}"
            stack.append(rec)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent is not None:
                    parent[CHILD_S] += end - start
                tracer.spans.append(rec)
            if work is not None:
                rec[WORK] = work(args, kwargs, out)
            if tag is not None:
                rec[TAG] = tag(args, kwargs, out)
            return out

        return wrapper

    # -- installation ------------------------------------------------------------

    def patch_function(self, module, attr, layer, name=None, **readers) -> None:
        """Wrap module.attr and every robust_rates module binding the same object."""
        original = getattr(module, attr)
        wrapper = self.wrap(layer, name or attr, original, **readers)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "robust_rates" or mod_name.startswith("robust_rates.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, layer, name=None, **readers) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(layer, name or attr, original, **readers))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def install(self) -> "Tracer":
        """Spans around the public entry point of every layer."""
        # cli is imported so that its binding of price_configured is patched too.
        from robust_rates import cli, config, curve, lognormal, mc, option_pricing, oracle, pde  # noqa: F401
        from robust_rates import stream, vol_structure

        self.patch_function(config, "load_config", "config")
        self.patch_function(config, "price_configured", "cli",
                            contract=_arg(config.price_configured, "index"))
        self.patch_method(curve.DiscountCurve, "bond_price", "curve")
        self.patch_method(curve.DiscountCurve, "forward_price", "curve")
        self.patch_method(vol_structure.VolStructure, "integrated_variance", "vol_structure")
        for cls in (vol_structure.HoLeeFactor, vol_structure.HullWhiteFactor,
                    vol_structure.TabulatedFactor):
            self.patch_method(cls, "fp_cov_integral", "vol_structure")
        for fn in ("lognormal_put", "lognormal_call", "lognormal_second_moment",
                   "lognormal_reciprocal_mean"):
            self.patch_function(lognormal, fn, "lognormal")
        self.patch_function(config, "price_linear", "linear_pricing")
        self.patch_function(config, "price_option", "option_pricing")
        method = _arg(option_pricing.price_swaption, "method")
        self.patch_function(option_pricing, "price_swaption", "option_pricing",
                            tag=lambda a, k, out: method(a, k))
        grid = _arg(pde.solve_single_option, "grid")
        self.patch_function(pde, "solve_single_option", "pde",
                            work=lambda a, k, out: grid(a, k).nx * grid(a, k).nt)
        self.patch_function(pde, "solve_lower", "pde")
        self.patch_function(pde, "solve_banded", "pde")
        self.patch_function(stream, "price_stream", "stream",
                            tag=lambda a, k, out: out.diagnostics.get("method"))
        self.patch_function(stream, "price_leg_bounds", "stream")
        n_paths, n_cols = _arg(mc.normals, "n_paths"), _arg(mc.normals, "n_cols")
        antithetic = _arg(mc.normals, "antithetic")

        def drawn(a, k, out):
            rows = n_paths(a, k)
            if antithetic(a, k):
                rows = rows // 2 + rows % 2
            return rows * n_cols(a, k)

        self.patch_function(mc, "normals", "mc", work=drawn)
        steps = _arg(oracle.lattice_price, "steps")
        self.patch_function(oracle, "lattice_price", "oracle",
                            work=lambda a, k, out: steps(a, k))
        self.patch_function(oracle, "scenario_sup", "oracle",
                            work=lambda a, k, out: len(out.table))
        return self

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id,parent,layer,name,contract,start_s,end_s,self_s."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,layer,name,contract,start_s,end_s,self_s\n")
            for s in sorted(self.spans, key=lambda s: s[ID]):
                fh.write(f"{s[ID]},{s[PARENT]},{s[LAYER]},{s[NAME]},{s[CONTRACT] or ''},"
                         f"{s[START] - t0:.9f},{s[END] - t0:.9f},"
                         f"{s[END] - s[START] - s[CHILD_S]:.9f}\n")


def layer_metrics(spans: list[list], wall_s: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload (times summed over threads)."""
    count: dict[tuple, int] = {}
    total: dict[tuple, float] = {}
    work: dict[tuple, int] = {}
    self_s: dict[str, float] = {}
    entries: dict[str, int] = {}
    for s in spans:
        key = (s[LAYER], s[NAME], s[TAG])
        dur = s[END] - s[START]
        count[key] = count.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + dur
        work[key] = work.get(key, 0) + s[WORK]
        self_s[s[LAYER]] = self_s.get(s[LAYER], 0.0) + dur - s[CHILD_S]
        if s[PARENT_LAYER] != s[LAYER]:
            entries[s[LAYER]] = entries.get(s[LAYER], 0) + 1
        if s[LAYER] == "stream" and s[NAME] == "price_stream" and s[TAG] == "coupled-pair-pde":
            self_s["stream.coupled_pair"] = self_s.get("stream.coupled_pair", 0.0) + dur - s[CHILD_S]

    def pick(table, layer, *names, tag=any):
        return sum(v for (lay, name, t), v in table.items()
                   if lay == layer and name in names and (tag is any or t == tag))

    busy = pick(total, "cli", "price_configured")
    out = {
        "config.load_s": pick(total, "config", "load_config"),
        "cli.thread_efficiency": busy / (threads * wall_s) if busy else 0.0,
        "curve.calls": pick(count, "curve", "bond_price", "forward_price"),
        "curve.s": pick(total, "curve", "bond_price", "forward_price"),
        "vol_structure.intvar_calls": pick(count, "vol_structure", "integrated_variance"),
        "vol_structure.intvar_s": pick(total, "vol_structure", "integrated_variance"),
        "vol_structure.fpcov_calls": pick(count, "vol_structure", "fp_cov_integral"),
        "vol_structure.fpcov_s": pick(total, "vol_structure", "fp_cov_integral"),
        "lognormal.calls": entries.get("lognormal", 0),
        "lognormal.s": sum(v for (lay, _, _), v in total.items() if lay == "lognormal"),
        "linear_pricing.calls": entries.get("linear_pricing", 0),
        "linear_pricing.self_s": self_s.get("linear_pricing", 0.0),
        "option_pricing.calls": entries.get("option_pricing", 0),
        "option_pricing.self_s": self_s.get("option_pricing", 0.0),
        "option_pricing.swaption_mc_s": pick(total, "option_pricing", "price_swaption",
                                             tag="monte-carlo"),
        "pde.solves": pick(count, "pde", "solve_single_option"),
        "pde.self_s": self_s.get("pde", 0.0),
        "pde.cell_steps": pick(work, "pde", "solve_single_option"),
        "pde.banded_solves": pick(count, "pde", "solve_banded"),
        "pde.banded_solve_s": pick(total, "pde", "solve_banded"),
        "stream.calls": entries.get("stream", 0),
        "stream.self_s": self_s.get("stream", 0.0),
        "stream.coupled_pair_s": self_s.get("stream.coupled_pair", 0.0),
        "mc.normals_calls": pick(count, "mc", "normals"),
        "mc.draws": pick(work, "mc", "normals"),
        "mc.normals_s": pick(total, "mc", "normals"),
        "oracle.lattice_s": pick(total, "oracle", "lattice_price"),
        "oracle.lattice_steps": pick(work, "oracle", "lattice_price"),
        "oracle.scenario_s": pick(total, "oracle", "scenario_sup"),
        "oracle.scenarios": pick(work, "oracle", "scenario_sup"),
    }
    out["stream_pde.busy_share"] = (
        (out["stream.self_s"] + out["pde.self_s"]) / busy if busy else 0.0
    )
    return out


# name -> unit, in report order (the traced run reports all of them).
UNITS = {
    "config.load_s": "s", "cli.thread_efficiency": "ratio",
    "curve.calls": "count", "curve.s": "s",
    "vol_structure.intvar_calls": "count", "vol_structure.intvar_s": "s",
    "vol_structure.fpcov_calls": "count", "vol_structure.fpcov_s": "s",
    "lognormal.calls": "count", "lognormal.s": "s",
    "linear_pricing.calls": "count", "linear_pricing.self_s": "s",
    "option_pricing.calls": "count", "option_pricing.self_s": "s",
    "option_pricing.swaption_mc_s": "s",
    "pde.solves": "count", "pde.self_s": "s", "pde.cell_steps": "count",
    "pde.banded_solves": "count", "pde.banded_solve_s": "s",
    "stream.calls": "count", "stream.self_s": "s", "stream.coupled_pair_s": "s",
    "mc.normals_calls": "count", "mc.draws": "count", "mc.normals_s": "s",
    "oracle.lattice_s": "s", "oracle.lattice_steps": "count",
    "oracle.scenario_s": "s", "oracle.scenarios": "count",
    "stream_pde.busy_share": "ratio", "trace.overhead": "ratio",
}
