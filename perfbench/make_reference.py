"""Compute the committed reference data: perfbench/reference.json.

    python3 perfbench/make_reference.py

Run it once from the repository root; it takes a few minutes and is not
part of a benchmark run.  It prices the high-resolution grids in one worker
process per CPU it may use.  It writes two kinds of reference:

* high-resolution bounds for every PDE-priced stream and every lattice
  check, each with a first-order estimate of the refinement error left in
  it, |v_fine - v_mid| * n_mid / (n_fine - n_mid);
* the current engine's default-grid outputs for all three workloads
  ("seed" values): the vanilla universe, the stream set (with its full
  ``--threads 1`` JSON rows) and the deterministic oracle checks.

Coupled pairs use nx=601/nt=600 (mid 481/480): their cost grows as nx^4.
One-dimensional legs use nx=1921/nt=1920 (mid 961/960).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import env

PAIR_GRIDS = ({"nx": 601, "nt": 600}, {"nx": 481, "nt": 480})
LEG_GRIDS = ({"nx": 1921, "nt": 1920}, {"nx": 961, "nt": 960})
HERE = os.path.dirname(os.path.abspath(__file__))


def _price_one(config: dict, name: str, grid: dict) -> tuple[float, float, float]:
    """(lower, upper, seconds) per unit notional of one contract of config on grid."""
    env.add_src_to_path()
    import books
    from robust_rates.config import load_config, price_configured

    config = dict(config, contracts=[dict(c, grid=grid) for c in config["contracts"]
                                     if c["name"] == name])
    with tempfile.TemporaryDirectory() as tmp:
        setup = load_config(books.write_config(os.path.join(tmp, "c.json"), config))
    cc = setup.contracts[0]
    start = time.perf_counter()
    b = price_configured(setup, cc)
    return b.lower / cc.contract.notional, b.upper / cc.contract.notional, time.perf_counter() - start


def _cli_rows(path: str) -> list[dict]:
    from robust_rates import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["price", path, "--format", "json", "--threads", "1"])
    if code != 0:
        raise SystemExit(f"pricing {path} failed with exit code {code}")
    return json.loads(buf.getvalue())["contracts"]


def _refined(fine, mid, grids) -> dict:
    n_fine, n_mid = grids[0]["nx"], grids[1]["nx"]
    err = max(abs(f - m) for f, m in zip(fine[:2], mid[:2])) * n_mid / (n_fine - n_mid)
    return {"ref": list(fine[:2]), "ref_err": err, "grid": grids[0], "seconds": fine[2]}


def _dumps(out: dict) -> str:
    """JSON with one entry (one vanilla contract) per line."""
    lines = ["{"]
    for si, (section, body) in enumerate(out.items()):
        lines.append(f" {json.dumps(section)}: {{")
        for ei, (key, value) in enumerate(body.items()):
            if section == "vanilla":
                rows = ",\n".join(f"   {json.dumps(r)}" for r in value)
                text = f"  {json.dumps(key)}: [\n{rows}\n  ]"
            else:
                text = f"  {json.dumps(key)}: {json.dumps(value)}"
            lines.append(text + ("," if ei < len(body) - 1 else ""))
        lines.append(" }" + ("," if si < len(out) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args()
    if not env.add_src_to_path():
        print(f"no program at {env.PACKAGE}", file=sys.stderr)
        return 2
    import books
    import workloads
    from robust_rates.config import price_configured

    out = {"meta": {"env": env.record(), "pair_grids": PAIR_GRIDS, "leg_grids": LEG_GRIDS},
           "vanilla": {}, "stream": {}, "audit": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for model in books.MODELS:
            entries, _ = books.vanilla_universe(model)
            cfg = books._config(books.MODELS[model], books.BAND,
                                [{"name": str(u), **e} for u, e in enumerate(entries)])
            rows = _cli_rows(books.write_config(os.path.join(tmp, f"v-{model}.json"), cfg))
            out["vanilla"][model] = [[r["lower"], r["upper"]] for r in rows]
            rows = _cli_rows(books.write_config(os.path.join(tmp, f"s-{model}.json"),
                                                books.stream_config(model)))
            for k, row in enumerate(rows):
                group = books.STREAMS[k][0]
                out["stream"][row["name"]] = {
                    "group": group, "pde": group != "convex", "row": row,
                    "seed": [row["lower"], row["upper"]], "ref": [row["lower"], row["upper"]],
                    "ref_err": 0.0,
                }

        jobs = {}
        ctx = get_context("spawn")
        with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)), mp_context=ctx) as pool:
            for model in books.MODELS:
                for k, (group, _) in enumerate(books.STREAMS):
                    if group == "convex":
                        continue
                    grids = PAIR_GRIDS if group == "coupled-pair" else LEG_GRIDS
                    name = books.stream_id(model, k)
                    jobs[("stream", name)] = (grids, [
                        pool.submit(_price_one, books.stream_config(model), name, g) for g in grids])
                jobs[("audit", "spread", model)] = (LEG_GRIDS, [
                    pool.submit(_price_one, books.audit_configs()[model], "spread", g)
                    for g in LEG_GRIDS])
            results = {key: (grids, [f.result() for f in futs]) for key, (grids, futs) in jobs.items()}

        for key, (grids, (fine, mid)) in results.items():
            if key[0] == "stream":
                out["stream"][key[1]].update(_refined(fine, mid, grids))

        audit = workloads.OracleAudit(0, tmp, reference={})
        closed = {}
        for model in books.MODELS:
            setup = audit.setups[model]
            cc = next(c for c in setup.contracts if c.name == "caplet")
            b = price_configured(setup, cc)
            closed[("caplet", model)] = {"ref": [b.lower, b.upper], "ref_err": 0.0,
                                         "grid": "closed form"}
            closed[("spread", model)] = _refined(*results[("audit", "spread", model)][1],
                                                 LEG_GRIDS)
        for check in sorted(audit.checks, key=lambda c: c["index"]):
            if check["oracle"] == "mc-swaption":
                continue  # keyed by the run seed: no fixed output to commit
            value = audit.run_check(check)
            entry = {"seed": list(value)}
            if check["oracle"] == "lattice":
                ref = closed[(check["contract"], check["config"])]
                side = 1 if check["side"] == "upper" else 0
                entry.update(ref=ref["ref"][side], ref_err=ref["ref_err"], grid=ref["grid"])
            out["audit"][check["id"]] = entry

    for name, entry in out["stream"].items():
        entry["default_err"] = max(abs(s - r) for s, r in zip(entry["seed"], entry["ref"]))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_dumps(out))
    worst = max(e["default_err"] for e in out["stream"].values())
    print(f"wrote {args.out}; largest default-grid stream error {worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
