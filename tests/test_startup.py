"""Start-up: importing the package and pricing closed-form contracts loads no
scipy module; the PDE looks LAPACK up through scipy.linalg on its first
solve, and threads racing to that first solve read the serial bits."""

import json
import os
import subprocess
import sys

import robust_rates
from robust_rates.config import load_config, price_configured

SRC = os.path.dirname(os.path.dirname(os.path.abspath(robust_rates.__file__)))

CURVE = {"knots": [[0.0, 0.02], [30.0, 0.025]], "interpolation": "linear"}
SCHEDULE = [1.0, 1.5, 2.0, 2.5]
CLOSED_FORM = {
    "curve": CURVE,
    "vol_structure": {"factors": [{"kind": "hull-white", "c": 0.012, "kappa": 0.1}]},
    "band": {"sigma_lower": [0.5], "sigma_upper": [1.5]},
    "contracts": [
        {"name": "bond", "kind": "fixed-coupon-bond", "schedule": SCHEDULE, "fixed_rate": 0.03},
        {"name": "frn", "kind": "floating-rate-note", "schedule": SCHEDULE},
        {"name": "swap", "kind": "payer-swap", "schedule": SCHEDULE, "fixed_rate": 0.03},
        {"name": "cap", "kind": "cap", "schedule": SCHEDULE, "strike_rate": 0.03},
        {"name": "floor", "kind": "floor", "schedule": SCHEDULE, "strike_rate": 0.03},
        {"name": "inarrears", "kind": "in-arrears-payer-swap", "schedule": SCHEDULE,
         "strike_rate": 0.03},
        {"name": "swaption", "kind": "swaption-payer", "schedule": SCHEDULE,
         "strike_rate": 0.03, "method": "quadrature-1f"},
    ],
}
GENERAL_LEG = dict(CLOSED_FORM, contracts=[
    {"name": "spread", "kind": "stream", "schedule": [1.0, 1.5], "grid": {"nx": 41, "nt": 30},
     "legs": [{"type": "capped-call-spread", "strike": 0.97, "cap": 0.02}]},
])

CLOSED_FORM_RUN = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import robust_rates
from robust_rates.cli import main
from robust_rates.config import load_config, price_configured
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--format", "json", "price", sys.argv[2]])
setup = load_config(sys.argv[2])
rows = [price_configured(setup, cc) for cc in setup.contracts]
before = scipy_modules()
general = load_config(sys.argv[3])
price_configured(general, general.contracts[0])
print(json.dumps({"code": code, "before": before, "after": scipy_modules(),
                  "rows": [[b.lower.hex(), b.upper.hex()] for b in rows]}))
"""

RACED_FIRST_SOLVE = """\
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from robust_rates.config import load_config, price_configured
setup = load_config(sys.argv[2])
results = {}

def work(i):
    b = price_configured(setup, setup.contracts[0])
    results[i] = [b.lower.hex(), b.upper.hex()]

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({"alive": any(t.is_alive() for t in threads),
                  "results": [results.get(i) for i in range(2)]}))
"""


def write_config(tmp_path, payload, name):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_fresh(snippet, *args):
    done = subprocess.run([sys.executable, "-c", snippet, SRC, *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def bits(bounds):
    return [bounds.lower.hex(), bounds.upper.hex()]


def test_closed_forms_load_no_scipy_and_pde_loads_lapack(tmp_path):
    closed = write_config(tmp_path, CLOSED_FORM, "closed.json")
    general = write_config(tmp_path, GENERAL_LEG, "general.json")
    out = run_fresh(CLOSED_FORM_RUN, closed, general)
    assert out["code"] == 0
    assert out["before"] == []
    assert "scipy.linalg" in out["after"]
    setup = load_config(closed)  # this process has scipy loaded: same bits
    assert out["rows"] == [bits(price_configured(setup, cc)) for cc in setup.contracts]


def test_threads_racing_to_the_first_solve_read_serial_bits(tmp_path):
    general = write_config(tmp_path, GENERAL_LEG, "general.json")
    setup = load_config(general)
    serial = bits(price_configured(setup, setup.contracts[0]))
    out = run_fresh(RACED_FIRST_SOLVE, general)
    assert not out["alive"]
    assert out["results"] == [serial, serial]
