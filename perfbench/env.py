"""Process set-up shared by the benchmark scripts, and the environment record.

Importing this module pins the BLAS/OpenMP pools to one thread each, before
numpy is imported anywhere, so a workload's thread count is the program's
own ``--threads`` and never exceeds nproc.  It also puts the checkout's
``src`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "robust_rates")
OUT = os.path.join(ROOT, ".perfbench_out")


def add_src_to_path() -> bool:
    """False when the checkout holds no program to measure."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def _git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or "unavailable"


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(PACKAGE):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **THREAD_VARS,
    }
