"""Run-environment pinning and record. Imports nothing heavy: the thread
variables must be set before numpy is first imported in the process."""

import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Cap every BLAS/OpenMP pool at the CPUs this process may use."""
    n = str(nproc())
    for var in THREAD_VARS:
        os.environ[var] = n


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def describe():
    """What a reader needs to compare two runs: versions, CPUs, threads."""
    return {
        "git_sha": _git_sha(),
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
