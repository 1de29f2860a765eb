"""Host fingerprint and process memory of one benchmark run.

Every result carries the fingerprint; :func:`comparable` refuses to compare
results whose host parts differ (CPU count, Python, NumPy, BLAS vendor and
thread count).  The source hash and the workload seed are recorded too, but
differ on purpose between the two sides of a comparison.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

#: fingerprint keys that must match for two results to be comparable
HOST_KEYS = ("cpus", "python", "numpy", "blas", "blas_threads")

NOT_VERIFIABLE = "not verifiable"


def _blas_vendor() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return NOT_VERIFIABLE


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS NumPy loaded, asked from the library."""
    import numpy  # noqa: F401 - loads the BLAS shared object

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return NOT_VERIFIABLE
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return NOT_VERIFIABLE


def source_hash(src: Path) -> str:
    """SHA-256 over the program's ``.py`` files (the checkout is no git repo)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(src: Path, seed: int) -> dict:
    import numpy as np

    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": _blas_threads(),
        "source": source_hash(src),
        "seed": int(seed),
    }


def comparable(a: dict, b: dict) -> tuple[bool, str]:
    """Whether two fingerprints name the same host; else the reason."""
    diffs = [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
             for key in HOST_KEYS if a.get(key) != b.get(key)]
    unknown = [key for key in HOST_KEYS
               if NOT_VERIFIABLE in (a.get(key), b.get(key))]
    if diffs:
        return False, "different hosts: " + "; ".join(diffs)
    if unknown:
        return False, f"{NOT_VERIFIABLE}: host key(s) {unknown} unknown"
    return True, "same host"


#: CPU time stolen by the hypervisor above which timings are not comparable
STEAL_LIMIT = 0.05


def cpu_times() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of all CPUs, or None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_check(before, after) -> tuple[object, str]:
    """A check result for the share of CPU time stolen between two
    :func:`cpu_times` readings: ``True`` below :data:`STEAL_LIMIT`, else
    ``NOT_VERIFIABLE`` - the host was contended and the timings of this run
    cannot be compared."""
    if before is None or after is None or after[1] <= before[1]:
        return NOT_VERIFIABLE, "steal time unreadable"
    frac = (after[0] - before[0]) / (after[1] - before[1])
    return (True if frac < STEAL_LIMIT else NOT_VERIFIABLE), f"{frac:.3f} stolen"


def _status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus the listed live children, MB."""
    kb = _status_kb("self", "VmHWM")
    kb += sum(_status_kb(pid, "VmHWM") for pid in child_pids)
    return kb / 1024.0
