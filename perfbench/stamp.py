"""Environment stamp recorded with every result.

Results are comparable only when every key of ``comparable`` matches:
same core count, interpreter, numpy, BLAS build and thread count,
long-double width and benchmark code. The revision and the source digest
say which program was measured and are expected to differ between a
parent and a change.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _digest(root: Path, paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _blas_runtime() -> tuple[str | None, int | None]:
    """OpenBLAS build string and live thread count, read from the loaded
    library; (None, None) where that library is not found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode().strip(), int(threads())
    return None, None


def _revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_config, blas_threads = _blas_runtime()
    # what decides how a run measures; docs and self-tests are left out
    bench_files = [*HERE.glob("*.py"), HERE / "reference.json", ROOT / "BENCHMARK.json"]
    src = ROOT / "src" / "sobosvd"
    return {
        "comparable": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas_config,
            "blas_threads": blas_threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "longdouble_eps": repr(float(np.finfo(np.longdouble).eps)),
            "bench_digest": _digest(ROOT, bench_files),
        },
        "revision": _revision(),
        "src_digest": _digest(ROOT, [p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts]),
    }
