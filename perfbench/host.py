"""Host ceilings measured in every run: the noise context for the layer figures.

* ``dgemm_gflops``: best of a few 512x512 float64 matmuls through numpy's own
  (OpenBLAS) BLAS on one thread, the per-core ceiling (two threads swing
  tenfold on a host whose second CPU is shared);
* ``memcpy_gbps``: best of a few 32 MiB ``np.copyto`` calls, counting bytes
  read plus bytes written;
* ``parallel_scaling_2p``: spin-loop iterations of two concurrent processes
  over those of one process alone; this is the measured capacity figure,
  not the affinity count;
* ``nproc``: CPUs in this process's affinity mask.

Each probe runs in its own short-lived process, so its buffers never count
toward the peak RSS of the process that serves the workload.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

SPIN_S = 0.2
#: One-process and two-process spins alternate this many times; the ratio of
#: their medians damps other tenants' load on a shared host.
SPIN_PAIRS = 2

_SPIN = (
    "import time\n"
    "end = time.perf_counter() + {s}\n"
    "n = 0\n"
    "while time.perf_counter() < end:\n"
    "    n += 1\n"
    "print(n)\n"
)


def _blas_and_memcpy() -> dict:
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((512, 512)), rng.random((512, 512))
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t)
    gflops = 2 * 512**3 / best / 1e9
    src = np.ones(4 * 1024 * 1024)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t)
    return {"dgemm_gflops": gflops, "memcpy_gbps": 2 * src.nbytes / best / 1e9}


def _spin(count: int) -> int:
    procs = [
        subprocess.Popen([sys.executable, "-c", _SPIN.format(s=SPIN_S)], stdout=subprocess.PIPE,
                         text=True)
        for _ in range(count)
    ]
    return sum(int(p.communicate(timeout=30)[0]) for p in procs)


def measure() -> dict:
    """Every ``host.*`` figure, in the order the module docstring lists them."""
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=60,
                         check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    ceilings = json.loads(out.stdout)
    ones, twos = [], []
    for _ in range(SPIN_PAIRS):
        ones.append(_spin(1))
        twos.append(_spin(2))
    ceilings["parallel_scaling_2p"] = statistics.median(twos) / statistics.median(ones)
    ceilings["nproc"] = len(os.sched_getaffinity(0))
    return ceilings


if __name__ == "__main__":
    print(json.dumps(_blas_and_memcpy()))
