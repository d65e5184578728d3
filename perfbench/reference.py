"""Host-speed reference: a fixed numpy kernel timed next to every CLI call.

On a shared host the speed of a core drifts by 30-50% over tens of
seconds, and every CLI call of a run slows or speeds up with it.  The
reference kernel is a small least-squares Monte Carlo sweep written here,
independent of lcflow: a forward Euler sweep of M scalar paths over 50
steps, then a backward sweep of per-step degree-2 regressions solved by
Cholesky factorisation.  Run at the workload's path count, it has the same
mix of numpy operations on arrays of that size, small matrix products and
per-step Python overhead as the CLI workload, so it slows down with it; a
change to lcflow does not change it.

    python3 perfbench/reference.py M   # prints a few reference times
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

N = 50
# Sweeps per pass, per path count: a pass takes 0.2-0.3 s, about a tenth
# of a CLI call, long enough to average out the host's fastest changes.
SWEEPS = {1000: 20, 4000: 16}
# Fixed scale, per path count: a pass's typical time on the 2-core Xeon
# host the benchmark was written on.  It only sets the unit; per-run
# medians of the pass on that host are in baseline.json.
TYPICAL_S = {1000: 0.20, 4000: 0.28}


@lru_cache(maxsize=None)
def _increments(M: int) -> np.ndarray:
    # one block, reused by every sweep: the kernel adds little to peak memory
    rng = np.random.default_rng(20251216)
    return rng.standard_normal((N, M)) * np.sqrt(1.0 / N)


def _sweep(dw: np.ndarray) -> float:
    M = dw.shape[1]
    dt = 1.0 / N
    x = np.empty((N + 1, M))
    x[0] = 0.3
    for k in range(N):
        x[k + 1] = x[k] + (0.5 - x[k]) * dt + 0.4 * dw[k]
    y = np.tanh(x[N])
    for k in range(N - 1, -1, -1):
        z = (x[k] - x[k].mean()) / x[k].std()
        phi = np.stack([np.ones(M), z, z * z], axis=1)
        factor = cho_factor(phi.T @ phi + 1e-8 * M * np.diag([0.0, 1.0, 1.0]))
        fitted = phi @ cho_solve(factor, phi.T @ y)
        z_k = phi @ cho_solve(factor, phi.T @ ((y - fitted) * dw[k] / dt))
        y = fitted + (0.1 * fitted + 0.05 * z_k + x[k]) * dt
        np.linalg.cond(phi.T @ phi / M)
    return float(y.mean())


def reference_seconds(M: int) -> float:
    """Wall time of one pass of the reference kernel on M paths."""
    dw = _increments(M)
    t0 = time.perf_counter()
    for _ in range(SWEEPS[M]):
        _sweep(dw)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print([round(reference_seconds(int(sys.argv[1])), 4) for _ in range(10)])
