"""Uniform time grids and piecewise-constant time dependence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*dt on [t0, T] with N steps.

    The last node is pinned to T exactly so rounding never shortens the
    horizon.
    """

    t0: float
    T: float
    N: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.T > self.t0:
            raise ValueError(f"need t0 < T, got [{self.t0}, {self.T}]")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        nodes = self.t0 + np.arange(self.N + 1) * self.dt
        nodes[-1] = self.T
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.N

    def index_of(self, t: float) -> int:
        """Index of the node equal to t (within rounding slack)."""
        k = int(round((t - self.t0) / self.dt))
        if k < 0 or k > self.N or abs(self.nodes[min(k, self.N)] - t) > 1e-9 * max(1.0, abs(self.T)):
            raise ValueError(f"t={t} is not a node of the grid [{self.t0}, {self.T}], N={self.N}")
        return k

    def subgrid(self, k: int) -> "TimeGrid":
        """The trailing grid starting at node k, same step size."""
        if k == 0:
            return self
        if not 0 <= k < self.N:
            raise ValueError(f"subgrid start {k} outside 0..{self.N - 1}")
        return TimeGrid(float(self.nodes[k]), self.T, self.N - k)


class PiecewiseConstant:
    """A matrix/vector value that is constant or piecewise constant in t.

    Piecewise values are right-continuous: value(t) is the entry whose
    breakpoint is the largest one <= t.
    """

    def __init__(self, values, times=None):
        if times is None:
            self.values = np.asarray(values, dtype=float)
            self.times = None
        else:
            self.times = np.asarray(times, dtype=float)
            vals = np.asarray(values, dtype=float)
            if vals.shape[0] != self.times.shape[0]:
                raise ValueError("one value per breakpoint required")
            if np.any(np.diff(self.times) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            self.values = vals
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite coefficient entries")

    @property
    def is_constant(self) -> bool:
        return self.times is None

    @property
    def shape(self):
        return self.values.shape if self.is_constant else self.values.shape[1:]

    def at(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self.values
        idx = int(np.searchsorted(self.times, t + 1e-12, side="right")) - 1
        idx = max(idx, 0)
        return self.values[idx]


def as_piecewise(value, shape) -> PiecewiseConstant:
    """A raw array or PiecewiseConstant of the given shape as PiecewiseConstant; None as zeros."""
    if value is None:
        return PiecewiseConstant(np.zeros(shape))
    pw = value if isinstance(value, PiecewiseConstant) else PiecewiseConstant(value)
    if tuple(pw.shape) != tuple(shape):
        raise ValueError(f"expected shape {shape}, got {pw.shape}")
    return pw
