"""Closed catalog of cost models: quadratic and pseudo-Huber-smoothed convex.

Every cost is one CostModel: quadratic blocks

    g(x) = 1/2 <G x, x> + <r, x> + delta_g/2 |x|^2
    l(t, x, u) = 1/2 <Q(t) x, x> + <S(t) x, u> + 1/2 <R(t) u, u>
                 + <q(t), x> + <rho(t), u> + delta_u/2 |u|^2

plus separable smooth-convex terms kappa_g sum ph(x_i) in g and
kappa_x sum ph(x_i) + kappa_u sum ph(u_i) in l, built from the pseudo-Huber
function ph(z) = sqrt(1 + z^2) - 1, whose second derivative
(1 + z^2)^(-3/2) is bounded by 1.  Restricting to this catalog keeps all
second derivatives bounded and lets derivative consistency be certified
by sampling.  The LQ family is the case where every weight is zero.

Each formula of the running cost is written once, on frozen blocks
(RunningCost): CostModel looks the blocks up at one time, GridCost stacks
them per grid node and evaluates a whole path [M, N, .] in one call.  Terms
whose weight is zero are skipped, not multiplied by 0, and so are the Q, S,
R, q and rho terms of the value and gradients when their block is
identically zero where it was frozen (P2's Q and R, for one).  The value
and gradients can be written into a caller's array (out=), term by term
with in-place ufuncs, in the order the formula sums them.

All evaluations are vectorized: x has shape (..., n), u has shape (..., m),
values come back with shape (...), gradients with a trailing n or m axis,
and Hessian blocks with two trailing axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError
from .grids import PiecewiseConstant, as_piecewise


def pseudo_huber(z, out=None, scratch=None):
    """sqrt(1 + z^2) - 1, a smooth convex proxy for |z|, in a form that does not cancel near 0.

    With out, the result is formed in out and its denominator in scratch (an
    array of z's shape, fresh when None), by the same ufuncs in the same
    order as the allocating form, so the bits are the same.
    """
    if out is None:
        return z * z / (1.0 + np.sqrt(1.0 + z * z))
    den = np.multiply(z, z, out=scratch)
    np.add(1.0, den, out=den)
    np.sqrt(den, out=den)
    np.add(1.0, den, out=den)
    return np.divide(np.multiply(z, z, out=out), den, out=out)


def pseudo_huber_d1(z, out=None):
    """z / sqrt(1 + z^2), formed in out if given."""
    den = np.multiply(z, z, out=out)
    den = np.add(den, 1.0, out=out)
    den = np.sqrt(den, out=out)
    return np.divide(z, den, out=out)


def pseudo_huber_d2(z):
    return (1.0 + z * z) ** -1.5


def _sym(a):
    """The symmetric part 0.5 (a + a^T) over the last two axes.

    A 1 x 1 block is returned as it is, not copied: 0.5 (p + p) is p
    exactly (short of overflow), so a caller that keeps the result copies it.
    """
    if a.shape[-2:] == (1, 1):
        return a
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _quad_form(mat, v, out=None):
    # 1/2 <M v, v> over the trailing axis
    return np.multiply(np.einsum("...i,...ij,...j->...", v, mat, v, out=out), 0.5, out=out)


def _carve(buf, like):
    """A view of the flat array buf's first like.size elements, shaped as like and with its
    axes laid out in memory in the order of like's strides, as np.empty_like lays them out."""
    order = sorted(range(like.ndim), key=lambda a: like.strides[a], reverse=True)
    view = buf[:like.size].reshape(tuple(like.shape[a] for a in order))
    return view.transpose(tuple(np.argsort(order)))


def _empty_like_batch(z, tail):
    """An empty array [*z.shape[:-1], *tail] whose batch axes are laid out in memory as z's are.

    The batch axes are ordered outermost stride first, so a step-major z
    gives a step-major result.
    """
    batch = z.shape[:-1]
    outer = sorted(range(len(batch)), key=lambda a: z.strides[a], reverse=True)
    out = np.empty(tuple(batch[a] for a in outer) + tail)
    if outer != sorted(outer):
        out = out.transpose(tuple(np.argsort(outer)) + tuple(range(len(batch), out.ndim)))
    return out


def _hessian(base, z, kappa):
    """base broadcast over the batch axes of z, plus kappa ph''(z) on the diagonal.

    The result's batch axes are laid out in memory as z's are, so the
    Hessian of a step-major path is step-major.
    """
    out = _empty_like_batch(z, base.shape[-2:])
    out[...] = base
    if kappa:
        idx = np.arange(z.shape[-1])
        out[..., idx, idx] += kappa * pseudo_huber_d2(z)
    return out


def _nonzero(block):
    """The frozen block, or None when it is identically zero and its terms can be dropped."""
    return block if block.any() else None


class _Sum:
    """Terms summed into one array in the order they come, the first written rather than added to 0.

    term() is where the next term is to be written: the result itself for
    the first, then one scratch array, which is added into the result when
    the next term is asked for and by total().
    """

    __slots__ = ("out", "_scratch", "_terms")

    def __init__(self, out, scratch=None):
        self.out = out
        self._scratch = scratch     # a flat array to carve the scratch from, or None
        self._terms = 0

    def term(self):
        self._terms += 1
        if self._terms == 1:
            return self.out
        if self._terms == 2:
            self._scratch = (np.empty_like(self.out) if self._scratch is None
                             else _carve(self._scratch, self.out))
        else:
            self.out += self._scratch
        return self._scratch

    def total(self):
        if self._terms == 0:
            self.out[...] = 0.0
        elif self._terms > 1:
            self.out += self._scratch
        return self.out


def _symmetrized(pw: PiecewiseConstant, name: str) -> PiecewiseConstant:
    """Symmetrize every value, warning when the asymmetry is beyond rounding noise (1e-12)."""
    vals = pw.values
    defect = float(np.max(np.abs(vals - np.swapaxes(vals, -1, -2)))) if vals.size else 0.0
    if defect > 1e-12:
        warnings.warn(f"{name} asymmetry {defect:.2e} exceeds 1e-12; symmetrizing")
    sym = _sym(vals)
    return PiecewiseConstant(sym.copy() if sym is vals else sym, pw.times)


@dataclass(frozen=True, eq=False)
class RunningCost:
    """The running cost l with its quadratic blocks frozen.

    Blocks may carry leading axes ([N] per grid node, [M, N] per path and
    node) that broadcast against those of x and u; S, q and rho may be None,
    which stands for an all-zero block.  Q and R are always blocks, which the
    Hessians read, but their terms are dropped from value, grad_x and grad_u
    when they are identically zero.

    value, grad_x and grad_u write into out when it is given (of the shape
    their result has: the batch axes of x, u and the blocks broadcast, then
    n or m), and otherwise into a fresh array.  value also takes scratch,
    three flat float arrays, each with room for the largest of its result,
    x and u, in which it forms its terms' temporaries (the second term's
    array in the first, u * u and the pseudo-Huber terms in the other two)
    instead of allocating them.  Either way the terms are summed in the same
    order, so the result is the same bits.
    """

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    q: np.ndarray = None
    rho: np.ndarray = None
    delta_u: float = 0.0
    kappa_x: float = 0.0
    kappa_u: float = 0.0

    @cached_property
    def _Q_nonzero(self) -> bool:
        return bool(self.Q.any())

    @cached_property
    def _R_nonzero(self) -> bool:
        return bool(self.R.any())

    @cached_property
    def _block_batch(self) -> tuple:
        blocks = [self.Q.shape[:-2], self.R.shape[:-2]]
        blocks += [b.shape[:-2] for b in (self.S,) if b is not None]
        blocks += [b.shape[:-1] for b in (self.q, self.rho) if b is not None]
        return np.broadcast_shapes(*blocks)

    def _sum(self, out, x, u, tail=(), scratch=None):
        """The sum of the terms, in out, or else in a fresh array laid out as x if x has every
        batch axis."""
        if out is None:
            batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1], self._block_batch)
            out = _empty_like_batch(x, tail) if batch == x.shape[:-1] else np.empty(batch + tail)
        return _Sum(out, scratch)

    def value(self, x, u, out=None, scratch=None):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        val = self._sum(out, x, u, scratch=None if scratch is None else scratch[0])

        def temps(z, count):
            """count arrays laid out as z for a term's temporaries, None each without scratch."""
            return (None,) * count if scratch is None else tuple(
                _carve(buf, z) for buf in scratch[1:1 + count])

        if self._Q_nonzero:
            _quad_form(self.Q, x, out=val.term())
        if self.S is not None:
            np.einsum("...i,...ij,...j->...", u, self.S, x, out=val.term())
        if self._R_nonzero:
            _quad_form(self.R, u, out=val.term())
        if self.q is not None:
            np.einsum("...i,...i->...", x, self.q, out=val.term())
        if self.rho is not None:
            np.einsum("...i,...i->...", u, self.rho, out=val.term())
        if self.delta_u:
            t = val.term()
            squares = np.multiply(u, u, out=temps(u, 1)[0])
            np.multiply(np.sum(squares, axis=-1, out=t), 0.5 * self.delta_u, out=t)
        if self.kappa_x:
            t = val.term()
            np.multiply(np.sum(pseudo_huber(x, *temps(x, 2)), axis=-1, out=t), self.kappa_x, out=t)
        if self.kappa_u:
            t = val.term()
            np.multiply(np.sum(pseudo_huber(u, *temps(u, 2)), axis=-1, out=t), self.kappa_u, out=t)
        return val.total()

    def grad_x(self, x, u, out=None):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        grad = self._sum(out, x, u, x.shape[-1:])
        if self._Q_nonzero:
            np.einsum("...ij,...j->...i", self.Q, x, out=grad.term())
        if self.S is not None:
            np.einsum("...ji,...j->...i", self.S, u, out=grad.term())
        if self.q is not None:
            np.copyto(grad.term(), self.q)
        if self.kappa_x:
            t = grad.term()
            np.multiply(pseudo_huber_d1(x, out=t), self.kappa_x, out=t)
        return grad.total()

    def grad_u(self, x, u, out=None):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        grad = self._sum(out, x, u, u.shape[-1:])
        if self._R_nonzero:
            np.einsum("...ij,...j->...i", self.R, u, out=grad.term())
        if self.S is not None:
            np.einsum("...ij,...j->...i", self.S, x, out=grad.term())
        if self.rho is not None:
            np.copyto(grad.term(), self.rho)
        if self.delta_u:
            np.multiply(u, self.delta_u, out=grad.term())
        if self.kappa_u:
            t = grad.term()
            np.multiply(pseudo_huber_d1(u, out=t), self.kappa_u, out=t)
        return grad.total()

    def hess_xx(self, x, u):
        return _hessian(self.Q, np.asarray(x, dtype=float), self.kappa_x)

    def hess_ux(self, x, u):
        x = np.asarray(x, dtype=float)
        return _hessian(np.zeros((self.R.shape[-1], x.shape[-1])) if self.S is None else self.S,
                        x, 0.0)

    @cached_property
    def _uu(self):
        """The constant part of Duu_l: R + delta_u I."""
        return self.R + self.delta_u * np.eye(self.R.shape[-1]) if self.delta_u else self.R

    def hess_uu(self, x, u):
        return _hessian(self._uu, np.asarray(u, dtype=float), self.kappa_u)


@dataclass(frozen=True, eq=False)
class CostModel:
    """Evaluable cost: terminal g and running l with full derivative set.

    G and r are constant; Q, S, R, q, rho may be piecewise constant in t
    (raw arrays are taken as constant).  G, Q and R are symmetrized on entry,
    with a warning beyond rounding noise.  delta_u and delta_g are kept
    apart from R and G so the certificate's modulus stays visible.
    The running cost l and its derivatives are evaluated on its blocks
    frozen at one time, at(t) (a RunningCost: value, grad_x, grad_u and the
    hess_* blocks; Dxu_l is hess_ux transposed).
    k_hess is the bound on every second-derivative entry (audited over a
    sampling box by validate_problem).
    """

    n: int
    m: int
    G: object = None
    r: object = None
    Q: object = None
    S: object = None
    R: object = None
    q: object = None
    rho: object = None
    delta_u: float = 0.0
    delta_g: float = 0.0
    kappa_x: float = 0.0
    kappa_u: float = 0.0
    kappa_g: float = 0.0
    family: str = "quadratic"

    def __post_init__(self):
        n, m = self.n, self.m

        def put(name, value):
            object.__setattr__(self, name, value)

        for name, shape in (("G", (n, n)), ("r", (n,))):
            value = getattr(self, name)
            put(name, np.zeros(shape) if value is None else np.asarray(value, dtype=float).reshape(shape))
        put("G", _symmetrized(PiecewiseConstant(self.G), "G").values)
        for name, shape in (("Q", (n, n)), ("S", (m, n)), ("R", (m, m)), ("q", (n,)), ("rho", (m,))):
            put(name, as_piecewise(getattr(self, name), shape))
        put("Q", _symmetrized(self.Q, "Q"))
        put("R", _symmetrized(self.R, "R"))
        for name in ("delta_u", "delta_g", "kappa_x", "kappa_u", "kappa_g"):
            put(name, float(getattr(self, name)))

    @property
    def k_hess(self) -> float:
        def bound(arr):
            return float(np.max(np.abs(arr))) if arr.size else 0.0

        return max(
            bound(self.G) + self.delta_g + self.kappa_g,
            bound(self.Q.values) + self.kappa_x,
            bound(self.R.values) + self.delta_u + self.kappa_u,
            bound(self.S.values),
            1e-12,
        )

    def at(self, t: float) -> RunningCost:
        """The running cost with its blocks looked up at time t."""
        return RunningCost(self.Q.at(t), _nonzero(self.S.at(t)), self.R.at(t),
                           _nonzero(self.q.at(t)), _nonzero(self.rho.at(t)),
                           self.delta_u, self.kappa_x, self.kappa_u)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        val = _quad_form(self.G, x) + x @ self.r
        if self.delta_g:
            val = val + 0.5 * self.delta_g * (x * x).sum(axis=-1)
        if self.kappa_g:
            val = val + self.kappa_g * pseudo_huber(x).sum(axis=-1)
        return val

    def dx_g(self, x):
        x = np.asarray(x, dtype=float)
        out = x @ self.G.T + self.r
        if self.delta_g:
            out = out + self.delta_g * x
        if self.kappa_g:
            out = out + self.kappa_g * pseudo_huber_d1(x)
        return out

    def dxx_g(self, x):
        base = self.G + self.delta_g * np.eye(self.n) if self.delta_g else self.G
        return _hessian(base, np.asarray(x, dtype=float), self.kappa_g)


class PathCost:
    """The running cost of a whole path, X [M, N, n] and U [M, N, m] at the left nodes.

    This is the interface the backward solver and the descent loop consume;
    a subclass supplies the frozen blocks as `running`.  Each method writes
    into out when it is given ([M, N] for the value, the shape of X or U for
    the gradients), and running_value forms its terms' temporaries in
    scratch when it is given (RunningCost.value), which the gradient
    evaluation does with its own buffers.
    """

    def running_value(self, X, U, out=None, scratch=None):
        return self.running.value(X, U, out, scratch)

    def running_grad_x(self, X, U, out=None):
        return self.running.grad_x(X, U, out)

    def running_grad_u(self, X, U, out=None):
        return self.running.grad_u(X, U, out)


class GridCost(PathCost):
    """A CostModel on a fixed grid, its blocks looked up once per node and stacked [N, ...]."""

    def __init__(self, cost: CostModel, grid):
        self.cost = cost
        self.grid = grid
        stack = lambda pw: np.stack([pw.at(float(t)) for t in grid.nodes[:-1]])
        self.running = RunningCost(stack(cost.Q), _nonzero(stack(cost.S)), stack(cost.R),
                                   _nonzero(stack(cost.q)), _nonzero(stack(cost.rho)),
                                   cost.delta_u, cost.kappa_x, cost.kappa_u)

    @cached_property
    def steps(self) -> list:
        """The running cost frozen at each left node, CostModel.at(t_k)."""
        return [self.cost.at(float(t)) for t in self.grid.nodes[:-1]]

    def terminal_value(self, xT):
        return self.cost.g(xT)

    def terminal_gradient(self, xT):
        return self.cost.dx_g(xT)


def min_eigenvalue(K):
    """The smallest eigenvalue of each symmetric K [..., m, m]; a 1 x 1 matrix is its own."""
    return K[..., 0, 0] if K.shape[-1] == 1 else np.linalg.eigvalsh(K)[..., 0]


def solve_spd(K, b):
    """np.linalg.solve(K, b) for symmetric positive definite K [..., m, m].

    b is [m] or [..., m, k], as for np.linalg.solve.  A 1 x 1 system skips
    LAPACK and does what OpenBLAS does, so the result is the same bits: one
    right-hand side is divided by K, several are multiplied by 1 / K.
    """
    if K.shape[-1] != 1:
        return np.linalg.solve(K, b)
    if b.ndim == 1:
        return b / K[..., 0]
    return b / K if b.shape[-1] == 1 else b * (1.0 / K)


def check_psd(mat, shift=0.0):
    """Smallest eigenvalue of sym(mat) - shift*I; psd iff return >= 0, up to rounding."""
    return float(min_eigenvalue(_sym(np.asarray(mat, dtype=float))) - shift)


def stacked_hessian(lt: RunningCost, x, u):
    """The (n+m) x (n+m) second derivative of the frozen running cost lt at one point."""
    n, m = x.shape[-1], u.shape[-1]
    H = np.zeros((n + m, n + m))
    H[:n, :n] = lt.hess_xx(x, u)
    H[n:, :n] = lt.hess_ux(x, u)
    H[:n, n:] = H[n:, :n].T
    H[n:, n:] = lt.hess_uu(x, u)
    return H


def case1_smooth_cost(n, m, delta, kappa_x=0.0, kappa_u=0.0, kappa_g=0.0):
    """Running cost (delta/2)|u|^2 + smoothed convex terms, convex terminal."""
    if delta <= 0:
        raise StructuralError("delta must be positive")
    if min(kappa_x, kappa_u, kappa_g) < 0:
        raise StructuralError("kappa weights must be nonnegative")
    return CostModel(n, m, delta_u=delta, kappa_x=kappa_x, kappa_u=kappa_u, kappa_g=kappa_g,
                     family="case1_smooth")


def case2_smooth_cost(n, m, delta, kappa_g=0.0, kappa_x=0.0, kappa_u=0.0, r_u=0.0):
    """Terminal (delta/2)|x|^2 + smooth convex; running cost merely convex.

    Uniform convexity then has to come from the control entering the
    diffusion, which the builder of the enclosing problem checks via
    D(t)^T D(t) >= delta I.
    """
    if delta <= 0:
        raise StructuralError("delta must be positive")
    if min(kappa_g, kappa_x, kappa_u, r_u) < 0:
        raise StructuralError("weights must be nonnegative")
    return CostModel(n, m, R=r_u * np.eye(m), delta_g=delta, kappa_x=kappa_x,
                     kappa_u=kappa_u, kappa_g=kappa_g, family="case2_smooth")
