"""Linear operator base type shared by dictionaries and sensing matrices.

An operator is a complex linear map C^in_dim -> C^out_dim defined by a
matching (apply, adjoint) pair.  Everything downstream (solvers, D-RIP
estimation, frame analysis) only touches these two methods, so structured
operators keep their fast paths and dense ones stay trivial.

Operators are immutable after construction; the dense cache is the only
lazily filled field and is a pure function of the operator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "LinearOperator",
    "MATERIALIZATION_CAP",
    "adjoint_mismatch",
    "power_iteration",
]

# Dense export refuses above this many entries unless the caller raises it.
MATERIALIZATION_CAP = 2**24


class LinearOperator:
    """Complex linear map with an exact adjoint.

    Parameters
    ----------
    in_dim, out_dim : int
        Domain and range dimensions; ``apply`` maps length-`in_dim`
        vectors to length-`out_dim` vectors.
    apply, adjoint : callable
        The forward map and its conjugate transpose.  ``adjoint`` must
        satisfy <apply(u), v> == <u, adjoint(v)> exactly up to roundoff.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        apply: Callable[[np.ndarray], np.ndarray],
        adjoint: Callable[[np.ndarray], np.ndarray],
    ):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("operator dimensions must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self._apply = apply
        self._adjoint = adjoint
        self._dense_cache: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.in_dim,):
            raise ValueError(
                f"apply expects a length-{self.in_dim} vector, got shape {x.shape}"
            )
        return self._apply(x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.out_dim,):
            raise ValueError(
                f"adjoint expects a length-{self.out_dim} vector, got shape {y.shape}"
            )
        return self._adjoint(y)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.out_dim, self.in_dim)

    def dense(self, cap: int = MATERIALIZATION_CAP) -> np.ndarray:
        """Materialize the out_dim x in_dim matrix by applying to the basis.

        Refuses when out_dim*in_dim exceeds `cap`; structured operators
        remain usable through apply/adjoint regardless.
        """
        if self._dense_cache is not None:
            return self._dense_cache
        if self.out_dim * self.in_dim > cap:
            raise ValueError(
                f"dense materialization of {self.out_dim}x{self.in_dim} exceeds "
                f"cap of {cap} entries"
            )
        cols = np.empty((self.out_dim, self.in_dim), dtype=complex)
        e = np.zeros(self.in_dim, dtype=complex)
        for j in range(self.in_dim):
            e[j] = 1.0
            cols[:, j] = self._apply(e)
            e[j] = 0.0
        self._dense_cache = cols
        return cols


def adjoint_mismatch(
    op: LinearOperator, rng: np.random.Generator, trials: int = 1
) -> float:
    """Worst relative defect of <Au, v> - <u, A*v> over random pairs.

    Zero (to roundoff) for every correctly paired operator; the frames and
    sensing test suites drive this at tolerance 1e-10.
    """
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(op.in_dim) + 1j * rng.standard_normal(op.in_dim)
        v = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        lhs = np.vdot(v, op.apply(u))
        rhs = np.vdot(op.adjoint(v), u)
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def power_iteration(
    gram: Callable[[np.ndarray], np.ndarray],
    dim: int,
    rng: np.random.Generator,
    iters: int,
) -> float:
    """Largest eigenvalue of a Hermitian positive semidefinite map.

    Starts from a complex Gaussian vector drawn from `rng` and stops when
    the Rayleigh quotient moves by at most 1e-12 relative, or after
    `iters` steps.
    """
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram(v)
        new = float(np.real(np.vdot(v, w)))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(new - lam) <= 1e-12 * max(abs(new), 1e-300):
            return new
        lam = new
    return lam
