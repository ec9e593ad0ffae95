"""Linear operator base type shared by dictionaries and sensing matrices.

An operator is a complex linear map C^in_dim -> C^out_dim defined by a
matching (apply, adjoint) pair.  Everything downstream (solvers, D-RIP
estimation, frame analysis) only touches these two methods, so structured
operators keep their fast paths and dense ones stay trivial.

Block contract: ``apply`` takes a length-in_dim vector, shape
``(in_dim,)``, or a block of k such vectors as columns, shape
``(in_dim, k)``, and returns ``(out_dim,)`` or ``(out_dim, k)``;
``adjoint`` likewise with the dimensions swapped.  Column j of a block
result is the operator applied to column j, to roundoff: a vector keeps
the exact arithmetic of a one-vector call, and a ``(dim, 1)`` block gives
the same bits as the vector.  Every callable must keep this contract: a
block reaches it in one call (the Gabor fast path, for instance, runs its
FFTs and window contractions over all columns at once), and a result of
the wrong shape raises ValueError naming the expected one.

``gram(op)`` forms L L*, the frame operator D D* and the sensing Gram A A*
alike: from the stored matrix, or else from identity blocks of at most
``BLOCK_BYTES`` pushed through adjoint and then apply.

Operators are immutable after construction.  The dense cache holds the
matrix a dense operator was built from, in its own dtype, or is filled
lazily by ``dense()``; either way it is a pure function of the operator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "BLOCK_BYTES",
    "LinearOperator",
    "MATERIALIZATION_CAP",
    "adjoint_mismatch",
    "gram",
    "power_iteration",
]

# Dense export refuses above this many entries unless the caller raises it.
MATERIALIZATION_CAP = 2**24
# Working-set budget of one block of vectors: a block of k columns of
# complex128 length-dim vectors takes 16 * dim * k bytes.  Speed is flat
# from 64 KiB to 4 MiB; larger budgets leave heap behind that raises the
# process's peak memory (by 1.4 MiB at 1 MiB and 6 MiB at 4 MiB in the
# benchmark's certify workload).
BLOCK_BYTES = 2**18
_GRAM_CHUNK = 256  # columns of a stored matrix per product in gram()


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
        Both receive a vector or a ``(dim, k)`` block (module docstring).
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
        if x.shape == (self.in_dim,):
            return self._apply(x)
        return _block_call(self._apply, x, self.in_dim, self.out_dim, "apply")

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=complex)
        if y.shape == (self.out_dim,):
            return self._adjoint(y)
        return _block_call(self._adjoint, y, self.out_dim, self.in_dim, "adjoint")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.out_dim, self.in_dim)

    def dense(self, cap: int = MATERIALIZATION_CAP) -> np.ndarray:
        """The out_dim x in_dim matrix: the stored one, in its own dtype,
        or else complex, materialized by applying to the basis.

        Refuses to materialize when out_dim*in_dim exceeds `cap`;
        structured operators remain usable through apply/adjoint
        regardless.
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


def _block_call(fn, x: np.ndarray, dim: int, out_dim: int, name: str) -> np.ndarray:
    """fn applied to a (dim, k) block; any other shape, in or out, is an
    error."""
    if x.ndim != 2 or x.shape[0] != dim:
        raise ValueError(
            f"{name} expects a ({dim},) vector or a ({dim}, k) block, "
            f"got shape {x.shape}"
        )
    out = fn(x)
    expected = (out_dim, x.shape[1])
    if np.shape(out) != expected:
        raise ValueError(
            f"{name} of a {x.shape} block must return shape {expected}, "
            f"got {np.shape(out)}"
        )
    return out


def gram(op: LinearOperator) -> np.ndarray:
    """The out_dim x out_dim Hermitian matrix L L* of L = op.

    With a stored matrix M, the sum of C C* over chunks C of 256 columns
    of M, in M's dtype (real arithmetic for a real M).  Otherwise column
    j of L L* is L(L* e_j), formed for as many j at once as a complex128
    identity block of at most ``BLOCK_BYTES`` holds; L itself is never
    materialized.
    """
    M = op._dense_cache
    m = op.out_dim
    if M is not None:
        G = np.zeros((m, m), dtype=M.dtype)
        for j in range(0, M.shape[1], _GRAM_CHUNK):
            C = np.ascontiguousarray(M[:, j : j + _GRAM_CHUNK])
            G += C @ C.conj().T
        return G
    width = max(1, BLOCK_BYTES // (16 * m))
    G = np.empty((m, m), dtype=complex)
    for j in range(0, m, width):
        E = np.eye(m, min(width, m - j), -j, dtype=complex)
        G[:, j : j + E.shape[1]] = op.apply(op.adjoint(E))
    return G


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
