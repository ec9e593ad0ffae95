"""Independent oracles for solver and dictionary verification.

These never touch the package's primal-dual engine: optima are found by
enumerating vertices of the equivalent linear programs (real, eps = 0
instances only), so a match is genuine cross-validation.  Gabor atoms are
evaluated from their formula, without the package's FFT paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def analysis_lp_vertex_oracle(A: np.ndarray, Dt: np.ndarray, y: np.ndarray):
    """Exact optimum of min ||Dt f||_1 s.t. A f = y (real data).

    The objective restricted to the affine feasible set is piecewise
    linear and coercive (Dt has full column rank), so some optimum lies at
    a vertex: a feasible point where enough rows of Dt vanish to pin f
    together with the measurement equations.  Enumerates every candidate
    zero set of size n - m and solves the square system.

    Returns (best_objective, best_f).
    """
    A = np.asarray(A, dtype=float)
    Dt = np.asarray(Dt, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = A.shape
    d = Dt.shape[0]
    k = n - m
    if k < 0:
        raise ValueError("oracle expects m <= n")
    if k == 0:
        f = np.linalg.solve(A, y)
        return float(np.sum(np.abs(Dt @ f))), f

    best_obj = math.inf
    best_f = None
    for zero_set in itertools.combinations(range(d), k):
        block = np.vstack([A, Dt[list(zero_set)]])
        rhs = np.concatenate([y, np.zeros(k)])
        try:
            f = np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(f)):
            continue
        if np.linalg.norm(block @ f - rhs) > 1e-8 * max(1.0, np.linalg.norm(y)):
            continue
        obj = float(np.sum(np.abs(Dt @ f)))
        if obj < best_obj:
            best_obj = obj
            best_f = f
    if best_f is None:
        raise ValueError("no vertex found; instance is degenerate")
    return best_obj, best_f


def synthesis_lp_vertex_oracle(B: np.ndarray, y: np.ndarray):
    """Exact optimum of min ||x||_1 s.t. B x = y (real data).

    Basis pursuit attains its optimum at a basic solution supported on at
    most m coordinates; enumerates every size-m support.

    Returns (best_objective, best_x).
    """
    B = np.asarray(B, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = B.shape
    best_obj = math.inf
    best_x = None
    for support in itertools.combinations(range(d), m):
        sub = B[:, list(support)]
        try:
            xs = np.linalg.solve(sub, y)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xs)):
            continue
        if np.linalg.norm(sub @ xs - y) > 1e-8 * max(1.0, np.linalg.norm(y)):
            continue
        obj = float(np.sum(np.abs(xs)))
        if obj < best_obj:
            best_obj = obj
            x = np.zeros(d)
            x[list(support)] = xs
            best_x = x
    if best_x is None:
        raise ValueError("no basic solution found")
    return best_obj, best_x


def gabor_window(n: int, sigma: float) -> np.ndarray:
    """The Gaussian window exp(-t^2 / (2 sigma^2)) at the signed circular
    distance of t from 0 (flat for sigma = inf), unnormalised."""
    t = np.arange(n)
    dist = np.minimum(t, n - t).astype(float)
    if math.isinf(sigma):
        return np.ones(n)
    return np.exp(-(dist**2) / (2.0 * sigma**2))


def gabor_frame_operator(n: int, sigma: float, a: int, q: int) -> np.ndarray:
    """S = D D* of the Gabor frame on the lattice (a, 1/q), q | n, from the
    Walnut form S[t, u] = (q / ||g||^2) sum_k2 g(t - k2 a) g(u - k2 a) when
    t = u mod q and 0 otherwise; an n x n real array, no atom is formed."""
    g = gabor_window(n, sigma)
    t = np.arange(n)
    W = g[(t[:, None] - a * np.arange(math.ceil(n / a))) % n]
    return q / float(np.sum(g**2)) * (W @ W.T) * ((t[:, None] - t) % q == 0)


def gabor_atoms(n: int, sigma: float, a: int, b: float, ks) -> np.ndarray:
    """Columns ks of the Gabor synthesis matrix, straight from the atom
    formula g((t - k2 a) mod n) e^{2 pi i k1 b t} / ||g||, with atom
    k = k2 * ceil(1/b) + k1.  An n x len(ks) complex array."""
    g = gabor_window(n, sigma)
    n_freq = math.ceil(1.0 / b - 1e-12)
    ks = np.asarray(ks)
    k2, k1 = ks // n_freq, ks % n_freq
    t = np.arange(n)[:, None]
    shifted = g[(t - a * k2) % n]
    # the phase in turns, reduced mod 1 before the exponential: b * k1 * t
    # reaches 1e5 turns at n = 8192, where 2 pi b k1 t would lose 1e-11
    turns = np.mod(b * (k1 * t), 1.0)
    return shifted * np.exp(2j * np.pi * turns) / math.sqrt(float(np.sum(g**2)))
