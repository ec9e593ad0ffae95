"""Redundant dictionaries (tight and general frames) as linear operators.

A dictionary D maps coefficient vectors in C^d to signals in C^n
(synthesis); its adjoint D* computes analysis coefficients.  Structured
constructors (oversampled DFT, Gabor) get FFT fast paths; everything can
fall back to a dense matrix below the materialization cap.  A Gabor frame
with integer Q = 1/b runs its window as a batched GEMM against a stored
window table while that table fits in cache; on a lattice with a | Q | n
whose table would not, D and D* run in the Zak domain instead, as one
length-n/Q FFT convolution per (tau, rho) from a table of n*Q/a values.

All arithmetic is complex double precision.  Real signals ride along with
zero imaginary part.
"""

from __future__ import annotations

import math

import numpy as np

from .linops import LinearOperator, gram, power_iteration
from .rng import make_rng

__all__ = [
    "Dictionary",
    "build_oversampled_dft",
    "build_gabor",
    "build_concat",
    "build_identity",
    "from_matrix",
    "tighten",
    "frame_bounds",
    "coherence",
    "gram_pnorm_factor",
]


class Dictionary(LinearOperator):
    """An n x d synthesis operator with analysis adjoint.

    ``apply`` maps coefficients (length d) to a signal (length n);
    ``adjoint`` maps a signal to coefficients.  ``tight`` marks frames
    known to satisfy D D* = I.
    """

    def __init__(self, n, d, apply, adjoint, kind, tight=False):
        super().__init__(in_dim=d, out_dim=n, apply=apply, adjoint=adjoint)
        self.n = int(n)
        self.d = int(d)
        self.kind = kind
        self.tight = bool(tight)
        # (branch, (A, B)): "lattice" for exact bounds from the structure,
        # set at build time and read by the solvers; else the last
        # frame_bounds result with the branch that produced it, "dense" or
        # "power".
        self._bounds_cache: tuple[str, tuple[float, float]] | None = None

    def __repr__(self):
        return (
            f"Dictionary(kind={self.kind!r}, n={self.n}, d={self.d}, "
            f"tight={self.tight})"
        )


def build_oversampled_dft(n: int, c: int = 1) -> Dictionary:
    """Oversampled DFT frame: d = c*n atoms on a c-times finer frequency grid.

    Atom k has entries exp(-2*pi*i*k*t/(c*n)) / sqrt(c*n) for t = 0..n-1,
    so D D* = I and every atom has norm 1/sqrt(c).  c = 1 gives the
    unitary n-point DFT.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if c < 1:
        raise ValueError("oversampling factor c must be >= 1")
    n = int(n)
    c = int(c)
    d = c * n
    root = math.sqrt(d)

    def apply(x: np.ndarray) -> np.ndarray:
        # Dx is the leading n outputs of the length-d forward DFT of x.
        return np.fft.fft(x, axis=0)[:n] / root

    def adjoint(f: np.ndarray) -> np.ndarray:
        z = np.zeros((d, *f.shape[1:]), dtype=complex)
        z[:n] = f
        return np.fft.ifft(z, axis=0) * root

    return Dictionary(n, d, apply, adjoint, kind="oversampled_dft", tight=True)


def _gabor_grid(n: int, a: int, b: float) -> tuple[int, int]:
    """Number of time shifts (k2*a in [0,n)) and frequencies (k1*b in [0,1))."""
    n_time = int(math.ceil(n / a))
    n_freq = int(math.ceil(1.0 / b - 1e-12))
    return n_time, n_freq


def _lattice_bounds(g: np.ndarray, a: int, q: int) -> tuple[float, float]:
    """Extreme eigenvalues of S = D D* for the Gabor frame of window g on
    the lattice (a, 1/q), when a | q | n.

    S is block-diagonal by t mod q, block r + a equals block r, and each
    block is circulant in t // q (Zibulski and Zeevi 1997; Strohmer 1998),
    so the whole spectrum is
    lam[r, j] = (a / ||g||^2) sum_{l < q/a} |G_r[j + l n/q]|^2,  r < a,
    with G_r the length-n/a DFT of k2 -> g((r - k2*a) mod n).
    """
    n = g.size
    G = np.fft.fft(g[(np.arange(a)[:, None] - a * np.arange(n // a)) % n], axis=1)
    lam = a / np.sum(g**2) * (np.abs(G) ** 2).reshape(a, q // a, n // q).sum(axis=1)
    return float(lam.min()), float(lam.max())


# A dividing lattice (a | Q | n) whose GEMM window table, 8*n*ceil(n/a)
# bytes, exceeds this runs D and D* in the Zak domain.  The GEMM is the
# direct convolution and wins while its table is small against the 2 MiB
# per-core L2 of the 2-core benchmark VM.  One D + D* pair there, min/median
# of 31 runs in microseconds, GEMM -> Zak:
#   n = 256,  Q = 32 (64 KiB table)        76/80 ->   126/136
#   n = 1024, Q = 64 (1 MiB table)        390/419 ->   307/326
#   n = 2048, Q = 64 (4 MiB table)      2,637/2,754 ->   581/616
#   n = 8192, Q = 64 (64 MiB table)    22,019/23,537 -> 2,645/2,812
# The limit sits above 1 MiB, where the Zak maps already win, so that the
# radar experiment's lattice keeps the outputs of the direct path.
_GEMM_TABLE_BYTES = 2**21


def _zak_maps(g: np.ndarray, gnorm: float, a: int, q: int):
    """(apply, adjoint) of the Gabor frame of window g on the lattice
    (a, 1/q), a | q | n, in the Zak domain.

    With N = n/q, time t = alpha*q + tau and atom k = (beta*(q/a) + rho)*q
    + k1, synthesis is, for each (tau, rho), a circular convolution over
    alpha of length N with kernel g((gamma*q + tau - rho*a) mod n), so it
    diagonalises under a length-N DFT (Zibulski and Zeevi 1997; Strohmer
    1998).  The one table is
    H[w, rho, tau] = sum_gamma g((gamma q + tau - rho a) mod n)
    e^{2 pi i w gamma / N} / (||g|| N), n*q/a complex values.
    """
    n = g.size
    N, R = n // q, q // a
    gamma = q * np.arange(N)[:, None, None]
    H = np.fft.ifft(
        g[(gamma + np.arange(q) - a * np.arange(R)[:, None]) % n], axis=0, norm="forward"
    ) / (gnorm * N)  # [w, rho, tau]

    # A block's columns ride along as a trailing axis, as on the GEMM path.
    def apply(x: np.ndarray) -> np.ndarray:
        cols = x.shape[1:]
        # X[w, rho, tau] = sum_{beta, k1} x[beta, rho, k1] e^{2 pi i (w beta/N + k1 tau/q)}
        X = np.fft.ifftn(x.reshape(N, R, q, *cols), axes=(0, 2), norm="forward")
        y = (H.reshape(N, R, q, *(1,) * len(cols)) * X).sum(axis=1)  # [w, tau]
        return np.fft.fft(y, axis=0).reshape(n, *cols)  # [alpha, tau]

    def adjoint(f: np.ndarray) -> np.ndarray:
        cols = f.shape[1:]
        F = np.fft.ifft(f.reshape(N, 1, q, *cols), axis=0, norm="forward")
        # the inverse DFT over alpha and the forward one over w scale by N,
        # which the 1/N in H cancels
        Hc = H.conj().reshape(N, R, q, *(1,) * len(cols))
        return np.fft.fftn(Hc * F, axes=(0, 2)).reshape(n * R, *cols)

    return apply, adjoint


def build_gabor(n: int, window_sigma: float, a: int, b: float) -> Dictionary:
    """Gabor frame with a circularly wrapped Gaussian window.

    Atoms are g((t - k2*a) mod n) * exp(2*pi*i*k1*b*t), ell2-normalized,
    indexed on the grid k2*a in [0,n), k1*b in [0,1).  The window is
    g(t) = exp(-t^2 / (2*sigma^2)) evaluated at the signed circular
    distance; sigma = inf gives a flat window.

    D and D* take one of three paths:

    - a | Q | n (Q = 1/b) and a GEMM window table of 8*n*ceil(n/a) bytes
      would exceed ``_GEMM_TABLE_BYTES`` (2 MiB): the Zak-domain maps of
      _zak_maps, FFTs of sizes n/Q and Q around a pointwise product with
      one n*Q/a complex table;
    - any other integer Q: one length-Q FFT plus a batched GEMM against
      one such window table, which D* reads through a transposed view;
      this is the direct convolution, fastest while the table fits in
      cache;
    - any other b: dense phase ramps and windows.

    On a lattice with a | Q | n, the build also computes the exact frame
    bounds from one length-n/a FFT per residue r < a (see _lattice_bounds)
    and stores them as a "lattice" entry in ``_bounds_cache``, which
    frame_bounds returns and from which the solvers take ||D|| = sqrt(B);
    ``tight`` is set when B - A <= 1e-12 B.  Other lattices carry no entry
    and are not marked tight.

    Grids with a*b > 1 are undersampled and cannot form a frame; they are
    rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a < 1:
        raise ValueError("time step a must be >= 1 sample")
    if not (0.0 < b <= 1.0):
        raise ValueError("frequency step b must lie in (0, 1]")
    if a * b > 1.0 + 1e-12:
        raise ValueError(
            f"undersampled Gabor grid: a*b = {a * b:.6g} > 1 cannot be a frame"
        )
    n = int(n)
    a = int(a)
    n_time, n_freq = _gabor_grid(n, a, b)
    d = n_time * n_freq

    # The window g at the signed circular distance of t from 0, wrapped to
    # (-n/2, n/2]; atom k2 carries it shifted, g((t - k2*a) mod n).  The
    # tables below gather from g, so no n x n_time temporary is formed.
    t = np.arange(n)
    dist = np.where(t > n / 2, t - n, t).astype(float)
    if math.isinf(window_sigma):
        g = np.ones(n)
    else:
        g = np.exp(-(dist**2) / (2.0 * window_sigma**2))
    shifts = a * np.arange(n_time)
    gnorm = math.sqrt(float(np.sum(g**2)))
    if gnorm == 0.0:
        raise ValueError("window vanished; sigma too small for this n")

    # Phase ramps exp(2*pi*i*k1*b*t) for all k1 at once (n_freq x n).  When
    # b = 1/Q with integer Q the ramp is t-periodic mod Q, which is what the
    # FFT fast path below exploits; for general b we keep the dense ramps.
    q = 1.0 / b
    q_int = int(round(q))
    fast = abs(q - q_int) < 1e-12 and q_int == n_freq
    lattice = fast and q_int % a == 0 and n % q_int == 0
    bounds = _lattice_bounds(g, a, q_int) if lattice else None
    if lattice and 8 * n * n_time > _GEMM_TABLE_BYTES:
        apply, adjoint = _zak_maps(g, gnorm, a, q_int)
    elif fast:
        # Phases repeat with period Q = 1/b, so time splits as t = alpha*Q + tau
        # and both directions become one small FFT plus a batched window
        # contraction.  Complex vectors ride through the real GEMMs as
        # interleaved (re, im) float pairs.
        # w_qap[tau, alpha, k2] = g((alpha*Q + tau - k2*a) mod n), zero for
        # the pad rows alpha*Q + tau >= n; gathered one tau slice at a time.
        pad = (-n) % q_int
        n_alpha = (n + pad) // q_int
        w_qap = np.zeros((q_int, n_alpha, n_time))
        for tau in range(q_int):
            rows = np.arange(tau, n, q_int)
            w_qap[tau, : rows.size] = g[(rows[:, None] - shifts) % n]
        w_qpa = w_qap.transpose(0, 2, 1)  # [tau, k2, alpha], a view: no copy

        # A block's k columns ride along as a trailing axis (``cols``, empty
        # for a vector), so they widen the GEMMs instead of repeating them.
        def apply(x: np.ndarray) -> np.ndarray:
            cols = x.shape[1:]
            coef = x.reshape(n_time, n_freq, *cols).swapaxes(0, 1)
            coef = np.ascontiguousarray(coef)  # [k1, k2, (col)]
            # ctab[tau, k2] = sum_k1 coef[k1, k2] e^{2 pi i k1 tau / Q}
            ctab = np.fft.ifft(coef, axis=0) * q_int
            cv = ctab.view(np.float64).reshape(q_int, n_time, -1)
            out = np.matmul(w_qap, cv)  # [tau, alpha, 2 * (col)]
            out = np.ascontiguousarray(out.transpose(1, 0, 2)).view(np.complex128)
            return out.reshape(n_alpha * q_int, *cols)[:n] / gnorm

        def adjoint(f: np.ndarray) -> np.ndarray:
            cols = f.shape[1:]
            if pad:
                f = np.concatenate([f, np.zeros((pad, *cols), dtype=complex)])
            fv = np.ascontiguousarray(f.reshape(n_alpha, q_int, *cols).swapaxes(0, 1))
            fv = fv.view(np.float64).reshape(q_int, n_alpha, -1)
            folded = np.matmul(w_qpa, fv).view(np.complex128)
            folded = folded.reshape(q_int, n_time, *cols)  # [tau, k2, (col)]
            coef = np.fft.fft(folded, axis=0)  # [k1, k2, (col)]
            return (coef.swapaxes(0, 1) / gnorm).reshape(d, *cols)

    else:
        ramps = np.exp(2j * np.pi * b * np.outer(np.arange(n_freq), t))
        windows = np.empty((n, n_time))  # col k2 holds g((t - k2*a) mod n)
        for k2, shift in enumerate(shifts):
            windows[:, k2] = np.roll(g, shift)

        # x.T puts a block's columns first (and leaves a vector alone), so
        # the matmuls below run once per column as a stack.
        def apply(x: np.ndarray) -> np.ndarray:
            coef = x.T.reshape(*x.shape[1:], n_time, n_freq)  # [(col), k2, k1]
            mod = coef @ ramps  # [(col), k2, t]
            return np.einsum("tp,...pt->t...", windows, mod) / gnorm

        def adjoint(f: np.ndarray) -> np.ndarray:
            u = windows * f.T[..., :, None]  # [(col), t, k2]
            coef = ramps.conj() @ u  # [(col), k1, k2]
            return (coef.T / gnorm).reshape(d, *f.shape[1:])

    tight = bounds is not None and bounds[1] - bounds[0] <= 1e-12 * bounds[1]
    out = Dictionary(n, d, apply, adjoint, kind="gabor", tight=tight)
    if bounds is not None:
        out._bounds_cache = ("lattice", bounds)
    return out


def build_concat(D1: Dictionary, D2: Dictionary, scale: float = 1.0) -> Dictionary:
    """Concatenate two dictionaries on the same signal space.

    apply stacks coefficient blocks: D [x1; x2] = scale*(D1 x1 + D2 x2);
    adjoint concatenates scale*D1*f and scale*D2*f.  The result is tight
    exactly when both inputs are tight and 2*scale^2 = 1.
    """
    if D1.n != D2.n:
        raise ValueError(f"signal dimensions differ: {D1.n} vs {D2.n}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = D1.n
    d1, d2 = D1.d, D2.d

    def apply(x: np.ndarray) -> np.ndarray:
        return scale * (D1.apply(x[:d1]) + D2.apply(x[d1:]))

    def adjoint(f: np.ndarray) -> np.ndarray:
        return scale * np.concatenate([D1.adjoint(f), D2.adjoint(f)])

    tight = D1.tight and D2.tight and abs(2.0 * scale * scale - 1.0) <= 1e-12
    return Dictionary(n, d1 + d2, apply, adjoint, kind="concat", tight=tight)


def build_identity(n: int) -> Dictionary:
    """The standard basis as a (trivially tight) dictionary."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Dictionary(
        n, n, lambda x: x.copy(), lambda f: f.copy(), kind="dense", tight=True
    )


def from_matrix(M: np.ndarray, tight: bool | None = None) -> Dictionary:
    """Wrap a dense n x d matrix.  tight=None probes D D* = I numerically."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n, d = M.shape
    Mh = M.conj().T
    if tight is None:
        tight = bool(
            np.linalg.norm(M @ Mh - np.eye(n), "fro") <= 1e-10 * math.sqrt(n)
        )
    out = Dictionary(
        n, d, lambda x: M @ x, lambda f: Mh @ f, kind="dense", tight=tight
    )
    out._dense_cache = M
    return out


def frame_bounds(D: Dictionary, dense_limit: int = 4096) -> tuple[float, float]:
    """Frame bounds (A, B) = extreme eigenvalues of D D*.

    Up to ``dense_limit``, a dense Hermitian eigensolve of S = D D* from
    ``linops.gram``: blocks of identity columns through D* and then D, or
    chunked products of D's matrix when D stores one; memory is one n x n
    complex S, never the n x d D.  Beyond that, power iteration on the
    frame operator and on B*I - D D*, at most 500 steps each.  The step
    cap can bind: on the frame of build_gabor(256, 8.0, 8, 1/32) the power
    branch lands within 6e-5 (A) and 8e-5 (B) relative of the dense
    eigenvalues.

    A "lattice" entry (exact bounds that build_gabor stores) answers every
    ``dense_limit``.  Otherwise the result is cached on D together with the
    branch that produced it, "dense" or "power", so a later call whose
    ``dense_limit`` selects the other branch recomputes.
    """
    branch = "dense" if D.n <= dense_limit else "power"
    if D._bounds_cache is not None and D._bounds_cache[0] in ("lattice", branch):
        return D._bounds_cache[1]
    if branch == "dense":
        eig = np.linalg.eigvalsh(gram(D))
        A, B = float(eig[0]), float(eig[-1])
    else:

        def frame_op(v):
            return D.apply(D.adjoint(v))

        B = power_iteration(frame_op, D.n, make_rng(0x5EED, D.n), 500)
        A = B - power_iteration(
            lambda v: B * v - frame_op(v), D.n, make_rng(0x5EED, D.n), 500
        )
    A = max(A, 0.0)
    D._bounds_cache = (branch, (A, B))
    return A, B


def tighten(D: Dictionary) -> Dictionary:
    """Whiten a frame: returns (D D*)^{-1/2} D, which is tight.

    S = D D* comes from ``linops.gram``, as in frame_bounds; memory is the
    n x n complex S and its eigenvectors, and D itself is left
    unmaterialized.  Raises when the frame lower bound is (numerically)
    zero.
    """
    eig, V = np.linalg.eigh(gram(D))
    if eig[0] <= 1e-12 * max(eig[-1], 1e-300):
        raise ValueError("not a frame: frame operator is rank deficient")
    W = (V * (eig**-0.5)) @ V.conj().T  # Hermitian inverse square root

    def apply(x: np.ndarray) -> np.ndarray:
        return W @ D.apply(x)

    def adjoint(f: np.ndarray) -> np.ndarray:
        return D.adjoint(W @ f)

    out = Dictionary(D.n, D.d, apply, adjoint, kind=D.kind, tight=True)
    if D._dense_cache is not None:
        out._dense_cache = W @ D._dense_cache
    return out


def coherence(M: Dictionary | np.ndarray) -> float:
    """Largest normalized inner product between distinct columns, in [0, 1]."""
    dense = M.dense() if isinstance(M, LinearOperator) else np.asarray(M, dtype=complex)
    norms = np.linalg.norm(dense, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("coherence undefined: zero column present")
    G = np.abs(dense.conj().T @ dense) / np.outer(norms, norms)
    np.fill_diagonal(G, 0.0)
    if G.size == 0 or dense.shape[1] < 2:
        return 0.0
    return float(min(G.max(), 1.0))


def gram_pnorm_factor(D: Dictionary, p: float) -> float:
    """Column quasi-p-norm factor of the Gram matrix D*D.

    Returns [max_j sum_i |(D*D)_{ij}|^p]^(1/p) for p in (0, 1], which
    bounds ||D*D x||_p <= factor * ||x||_p for every x.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    M = D.dense()
    G = np.abs(M.conj().T @ M)
    col_sums = np.sum(G**p, axis=0)
    return float(np.max(col_sums) ** (1.0 / p))
