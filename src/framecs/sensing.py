"""Random measurement operators with deterministic seeding.

Entries are normalized so that E||Av||^2 = ||v||^2 (variance 1/m), which
keeps empirical restricted-isometry ratios directly interpretable.  Every
constructor is a pure function of (kind, m, n, seed): rebuilding from the
JSON descriptor reproduces the operator bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .linops import LinearOperator
from .rng import make_rng

__all__ = [
    "SensingOperator",
    "gaussian_sensing",
    "bernoulli_sensing",
    "subsampled_dft_sign",
    "measure",
    "Measurement",
    "noise_bound",
    "from_descriptor",
]


class SensingOperator(LinearOperator):
    """An m x n measurement map A with adjoint, seed, and kind metadata."""

    def __init__(self, m, n, apply, adjoint, kind, seed, is_complex):
        super().__init__(in_dim=n, out_dim=m, apply=apply, adjoint=adjoint)
        self.m = int(m)
        self.n = int(n)
        self.kind = kind
        self.seed = int(seed)
        self.is_complex = bool(is_complex)
        # Filled by the subsampled-DFT constructor; None for dense kinds.
        self.rows: np.ndarray | None = None
        self.signs: np.ndarray | None = None

    def descriptor(self) -> dict:
        """JSON-ready descriptor that regenerates this operator exactly."""
        return {"kind": self.kind, "m": self.m, "n": self.n, "seed": self.seed}

    def __repr__(self):
        return (
            f"SensingOperator(kind={self.kind!r}, m={self.m}, n={self.n}, "
            f"seed={self.seed})"
        )


def _parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of v as real BLAS operands.

    A vector's strided views go straight to matvecs.  numpy multiplies a
    strided 2-d operand without BLAS, so a block's parts are copied
    contiguous.
    """
    if v.ndim == 1:
        return v.real, v.imag
    return np.ascontiguousarray(v.real), np.ascontiguousarray(v.imag)


def _dense_operator(M: np.ndarray, kind: str, seed: int) -> SensingOperator:
    # M is float64 and the only stored table: the adjoint multiplies by the
    # transposed view M.T, which BLAS reads with its transpose flag.
    # Complex inputs are split so BLAS runs real products instead of
    # promoting the matrix on every call.
    def apply(v):
        re, im = _parts(v)
        return (M @ re) + 1j * (M @ im)

    def adjoint(y):
        re, im = _parts(y)
        return (M.T @ re) + 1j * (M.T @ im)

    op = SensingOperator(
        m=M.shape[0],
        n=M.shape[1],
        apply=apply,
        adjoint=adjoint,
        kind=kind,
        seed=seed,
        is_complex=False,
    )
    op._dense_cache = M  # dense() returns the one stored table
    return op


def gaussian_sensing(m: int, n: int, seed: int) -> SensingOperator:
    """iid N(0, 1/m) entries."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    M = make_rng(seed).standard_normal((m, n))
    M /= math.sqrt(m)  # in place: no second m x n temporary
    return _dense_operator(M, kind="gaussian", seed=seed)


def bernoulli_sensing(m: int, n: int, seed: int) -> SensingOperator:
    """iid +-1/sqrt(m) entries, equiprobable."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    M = make_rng(seed).integers(0, 2, size=(m, n)).astype(float)
    # (2 M - 1) / sqrt(m) in place, bit for bit: no further m x n temporaries
    M *= 2.0
    M -= 1.0
    M /= math.sqrt(m)
    return _dense_operator(M, kind="bernoulli", seed=seed)


def subsampled_dft_sign(m: int, n: int, seed: int) -> SensingOperator:
    """A = sqrt(n/m) * R * F * S: random rows of the unitary DFT after a
    random sign flip.  One FFT per apply.
    """
    if m > n:
        raise ValueError(f"m = {m} rows cannot exceed n = {n}")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = make_rng(seed)
    rows = np.sort(rng.choice(n, size=m, replace=False))
    signs = 2.0 * rng.integers(0, 2, size=n) - 1.0
    scale = math.sqrt(n / m) / math.sqrt(n)  # row scale * unitary DFT norm

    # signs scale the rows of v: (signs * v.T).T broadcasts them down the
    # columns of a block and is plain signs * v for a vector.
    def apply(v: np.ndarray) -> np.ndarray:
        return np.fft.fft((signs * v.T).T, axis=0)[rows] * scale

    def adjoint(y: np.ndarray) -> np.ndarray:
        z = np.zeros((n, *y.shape[1:]), dtype=complex)
        z[rows] = y
        return (signs * np.fft.ifft(z, axis=0).T).T * (n * scale)

    op = SensingOperator(
        m, n, apply, adjoint, kind="subsampled_dft_sign", seed=seed, is_complex=True
    )
    op.rows = rows
    op.signs = signs
    return op


_CONSTRUCTORS: dict[str, Callable[[int, int, int], SensingOperator]] = {
    "gaussian": gaussian_sensing,
    "bernoulli": bernoulli_sensing,
    "subsampled_dft_sign": subsampled_dft_sign,
}


def from_descriptor(desc: dict) -> SensingOperator:
    """Rebuild an operator from its {kind, m, n, seed} descriptor."""
    try:
        ctor = _CONSTRUCTORS[desc["kind"]]
    except KeyError:
        raise ValueError(f"unknown sensing kind: {desc.get('kind')!r}") from None
    return ctor(int(desc["m"]), int(desc["n"]), int(desc["seed"]))


class Measurement(NamedTuple):
    y: np.ndarray
    noise_norm: float  # realized ||z||_2, the default eps calibration


def measure(
    A: SensingOperator, f: np.ndarray, sigma: float, seed: int
) -> Measurement:
    """y = A f + z with white noise of standard deviation sigma.

    Noise is real when both A and f are real; otherwise circular complex
    with independent real/imag parts of variance sigma^2/2, so that
    E||z||^2 = m*sigma^2 either way.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    f = np.asarray(f, dtype=complex)
    y = A.apply(f)
    if sigma == 0.0:
        return Measurement(y=y, noise_norm=0.0)
    rng = make_rng(seed)
    complex_data = A.is_complex or bool(np.max(np.abs(f.imag)) > 0.0)
    if complex_data:
        z = (rng.standard_normal(A.m) + 1j * rng.standard_normal(A.m)) * (
            sigma / math.sqrt(2.0)
        )
    else:
        z = rng.standard_normal(A.m) * sigma + 0j
    return Measurement(y=y + z, noise_norm=float(np.linalg.norm(z)))


def noise_bound(m: int, sigma: float) -> float:
    """Percentile-style upper bound sqrt(m + 2*sqrt(2m)) * sigma on ||z||_2.

    Alternative to calibrating eps with the realized noise norm.
    """
    return math.sqrt(m + 2.0 * math.sqrt(2.0 * m)) * sigma
