"""Restricted-isometry certification adapted to a dictionary.

The adapted constant delta_s measures how far A is from an isometry on
the union of subspaces spanned by any s dictionary atoms.  Two routes:
a Monte-Carlo sampler (lower bound: sampling a supremum cannot
overestimate it) and an exact small-instance oracle that enumerates every
support and reads the extreme singular values of A restricted to the
spanned subspace.  The sampler skips a trial whose vector is 0, as the
oracle skips a support of rank 0; neither counts it.  The oracle screens
each chunk of supports first, from a support's two s x s Grams, read
from D^H D and (AD)^H (AD): it brackets each defect by the traces of
P^-1 G (Wolkowicz and Styan) and prunes the supports whose upper bound
lies below the best lower bound or SVD value so far.  Only the supports
left, and those the screen's conditioning guard rejects, go through the
SVDs.  The result is bit for bit that of evaluating every support by
SVD.

Also here: the concentration check for sensing ensembles, the closed-form
recovery-theorem constants K1/K2 -> C0/C1, and the end-to-end error-bound
verifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frames import Dictionary
from .linops import BLOCK_BYTES  # sizes Monte Carlo blocks and enumeration chunks
from .rng import make_rng
from .sensing import SensingOperator
from .signals import Signal, best_s_term

__all__ = [
    "DripEstimate",
    "ConstantsReport",
    "BoundCheck",
    "drip_monte_carlo",
    "drip_exact_small",
    "EnumerationCapError",
    "concentration_check",
    "theorem_constants",
    "theorem_constants_from_delta",
    "verify_error_bound",
]

# Most supports drip_exact_small enumerates; read at call time.
ENUMERATION_CAP = 10**6


class EnumerationCapError(ValueError):
    """drip_exact_small was asked for more supports than its cap allows."""


# Screen of the exact enumeration: a support enters it when its Gram P
# has det P > SCREEN_GUARD u^s, where the Wolkowicz-Styan bound u =
# mu + sigma sqrt(s-1) from tr P and ||P||_F (_guarded) bounds
# lambda_max(P).  Then lambda_min >= det P / lambda_max^(s-1) >
# SCREEN_GUARD u >= SCREEN_GUARD lambda_max at every s, and the
# eigenvalues of the pencil (P, G) differ from the SVD values by a few
# eps / SCREEN_GUARD times max(1, lambda_max) at most (8e-15 measured on
# the benchmark's instances).
SCREEN_GUARD = 1e-3
# Slack of the trace bounds (_bracket), SCREEN_SLACK max(1, mu + sigma
# sqrt(s-1)) a support, where the scale bounds lam_max.  It covers the
# gap between the SVD value and the pencil's eigenvalues (above) and the
# bounds' own rounding.  Under the guard the solve moves X by a few eps /
# SCREEN_GUARD of the scale, which moves mu and sigma as little.  But
# sigma^2 = t2/s - mu^2 cancels when sigma ~ 0: rounding t2 and mu^2 by a
# few eps leaves an error e ~ 1e-16 of the scale squared, which moves
# sigma by up to sqrt(e), and sigma sqrt(s-1) by up to 2.1e-8 of the
# scale (measured on near-multiples G ~ c P, s <= 5).  1e-6 covers the
# two with room; 1e-8 does not.
SCREEN_SLACK = 1e-6
# Philox stream of the Monte Carlo draws: not 0 (sensing, pulses, noise),
# not 0x9090 (power iteration) and above every split_seed stream in use.
MC_STREAM = 0x4D6F6E7465


@dataclass
class DripEstimate:
    """An estimate of the dictionary-restricted isometry constant delta_s."""

    s: int
    delta_hat: float
    method: str  # "monte_carlo" | "exact_enumeration"
    trials: int  # trials with v != 0, or supports of rank > 0
    seed: int | None = None


@dataclass
class ConstantsReport:
    """Closed-form constants of the recovery guarantee.

    K1 = sqrt(2 c1 (1 - delta_sM) (1 - (c1/2 + rho + rho c2))) - sqrt(rho (1 + delta_M))
    K2 = sqrt(2 c1 (1 - delta_sM) (rho/c2 + rho)) - sqrt(rho (1 + delta_M))

    as printed in the source derivation (the "verbatim" variant).
    Re-deriving the final substitution suggests K2's second term should be
    added, not subtracted; that variant is exposed as k2_variant="derived".
    The error bound is ||f - fhat|| <= C0 eps + C1 tail/sqrt(s) with
    C0 = 2/K1 and C1 = 2 K2 / K1, valid iff K1 > 0.
    """

    c1: float
    c2: float
    rho: float
    delta_sM: float
    delta_M: float
    K1: float
    K2: float
    C0: float
    C1: float
    valid: bool
    k2_variant: str = "verbatim"
    diagnostic: str = ""


@dataclass
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    tight_frame: bool


def _words(s: int) -> int:
    """Uniforms one trial reads: 3s, rounded up to whole 4-word Philox blocks."""
    return 4 * -(-3 * s // 4)


def _draw_trials(
    rng: np.random.Generator, count: int, d: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Supports (count, s) and complex coefficients (count, s) of ``count``
    consecutive trials, each read from its own row of ``_words(s)``
    uniforms: Floyd's algorithm on the first s, Box-Muller on the next 2s."""
    u = rng.random((count, _words(s)))
    support = np.empty((count, s), dtype=np.intp)
    for i, j in enumerate(range(d - s, d)):
        r = (u[:, i] * (j + 1)).astype(np.intp)
        support[:, i] = np.where((support[:, :i] == r[:, None]).any(axis=1), j, r)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, s : 2 * s]))
    return support, radius * np.exp(2j * np.pi * u[:, 2 * s : 3 * s])


def _sq_norms(V: np.ndarray) -> np.ndarray:
    """Squared norm of each column of V."""
    return np.sum(V.real**2 + V.imag**2, axis=0)


def _ratios(
    A: SensingOperator, D: Dictionary, X: np.ndarray, count: int
) -> np.ndarray:
    """r = ||Av||^2/||v||^2 of each of the first ``count`` columns v of
    V = D X that is not 0.  The norms run over the full-width block:
    numpy sums a single column in a different order than the columns of
    a wider array."""
    V = D.apply(X)
    v_sq = _sq_norms(V)[:count]
    scored = v_sq > 0.0
    return _sq_norms(A.apply(V))[:count][scored] / v_sq[scored]


def drip_monte_carlo(
    A: SensingOperator,
    D: Dictionary,
    s: int,
    trials: int,
    seed: int,
) -> DripEstimate:
    """Sampled lower bound on delta_s.

    Each trial draws v = D_T x on a uniform support and records
    r = ||Av||^2/||v||^2; the estimate is max |r - 1| over trials.

    Draws: trial t reads K = 4*ceil(3s/4) uniforms, words [tK, (t+1)K) of
    the Philox stream (seed, MC_STREAM), so it can be reproduced alone
    after ``bit_generator.advance(t*K//4)``.  Its first s words give the
    support by Floyd's algorithm: at step j = d-s, ..., d-1 take
    r = floor(u*(j+1)), or j if r is already chosen.  The next 2s give
    the coefficients by Box-Muller, sqrt(-2 ln(1-u1)) exp(2 pi i u2),
    whose real and imaginary parts are iid N(0, 1).  A trial whose v is 0
    (measure zero for nonzero atoms) is skipped and not counted in
    ``trials``, as drip_exact_small skips supports of rank 0; when no
    trial scores, ``delta_hat`` is 0 and ``trials`` is 0.

    Uniforms are read for chunks of trials sized by ``BLOCK_BYTES``.  D
    and A are applied once per block of a fixed number of columns, set by
    ``BLOCK_BYTES`` and the operator sizes; trial t sits in column
    t mod width of a full-width block (the last block is zero-padded), so
    its ratio does not depend on ``trials``.
    """
    if not (1 <= s <= D.d):
        raise ValueError(f"s must lie in [1, {D.d}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    width = max(1, BLOCK_BYTES // (16 * (D.d + D.n + A.m)))
    # a draw peaks at about 32 K bytes a trial (uniforms, supports,
    # coefficients and their temporaries)
    chunk = width * max(1, BLOCK_BYTES // (32 * _words(s) * width))
    rng = make_rng(seed, MC_STREAM)
    worst = 0.0
    scored = 0
    for start in range(0, trials, width):
        if start % chunk == 0:
            support, coef = _draw_trials(rng, min(chunk, trials - start), D.d, s)
        rows = slice(start % chunk, start % chunk + width)
        count = min(width, trials - start)
        X = np.zeros((D.d, width), dtype=complex)
        X[support[rows], np.arange(count)[:, None]] = coef[rows]
        r = _ratios(A, D, X, count)
        scored += r.size
        worst = max(worst, float(np.max(np.abs(r - 1.0), initial=0.0)))
    return DripEstimate(
        s=s, delta_hat=worst, method="monte_carlo", trials=scored, seed=seed
    )


def _subspace_extremes(
    cols: np.ndarray, Adense: np.ndarray, tol_factor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank r and extreme squared singular values (smin^2, smax^2) of A on
    the span of each stacked atom set cols[k] (n x s), from stacked SVDs:
    one of the atoms, then one of A times the r leading left singular
    vectors per rank present.  LAPACK evaluates a stack matrix by matrix,
    so each support's values do not depend on the rest of the stack.
    Entries of rank 0 are left unset."""
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    # sv is descending, so the columns above the tolerance lead u
    rank = np.sum(sv > (tol_factor * sv[:, 0])[:, None], axis=1)
    smin2 = np.empty(len(rank))
    smax2 = np.empty(len(rank))
    for r in range(1, cols.shape[2] + 1):
        idx = np.flatnonzero(rank == r)
        if idx.size == 0:
            continue
        sub_sv = np.linalg.svd(Adense @ u[idx, :, :r], compute_uv=False)
        # squared one at a time: a numpy scalar squares with pow(),
        # which can round differently from an array's x * x
        smax2[idx] = [v**2 for v in sub_sv[:, 0]]
        smin2[idx] = [v**2 for v in sub_sv[:, -1]]
    return rank, smin2, smax2


def _gather(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """The s x s block gram[T][:, T] of each support T (a row of
    ``supports``); a 1-d ``gram`` holds only the diagonal (s = 1)."""
    if gram.ndim == 1:
        return gram[supports][:, :, None]
    return gram[supports[:, :, None], supports[:, None, :]]


def _bracket(P: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds lb <= v <= ub on the defect v = max(lam_max - 1, 1 -
    lam_min) of each stacked pencil (P[k], G[k]), and the slack that
    covers their rounding.

    The eigenvalues of X = P^-1 G are real, so with mu = Re tr X / s and
    sigma^2 = Re tr X^2 / s - mu^2 (tr X^2 = sum_ij X_ij X_ji), Wolkowicz
    and Styan (Linear Algebra Appl. 29, 1980) put lam_max in
    [mu + sigma/sqrt(s-1), mu + sigma sqrt(s-1)] and lam_min in
    [mu - sigma sqrt(s-1), mu - sigma/sqrt(s-1)]; at s = 1, lam = mu."""
    s = P.shape[1]
    X = np.linalg.solve(P, G)
    mu = np.trace(X, axis1=1, axis2=2).real / s
    t2 = np.sum(X * X.transpose(0, 2, 1), axis=(1, 2)).real
    sigma = np.sqrt(np.maximum(t2 / s - mu**2, 0.0))
    wide, narrow = (math.sqrt(s - 1), 1.0 / math.sqrt(s - 1)) if s > 1 else (0.0, 0.0)
    lb = np.abs(mu - 1.0) + narrow * sigma
    ub = np.abs(mu - 1.0) + wide * sigma
    return lb, ub, SCREEN_SLACK * np.maximum(1.0, mu + wide * sigma)


def _guarded(P: np.ndarray) -> np.ndarray:
    """Mask of the stacked Hermitian P[k], of positive trace, that pass
    the conditioning guard det P > SCREEN_GUARD u^s, where u = mu + sigma
    sqrt(s-1) (mu = tr P / s, sigma^2 = ||P||_F^2 / s - mu^2) bounds
    lam_max(P) (Wolkowicz and Styan); a P that passes has lam_min /
    lam_max > SCREEN_GUARD."""
    s = P.shape[1]
    # det P / u^s from P scaled to unit trace (mu = 1/s), where neither
    # can overflow
    unit = P / P.diagonal(axis1=1, axis2=2).real.sum(axis=1)[:, None, None]
    fro2 = np.einsum("kij,kij->k", unit.conj(), unit).real
    u = 1.0 / s + math.sqrt(s - 1) * np.sqrt(np.maximum(fro2 / s - 1.0 / s**2, 0.0))
    return np.linalg.det(unit).real / u**s > SCREEN_GUARD


def _screen(P: np.ndarray, G: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """Indices of the stacked supports, with Grams P[k] of their atoms and
    G[k] of their images under A, whose defect lies below the raised
    floor, and that floor.

    A support is screened when P and G are finite and P passes the
    conditioning guard (_guarded).  The floor rises to the largest lb -
    slack (_bracket) of a screened support, and those whose ub + slack
    lies below it are pruned."""
    trace = P.diagonal(axis1=1, axis2=2).real.sum(axis=1)
    ok = np.flatnonzero(
        np.isfinite(P).all(axis=(1, 2)) & np.isfinite(G).all(axis=(1, 2)) & (trace > 0.0)
    )
    passed = ok[_guarded(P[ok])]
    lb, ub, slack = _bracket(P[passed], G[passed])
    floor = max(floor, float(np.max(lb - slack, initial=-math.inf)))
    return passed[ub + slack < floor], floor


def drip_exact_small(A: SensingOperator, D: Dictionary, s: int) -> DripEstimate:
    """Exact delta_s by enumerating every s-atom support.

    Each support's atoms are orthonormalized (the spanned subspace is
    what matters, so linearly dependent atom sets are fine); the extreme
    singular values of A restricted to that basis give the support's
    isometry defect v exactly.  Supports of rank 0 (only zero atoms) are
    skipped and not counted in ``trials``.  More than ``ENUMERATION_CAP``
    supports raise ``EnumerationCapError``.

    Supports are taken in ``itertools.combinations`` order, in chunks
    sized by ``BLOCK_BYTES``; the SVDs run stacked (the second one per
    rank present), which LAPACK evaluates matrix by matrix exactly as it
    would one support at a time.

    Only the largest v reaches the result, so each chunk is screened
    first (``_screen``).  Each support's s x s Grams P = D_T^H D_T and
    G = (A D_T)^H (A D_T) are read from D^H D and
    (AD)^H (AD), formed once per call: 32 d^2 bytes, at most about 64 MB
    (s = 2, d = 1414 under ENUMERATION_CAP); at s = 1 only their
    diagonals are formed.  A support that passes the conditioning guard
    det P > SCREEN_GUARD u^s (u >= lam_max(P), ``_guarded``) is full rank,
    and its v lies in [lb - slack, ub + slack] from traces of P^-1 G
    (``_bracket``), with no eigensolve.  With ``floor`` the largest lb -
    slack screened so far, or the largest v already computed if that is
    higher, a support with ub + slack < floor has v < floor, and is
    counted in ``trials`` and not evaluated.  The support that sets the
    floor is never pruned and reaches the SVDs, where its v >= floor.
    Only the other supports, and every support the guard rejects (zero,
    duplicated or near-dependent atoms, anything non-finite), have their
    atoms gathered and go through the SVDs, so ``delta_hat`` and
    ``trials`` are bit for bit those of evaluating every support.
    """
    if not (1 <= s <= D.d):
        raise ValueError(f"s must lie in [1, {D.d}]")
    count = math.comb(D.d, s)
    if count > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"C({D.d},{s}) = {count} supports exceed the enumeration cap "
            f"({ENUMERATION_CAP}); use drip_monte_carlo instead"
        )
    M = D.dense()
    Adense = A.dense()
    AM = Adense @ M
    # D^H D and (AD)^H (AD), or at s = 1 only their diagonals
    if s == 1:
        grams = (_sq_norms(M), _sq_norms(AM))
    else:
        grams = (M.conj().T @ M, AM.conj().T @ AM)
    # the screen holds about eight s x s complex matrices and sixteen
    # scalars a support; the SVDs its atoms, their left singular vectors
    # and their images
    chunk = max(1, BLOCK_BYTES // (128 * (s * s + 1)))
    batch = max(1, BLOCK_BYTES // (16 * s * (2 * D.n + A.m)))
    tol_factor = max(D.n, s) * np.finfo(float).eps
    combos = itertools.combinations(range(D.d), s)
    worst = 0.0
    floor = -math.inf
    checked = 0
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, chunk)), dtype=np.intp
        )
        if flat.size == 0:
            break
        supports = flat.reshape(-1, s)
        P, G = (_gather(gram, supports) for gram in grams)
        pruned, floor = _screen(P, G, max(floor, worst))
        checked += pruned.size
        supports = np.delete(supports, pruned, axis=0)
        for start in range(0, len(supports), batch):
            # [support, n, s]
            cols = M[:, supports[start : start + batch]].transpose(1, 0, 2)
            rank, smin2, smax2 = _subspace_extremes(cols, Adense, tol_factor)
            kept = rank > 0
            smin2, smax2 = smin2[kept], smax2[kept]
            if smin2.size:
                worst = max(
                    worst, float(np.max(smax2 - 1.0)), float(np.max(1.0 - smin2))
                )
            checked += smin2.size
    return DripEstimate(
        s=s, delta_hat=worst, method="exact_enumeration", trials=checked
    )


def concentration_check(
    factory: Callable[[int], SensingOperator],
    v: np.ndarray,
    delta: float,
    trials: int,
    seed: int,
) -> float:
    """Empirical failure rate of the fixed-vector concentration bound.

    Draws a fresh operator per trial (factory receives the trial's child
    seed) and counts how often ||Av||^2 leaves
    [(1-delta)||v||^2, (1+delta)||v||^2].  delta must be finite and >= 0;
    above 1 only the upper side can fail.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError("delta must be finite and >= 0")
    v = np.asarray(v, dtype=complex)
    ref = float(np.linalg.norm(v) ** 2)
    failures = 0
    for t in range(trials):
        child = int(make_rng(seed, stream=t).integers(0, 2**63, dtype=np.uint64))
        A = factory(child)
        r = float(np.linalg.norm(A.apply(v)) ** 2)
        if r < (1.0 - delta) * ref or r > (1.0 + delta) * ref:
            failures += 1
    return failures / trials


def theorem_constants(
    delta_sM: float,
    delta_M: float,
    c1: float,
    c2: float,
    rho: float,
    k2_variant: str = "verbatim",
) -> ConstantsReport:
    """Evaluate K1, K2 and the error-bound constants C0 = 2/K1, C1 = 2 K2/K1.

    k2_variant="verbatim" subtracts sqrt(rho(1+delta_M)) in K2 as printed;
    "derived" adds it (see ConstantsReport).  When K1 <= 0 the constants
    are not finite and valid is False.
    """
    if not (0.0 <= delta_sM < 1.0 and 0.0 <= delta_M < 1.0):
        raise ValueError("deltas must lie in [0, 1)")
    if c1 <= 0 or c2 <= 0 or rho <= 0:
        raise ValueError("c1, c2, rho must be > 0")
    if k2_variant not in ("verbatim", "derived"):
        raise ValueError("k2_variant must be 'verbatim' or 'derived'")

    inner = 1.0 - (c1 / 2.0 + rho + rho * c2)
    cross = math.sqrt(rho * (1.0 + delta_M))
    if inner < 0.0:
        return ConstantsReport(
            c1=c1, c2=c2, rho=rho, delta_sM=delta_sM, delta_M=delta_M,
            K1=math.nan, K2=math.nan, C0=math.nan, C1=math.nan,
            valid=False, k2_variant=k2_variant,
            diagnostic=f"1 - (c1/2 + rho + rho*c2) = {inner:.6g} < 0; "
            "choose smaller c1, c2, or rho",
        )
    K1 = math.sqrt(2.0 * c1 * (1.0 - delta_sM) * inner) - cross
    k2_main = math.sqrt(2.0 * c1 * (1.0 - delta_sM) * (rho / c2 + rho))
    K2 = k2_main - cross if k2_variant == "verbatim" else k2_main + cross
    if K1 > 0.0:
        C0 = 2.0 / K1
        C1 = 2.0 * K2 / K1
        valid = True
        diag = ""
    else:
        C0 = math.inf
        C1 = math.inf
        valid = False
        diag = f"K1 = {K1:.6g} <= 0: isometry defect too large for this bound"
    return ConstantsReport(
        c1=c1, c2=c2, rho=rho, delta_sM=delta_sM, delta_M=delta_M,
        K1=K1, K2=K2, C0=C0, C1=C1, valid=valid,
        k2_variant=k2_variant, diagnostic=diag,
    )


def theorem_constants_from_delta(
    delta: float,
    c1: float = 0.5,
    c2: float = 0.1,
    k2_variant: str = "verbatim",
) -> ConstantsReport:
    """Convenience wrapper with block size M = 6s (rho = 1/6) and a single
    delta standing in for both delta_{s+M} and delta_M (= delta_{7s})."""
    return theorem_constants(
        delta_sM=delta, delta_M=delta, c1=c1, c2=c2, rho=1.0 / 6.0,
        k2_variant=k2_variant,
    )


def verify_error_bound(
    f: np.ndarray | Signal,
    f_hat: np.ndarray | Signal,
    D: Dictionary,
    s: int,
    eps: float,
    C0: float,
    C1: float,
) -> BoundCheck:
    """Check ||fhat - f||_2 <= C0*eps + C1*||D*f - (D*f)_s||_1/sqrt(s).

    ``tight_frame`` is D.tight, the D D* = I decision D's constructor
    made; a non-tight dictionary flags the check (hypothesis unmet) but
    the two sides are still computed.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    fv = f.samples if isinstance(f, Signal) else np.asarray(f, dtype=complex)
    fh = f_hat.samples if isinstance(f_hat, Signal) else np.asarray(f_hat, dtype=complex)
    coeffs = D.adjoint(fv)
    tail = coeffs - best_s_term(coeffs, s)
    lhs = float(np.linalg.norm(fh - fv))
    rhs = float(C0 * eps + C1 * np.sum(np.abs(tail)) / math.sqrt(s))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs, tight_frame=D.tight)
