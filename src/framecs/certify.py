"""Restricted-isometry certification adapted to a dictionary.

The adapted constant delta_s measures how far A is from an isometry on
the union of subspaces spanned by any s dictionary atoms.  Two routes:
a Monte-Carlo sampler (lower bound: sampling a supremum cannot
overestimate it) and an exact small-instance oracle that enumerates every
support and reads the extreme singular values of A restricted to the
spanned subspace.

Also here: the concentration check for sensing ensembles, the closed-form
recovery-theorem constants K1/K2 -> C0/C1, and the end-to-end error-bound
verifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .frames import Dictionary
from .linops import BLOCK_BYTES  # sizes Monte Carlo blocks and enumeration chunks
from .rng import make_rng, rekey
from .sensing import SensingOperator
from .signals import Signal, best_s_term

__all__ = [
    "DripEstimate",
    "ConstantsReport",
    "BoundCheck",
    "drip_monte_carlo",
    "drip_exact_small",
    "concentration_check",
    "theorem_constants",
    "theorem_constants_from_delta",
    "verify_error_bound",
]

ENUMERATION_CAP = 10**6


@dataclass
class DripEstimate:
    """An estimate of the dictionary-restricted isometry constant delta_s."""

    s: int
    delta_hat: float
    method: str  # "monte_carlo" | "exact_enumeration"
    trials: int  # trials drawn, or supports checked
    seed: int | None = None
    # per-trial ratios (monte carlo) or per-support (smin^2, smax^2) pairs
    # (exact), kept only when details are requested
    details: list | None = field(default=None, repr=False)


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


def _draw_sparse_atom_combo(
    D: Dictionary, s: int, rng: np.random.Generator
) -> np.ndarray:
    """v = D_T x for a uniform s-subset T and complex Gaussian x; redraws
    the measure-zero degenerate case v = 0."""
    for _ in range(64):
        support = rng.choice(D.d, size=s, replace=False)
        x = np.zeros(D.d, dtype=complex)
        x[support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        v = D.apply(x)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            return v
    raise ValueError("could not draw a nonzero atom combination")


def _sq_norms(V: np.ndarray) -> np.ndarray:
    """Squared norm of each column of V."""
    return np.sum(V.real**2 + V.imag**2, axis=0)


def drip_monte_carlo(
    A: SensingOperator,
    D: Dictionary,
    s: int,
    trials: int,
    seed: int,
    details: bool = False,
) -> DripEstimate:
    """Sampled lower bound on delta_s.

    Each trial draws v = D_T x on a uniform support and records
    r = ||Av||^2/||v||^2; the estimate is max |r - 1| over trials.
    Trial t uses the (seed, t) substream, so runs are reproducible and
    order-independent.

    Trials run in blocks of a fixed number of columns, set by
    ``BLOCK_BYTES`` and the operator sizes; D and A are applied once per
    block.  Trial t always sits in column t mod width of a full-width
    block (the last block is zero-padded), so its ratio does not depend
    on ``trials``.  A trial whose first draw gives v = 0 is redrawn from
    its substream one vector at a time, as ``_draw_sparse_atom_combo``
    does.
    """
    if not (1 <= s <= D.d):
        raise ValueError(f"s must lie in [1, {D.d}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    width = max(1, BLOCK_BYTES // (16 * (D.d + D.n + A.m)))
    rng = make_rng(seed)
    worst = 0.0
    ratios: list[float] | None = [] if details else None
    for start in range(0, trials, width):
        count = min(width, trials - start)
        support = np.empty((count, s), dtype=np.intp)
        coef = np.empty((count, 2 * s))
        for j in range(count):
            rekey(rng, seed, start + j)
            support[j] = rng.choice(D.d, size=s, replace=False)
            coef[j] = rng.standard_normal(2 * s)  # real parts, then imaginary
        X = np.zeros((D.d, width), dtype=complex)
        X[support, np.arange(count)[:, None]] = coef[:, :s] + 1j * coef[:, s:]
        V = D.apply(X)
        # Norms over the full-width block: numpy sums a single column in a
        # different order than the columns of a wider array.
        v_sq = _sq_norms(V)[:count]
        redraw = np.flatnonzero(v_sq == 0.0)
        if redraw.size:
            for j in redraw:
                V[:, j] = _draw_sparse_atom_combo(D, s, make_rng(seed, stream=start + j))
            v_sq = _sq_norms(V)[:count]
        r = _sq_norms(A.apply(V))[:count] / v_sq
        if ratios is not None:
            ratios.extend(r.tolist())
        worst = max(worst, float(np.max(np.abs(r - 1.0))))
    return DripEstimate(
        s=s,
        delta_hat=worst,
        method="monte_carlo",
        trials=trials,
        seed=seed,
        details=ratios,
    )


def drip_exact_small(
    A: SensingOperator,
    D: Dictionary,
    s: int,
    cap: int = ENUMERATION_CAP,
    details: bool = False,
) -> DripEstimate:
    """Exact delta_s by enumerating every s-atom support.

    Each support's atoms are orthonormalized (the spanned subspace is
    what matters, so linearly dependent atom sets are fine); the extreme
    singular values of A restricted to that basis give the support's
    isometry defect exactly.  Supports of rank 0 (only zero atoms) are
    skipped.

    Supports are taken in ``itertools.combinations`` order, in chunks
    sized by ``BLOCK_BYTES``; each chunk runs both SVDs as stacked
    ``np.linalg.svd`` calls (the second one per rank present in the
    chunk), which LAPACK evaluates matrix by matrix exactly as it would
    one support at a time.
    """
    if not (1 <= s <= D.d):
        raise ValueError(f"s must lie in [1, {D.d}]")
    count = math.comb(D.d, s)
    if count > cap:
        raise ValueError(
            f"C({D.d},{s}) = {count} supports exceed the enumeration cap "
            f"({cap}); use drip_monte_carlo instead"
        )
    M = D.dense()
    Adense = A.dense()
    chunk = max(1, BLOCK_BYTES // (16 * s * (2 * D.n + A.m)))
    tol_factor = max(D.n, s) * np.finfo(float).eps
    combos = itertools.combinations(range(D.d), s)
    worst = 0.0
    extremes: list[tuple[float, float]] | None = [] if details else None
    checked = 0
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, chunk)), dtype=np.intp
        )
        if flat.size == 0:
            break
        cols = M[:, flat.reshape(-1, s)].transpose(1, 0, 2)  # [support, n, s]
        u, sv, _ = np.linalg.svd(cols, full_matrices=False)
        # sv is descending, so the columns above the tolerance lead u
        rank = np.sum(sv > (tol_factor * sv[:, 0])[:, None], axis=1)
        smin2 = np.empty(len(rank))
        smax2 = np.empty(len(rank))
        for r in range(1, s + 1):
            idx = np.flatnonzero(rank == r)
            if idx.size == 0:
                continue
            sub_sv = np.linalg.svd(Adense @ u[idx, :, :r], compute_uv=False)
            # squared one at a time: a numpy scalar squares with pow(),
            # which can round differently from an array's x * x
            smax2[idx] = [v**2 for v in sub_sv[:, 0]]
            smin2[idx] = [v**2 for v in sub_sv[:, -1]]
        kept = rank > 0
        smin2, smax2 = smin2[kept], smax2[kept]
        if smin2.size:
            worst = max(worst, float(np.max(smax2 - 1.0)), float(np.max(1.0 - smin2)))
        if extremes is not None:
            extremes.extend(zip(smin2.tolist(), smax2.tolist()))
        checked += smin2.size
    return DripEstimate(
        s=s,
        delta_hat=worst,
        method="exact_enumeration",
        trials=checked,
        details=extremes,
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
    [(1-delta)||v||^2, (1+delta)||v||^2].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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


def _is_tight(D: Dictionary, probes: int = 5, tol: float = 1e-6) -> bool:
    rng = make_rng(0x7167, stream=D.n)
    for _ in range(probes):
        f = rng.standard_normal(D.n) + 1j * rng.standard_normal(D.n)
        if np.linalg.norm(D.apply(D.adjoint(f)) - f) > tol * np.linalg.norm(f):
            return False
    return True


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

    Probes tightness of D numerically; a non-tight dictionary flags the
    check (hypothesis unmet) but the two sides are still computed.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    fv = f.samples if isinstance(f, Signal) else np.asarray(f, dtype=complex)
    fh = f_hat.samples if isinstance(f_hat, Signal) else np.asarray(f_hat, dtype=complex)
    tight = _is_tight(D)
    coeffs = D.adjoint(fv)
    tail = coeffs - best_s_term(coeffs, s)
    lhs = float(np.linalg.norm(fh - fv))
    rhs = float(C0 * eps + C1 * np.sum(np.abs(tail)) / math.sqrt(s))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs, tight_frame=tight)
