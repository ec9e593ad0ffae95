"""Convex recovery programs solved by a shared primal-dual engine.

All four programs (l1-analysis, reweighted l1-analysis, l1-synthesis,
split-analysis) minimize an l1-type objective subject to an l2 ball
constraint ||A f - y||_2 <= eps.  They share one first-order primal-dual
splitting (relaxed Chambolle-Pock) with one dual block per operator:
the l1 term's conjugate prox is a per-coordinate modulus clip, the ball
constraint's conjugate prox is a shifted shrinkage that handles eps = 0
(affine constraint) without special casing.  The engine builds the
constraint block itself from the measurement map, y and eps; each
program supplies only its l1 blocks.

The l1 norm of a complex vector is the sum of moduli throughout, so real
problems and complex Gabor/DFT problems run through one code path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .frames import Dictionary, frame_bounds
from .linops import MATERIALIZATION_CAP, power_iteration
from .rng import make_rng
from .sensing import SensingOperator
from .signals import Signal

__all__ = [
    "SolverConfig",
    "RecoveryReport",
    "LemmaAudit",
    "l1_analysis",
    "reweighted_l1_analysis",
    "l1_synthesis",
    "split_analysis",
    "soft_threshold",
    "lemma_audit",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the primal-dual engine.

    tol_feas = None means 1e-6 * ||y||_2, fixed at solve time.
    """

    max_iter: int = 20000
    tol_rel: float = 1e-6
    tol_feas: float | None = None
    over_relaxation: float = 1.0
    history: bool = False
    # tau/sigma asymmetry; tau*sigma*||K||^2 < 1 holds for any ratio.
    # Values < 1 favor dual progress, which suits problems whose duals are
    # box-bounded at unit scale while the signal is much larger.
    step_ratio: float = 1.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_rel <= 0:
            raise ValueError("tol_rel must be > 0")
        if not (1.0 <= self.over_relaxation < 2.0):
            raise ValueError("over_relaxation must lie in [1, 2)")
        if self.step_ratio <= 0:
            raise ValueError("step_ratio must be > 0")


@dataclass
class LemmaAudit:
    """Numerical check of the recovery-proof inequalities on h = f - fhat.

    cone_slack: violation of the cone constraint
        ||D*h||_1 off T0  <=  2||D*f||_1 off T0 + ||D*h||_1 on T0;
        at an exact minimizer this is <= 0.
    tube_norm: ||A h||_2, bounded by 2 eps (+ feasibility slack).
    tail_lhs / tail_rhs: the two sides of the block-tail bound
        sum_{j>=2} ||(D*h)_{T_j}||_2 <= sqrt(s/M) (||(D*h)_{T_0}||_2 + eta)
    with blocks T_j of size M partitioning the off-support coordinates in
    decreasing magnitude and eta = 2 ||D*f||_1 off T0 / sqrt(s).
    """

    s: int
    block_size: int
    cone_slack: float
    tube_norm: float
    tail_lhs: float
    tail_rhs: float
    tail_ratio: float
    eta: float


@dataclass
class RecoveryReport:
    """Audited solver output."""

    method: str
    n: int
    d: int
    m: int
    eps: float
    f_hat: Signal
    objective: float
    feasibility: float
    iterations: int
    converged: bool
    diagnostics: LemmaAudit | None = None
    history: list[tuple[float, float]] | None = None


# ---------------------------------------------------------------------------
# proximal primitives


def soft_threshold(
    v: np.ndarray, lam: float, weights: np.ndarray | float = 1.0
) -> np.ndarray:
    """Shrink each complex entry's modulus by lam*w_i, preserving phase."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    v = np.asarray(v, dtype=complex)
    thresh = lam * np.asarray(weights, dtype=float)
    if np.any(thresh < 0):
        raise ValueError("weights must be nonnegative")
    mags = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(mags > 0.0, np.maximum(mags - thresh, 0.0) / mags, 0.0)
    return v * scale


def _clip_modulus(v: np.ndarray, bound: np.ndarray | float) -> np.ndarray:
    """Project onto {|v_i| <= bound_i}: the conjugate prox of weighted l1."""
    mags = np.abs(v)
    b = np.broadcast_to(np.asarray(bound, dtype=float), v.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(mags > b, b / mags, 1.0)
    return v * scale


def _ball_conjugate_prox(
    v: np.ndarray, sigma: float, y: np.ndarray, eps: float
) -> np.ndarray:
    """prox of sigma * (l2 ball indicator)^* : shift by sigma*y, then shrink
    the whole vector's norm by sigma*eps.  eps = 0 reduces to the shift."""
    u = v - sigma * y
    if eps == 0.0:
        return u
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return u
    return u * max(0.0, 1.0 - sigma * eps / norm)


# ---------------------------------------------------------------------------
# the engine


@dataclass
class _DualBlock:
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]  # prox of sigma*H^*


class _Solve(NamedTuple):
    """Final engine state.  kx and duals hold one entry per dual block,
    the measurement constraint's last."""

    x: np.ndarray
    kx: list[np.ndarray]
    objective: float
    feasibility: float
    iterations: int
    converged: bool
    history: list[tuple[float, float]] | None
    duals: list[np.ndarray]


_WINDOW = 10  # convergence window length (iterations)
_REFRESH = 512  # recompute tracked block images every this many iterations
_POWER_ITERS = 100  # step cap of the ||K|| estimate behind the step size
_POWER_SEED = 0  # seeds the estimate's start vector


def _pdhg(
    n_primal: int,
    blocks: Sequence[_DualBlock],
    K: Callable[[np.ndarray], np.ndarray],
    K_adj: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    eps: float,
    objective: Callable[[np.ndarray, list[np.ndarray]], float],
    cfg: SolverConfig,
    primal_prox: Callable[[np.ndarray, float], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    duals0: list[np.ndarray] | None = None,
) -> _Solve:
    """Relaxed primal-dual iteration for
    min G(x) + sum_b H_b(K_b x)  s.t.  ||K x - y||_2 <= eps.

    The constraint is the last dual block, with the shifted-shrinkage
    prox; its tracked image gives the feasibility ||K x - y||_2.  Tracks
    K_b x incrementally so each iteration costs one apply and one adjoint
    per block.  Convergence: the relative spread of objective and
    feasibility over a 10-iteration window falls below tol_rel while the
    iterate is eps-feasible within tol_feas.
    """
    blocks = [
        *blocks,
        _DualBlock(K, K_adj, lambda v, sig: _ball_conjugate_prox(v, sig, y, eps)),
    ]
    y_norm = float(np.linalg.norm(y))
    tol_feas = cfg.tol_feas if cfg.tol_feas is not None else 1e-6 * y_norm

    def feasibility(kx):
        return float(np.linalg.norm(kx[-1] - y))

    def stack_apply(v):
        return [b.apply(v) for b in blocks]

    def stacked_power(v):
        imgs = stack_apply(v)
        out = np.zeros(n_primal, dtype=complex)
        for b, img in zip(blocks, imgs):
            out += b.adjoint(img)
        return out

    lam = power_iteration(
        stacked_power, n_primal, make_rng(_POWER_SEED, stream=0x9090), _POWER_ITERS
    )
    norm_k = math.sqrt(max(lam, 0.0))
    step = 1.0 / (1.01 * max(norm_k, 1e-150))
    tau = step * cfg.step_ratio
    sigma = step / cfg.step_ratio

    rho = cfg.over_relaxation
    x = np.zeros(n_primal, dtype=complex) if x0 is None else x0.astype(complex)
    kx = stack_apply(x)
    if duals0 is None:
        duals = [np.zeros_like(k, dtype=complex) for k in kx]
    else:
        duals = [p.astype(complex) for p in duals0]

    obj_win: deque[float] = deque(maxlen=_WINDOW + 1)
    feas_win: deque[float] = deque(maxlen=_WINDOW + 1)
    history: list[tuple[float, float]] | None = [] if cfg.history else None

    converged = False
    it = 0
    obj = objective(x, kx)
    feas = feasibility(kx)
    for it in range(1, cfg.max_iter + 1):
        grad = np.zeros(n_primal, dtype=complex)
        for b, p in zip(blocks, duals):
            grad += b.adjoint(p)
        x_t = x - tau * grad
        if primal_prox is not None:
            x_t = primal_prox(x_t, tau)
        kx_t = stack_apply(x_t)
        for i, b in enumerate(blocks):
            duals[i] = b.prox(duals[i] + sigma * (2.0 * kx_t[i] - kx[i]), sigma)
        x = x + rho * (x_t - x)
        if it % _REFRESH == 0:
            kx = stack_apply(x)
        else:
            kx = [v + rho * (vt - v) for v, vt in zip(kx, kx_t)]

        obj = objective(x, kx)
        feas = feasibility(kx)
        if history is not None:
            history.append((obj, feas))
        obj_win.append(obj)
        feas_win.append(feas)
        if len(obj_win) == _WINDOW + 1 and feas <= eps + tol_feas:
            obj_spread = max(obj_win) - min(obj_win)
            feas_spread = max(feas_win) - min(feas_win)
            if obj_spread <= cfg.tol_rel * max(abs(obj), 1e-30) and (
                feas_spread <= cfg.tol_rel * max(y_norm, 1e-30)
            ):
                converged = True
                break

    return _Solve(x, kx, obj, feas, it, converged, history, duals)


# ---------------------------------------------------------------------------
# audit


def lemma_audit(
    A: SensingOperator,
    D: Dictionary,
    f_true: np.ndarray | Signal,
    f_hat: np.ndarray | Signal,
    eps: float,
    s: int,
    block_size: int | None = None,
) -> LemmaAudit:
    """Evaluate the cone, tube, and block-tail inequalities for a solve.

    T0 is the support of the s largest |D*f| entries (ties toward lower
    index); the tail blocks partition the complement in decreasing |D*h|.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    ft = f_true.samples if isinstance(f_true, Signal) else np.asarray(f_true, complex)
    fh = f_hat.samples if isinstance(f_hat, Signal) else np.asarray(f_hat, complex)
    h = ft - fh
    ch = D.adjoint(h)
    cf = D.adjoint(ft)
    M = int(block_size) if block_size is not None else 6 * s

    order_f = np.argsort(-np.abs(cf), kind="stable")
    t0 = order_f[:s]
    t0c = np.sort(order_f[s:])

    cone_slack = float(
        np.sum(np.abs(ch[t0c])) - 2.0 * np.sum(np.abs(cf[t0c])) - np.sum(np.abs(ch[t0]))
    )
    tube_norm = float(np.linalg.norm(A.apply(h)))

    tail = t0c[np.argsort(-np.abs(ch[t0c]), kind="stable")]
    lhs = 0.0
    for start in range(M, tail.size, M):  # blocks T2, T3, ... (skip T1)
        lhs += float(np.linalg.norm(ch[tail[start : start + M]]))
    eta = 2.0 * float(np.sum(np.abs(cf[t0c]))) / math.sqrt(s)
    rhs = math.sqrt(s / M) * (float(np.linalg.norm(ch[t0])) + eta)
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return LemmaAudit(
        s=s,
        block_size=M,
        cone_slack=cone_slack,
        tube_norm=tube_norm,
        tail_lhs=lhs,
        tail_rhs=rhs,
        tail_ratio=ratio,
        eta=eta,
    )


def _report(
    method: str,
    A: SensingOperator,
    D: Dictionary,
    d: int,
    eps: float,
    f_hat: Signal,
    objective: float,
    res: _Solve,
    reference: np.ndarray | Signal | None,
    audit_s: int | None,
) -> RecoveryReport:
    """The report of one solve.  Given a reference signal it carries the
    lemma audit against D at s = audit_s (default m // 4)."""
    diagnostics = None
    if reference is not None:
        s = audit_s if audit_s is not None else max(1, A.m // 4)
        diagnostics = lemma_audit(A, D, reference, f_hat.samples, eps, s)
    return RecoveryReport(
        method=method,
        n=A.n,
        d=d,
        m=A.m,
        eps=float(eps),
        f_hat=f_hat,
        objective=objective,
        feasibility=res.feasibility,
        iterations=res.iterations,
        converged=res.converged,
        diagnostics=diagnostics,
        history=res.history,
    )


# ---------------------------------------------------------------------------
# the four programs


def _check_inputs(A, y, eps, *dicts):
    if eps < 0:
        raise ValueError("eps must be >= 0")
    for D in dicts:
        if A.n != D.n:
            raise ValueError(
                f"signal dimension mismatch: sensing n={A.n}, dict n={D.n}"
            )
    y = y.samples if isinstance(y, Signal) else np.asarray(y, dtype=complex)
    if y.shape != (A.m,):
        raise ValueError(f"y must have length m={A.m}, got {y.shape}")
    return y


def reweight_weights(coeff_mags: np.ndarray, s: int) -> tuple[np.ndarray, float]:
    """Weights for the next reweighting round: w_i = 1/(|c_i| + delta).

    delta is 0.1 times the s-th largest coefficient modulus, floored at
    1e-8 times the largest (1.0 when all coefficients vanish), so
    zero coefficients get weight exactly 1/delta.
    """
    top = np.sort(coeff_mags)[::-1]
    peak = float(top[0]) if top.size else 0.0
    if peak == 0.0:
        delta = 1.0
    else:
        delta = max(0.1 * float(top[min(s, top.size) - 1]), 1e-8 * peak)
    return 1.0 / (coeff_mags + delta), delta


def _analysis(method, A, D, y, eps, cfg, rounds, s, reference, audit_s):
    """`rounds` rounds of min ||W D* f||_1 s.t. ||A f - y||_2 <= eps, as
    reweighted_l1_analysis describes; reports the unweighted ||D* fhat||_1."""
    cfg = cfg or SolverConfig()
    y = _check_inputs(A, y, eps, D)
    s = s if s is not None else max(1, A.m // 4)
    w = np.ones(D.d)
    res = duals = None
    for r in range(rounds):
        if r:
            w, _ = reweight_weights(np.abs(res.kx[0]), s)
            # re-entering with new weights: shrink dual coordinates that now
            # exceed their box so the warm start stays dual-feasible
            duals = [_clip_modulus(res.duals[0], w), res.duals[1]]
        res = _pdhg(
            n_primal=A.n,
            blocks=[
                _DualBlock(D.adjoint, D.apply, lambda v, sig, w=w: _clip_modulus(v, w))
            ],
            K=A.apply,
            K_adj=A.adjoint,
            y=y,
            eps=eps,
            objective=lambda _x, k, w=w: float(np.sum(w * np.abs(k[0]))),
            cfg=cfg,
            x0=None if res is None else res.x,
            duals0=duals,
        )
    label = "l1_analysis" if method == "analysis" else "reweighted_l1_analysis"
    objective = float(np.sum(np.abs(res.kx[0])))
    return _report(
        method, A, D, D.d, eps, Signal(res.x, label=label), objective, res,
        reference, audit_s,
    )


def l1_analysis(
    A: SensingOperator,
    D: Dictionary,
    y: np.ndarray,
    eps: float,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | Signal | None = None,
    audit_s: int | None = None,
) -> RecoveryReport:
    """min ||D* f||_1  s.t.  ||A f - y||_2 <= eps: the first round of
    reweighted_l1_analysis.

    When a reference signal is supplied the report carries the lemma audit.
    """
    return _analysis("analysis", A, D, y, eps, cfg, 1, None, reference, audit_s)


def reweighted_l1_analysis(
    A: SensingOperator,
    D: Dictionary,
    y: np.ndarray,
    eps: float,
    rw_iters: int = 3,
    cfg: SolverConfig | None = None,
    s: int | None = None,
    reference: np.ndarray | Signal | None = None,
    audit_s: int | None = None,
) -> RecoveryReport:
    """Sequential weighted l1-analysis solves.

    Round 1 uses uniform weights (identical to l1_analysis); each later
    round reweights by the previous solution's analysis coefficients (see
    reweight_weights; s defaults to m // 4) and warm-starts from the
    previous primal/dual state.  The objective reported is the unweighted
    ||D* fhat||_1.
    """
    if rw_iters < 1:
        raise ValueError("rw_iters must be >= 1")
    return _analysis(
        "reweighted", A, D, y, eps, cfg, rw_iters, s, reference, audit_s
    )


def l1_synthesis(
    A: SensingOperator,
    D: Dictionary,
    y: np.ndarray,
    eps: float,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | Signal | None = None,
    audit_s: int | None = None,
) -> tuple[RecoveryReport, np.ndarray]:
    """min ||x||_1  s.t.  ||A D x - y||_2 <= eps; returns (report, xhat)
    with fhat = D xhat.  The report objective is ||xhat||_1."""
    cfg = cfg or SolverConfig()
    y = _check_inputs(A, y, eps, D)
    res = _pdhg(
        n_primal=D.d,
        blocks=[],
        K=lambda v: A.apply(D.apply(v)),
        K_adj=lambda q: D.adjoint(A.adjoint(q)),
        y=y,
        eps=eps,
        objective=lambda x, _k: float(np.sum(np.abs(x))),
        cfg=cfg,
        primal_prox=lambda v, tau: soft_threshold(v, tau),
    )
    f_hat = Signal(D.apply(res.x), label="l1_synthesis")
    report = _report(
        "synthesis", A, D, D.d, eps, f_hat, res.objective, res, reference, audit_s
    )
    return report, res.x


def _range_projector(D: Dictionary) -> np.ndarray | None:
    """Orthogonal projector onto range(D), or None when D spans C^n.

    Rank-deficient components would otherwise make split-analysis
    degenerate (content in the null space of D* is free).  Falls back to
    assuming full rank when the dictionary is too large to materialize.
    """
    if D.tight:
        return None
    if D.n * D.d > MATERIALIZATION_CAP:
        lo, _ = frame_bounds(D)
        if lo <= 1e-10:
            raise ValueError("rank-deficient dictionary too large to project")
        return None
    M = D.dense()
    u, sv, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(sv > max(M.shape) * np.finfo(float).eps * sv[0]))
    if rank >= D.n:
        return None
    basis = u[:, :rank]
    return basis @ basis.conj().T


def split_analysis(
    A: SensingOperator,
    D1: Dictionary,
    D2: Dictionary,
    y: np.ndarray,
    eps: float,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | Signal | None = None,
    audit_s: int | None = None,
) -> tuple[RecoveryReport, Signal, Signal]:
    """min ||D1* f1||_1 + ||D2* f2||_1  s.t.  ||A(f1+f2) - y||_2 <= eps.

    Returns (report, fhat1, fhat2) with fhat = fhat1 + fhat2.  Each
    component is constrained to the range of its dictionary, which is
    vacuous for spanning dictionaries and removes the free null-space
    degeneracy otherwise.  The report's diagnostics audit against D1.
    """
    cfg = cfg or SolverConfig()
    y = _check_inputs(A, y, eps, D1, D2)
    n = A.n

    proj1 = _range_projector(D1)
    proj2 = _range_projector(D2)

    def primal_prox(z, _tau):
        out = z.copy()
        if proj1 is not None:
            out[:n] = proj1 @ z[:n]
        if proj2 is not None:
            out[n:] = proj2 @ z[n:]
        return out

    zeros = np.zeros(n, dtype=complex)
    res = _pdhg(
        n_primal=2 * n,
        blocks=[
            _DualBlock(
                apply=lambda z: D1.adjoint(z[:n]),
                adjoint=lambda p: np.concatenate([D1.apply(p), zeros]),
                prox=lambda v, sig: _clip_modulus(v, 1.0),
            ),
            _DualBlock(
                apply=lambda z: D2.adjoint(z[n:]),
                adjoint=lambda p: np.concatenate([zeros, D2.apply(p)]),
                prox=lambda v, sig: _clip_modulus(v, 1.0),
            ),
        ],
        K=lambda z: A.apply(z[:n] + z[n:]),
        K_adj=lambda q: np.tile(A.adjoint(q), 2),
        y=y,
        eps=eps,
        objective=lambda _z, k: float(np.sum(np.abs(k[0])) + np.sum(np.abs(k[1]))),
        cfg=cfg,
        primal_prox=primal_prox if (proj1 is not None or proj2 is not None) else None,
    )
    z = res.x
    f1 = Signal(z[:n], label="split_analysis_f1")
    f2 = Signal(z[n:], label="split_analysis_f2")
    f_hat = Signal(z[:n] + z[n:], label="split_analysis")
    report = _report(
        "split", A, D1, D1.d + D2.d, eps, f_hat, res.objective, res, reference,
        audit_s,
    )
    return report, f1, f2
