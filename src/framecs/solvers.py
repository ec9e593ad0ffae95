"""Convex recovery programs solved by a shared primal-dual engine.

All four programs (l1-analysis, reweighted l1-analysis, l1-synthesis,
split-analysis) minimize a weighted l1 norm ||W K x||_1 subject to the
measurement constraint ||M x - y||_2 <= eps, with one relaxed
Chambolle-Pock iteration.  Its primal prox is the exact projection onto
the constraint (one eigendecomposition of M M* per call, (n/m) I in
closed form for the subsampled DFT, a scalar Newton root for eps > 0),
so every iterate it returns is feasible.  The l1 term is its one dual
block: K = D* for the analysis programs, the identity for synthesis
(x holds coefficients, M = A D) and the stacked D1*, D2* for
split-analysis (M sums the range-projected components, then applies A).
The steps keep tau sigma ||K||^2 fixed and rebalance tau/sigma every
iteration on the relative primal and dual residuals (Goldstein, Li,
Yuan, Esser and Baraniuk 2015).  A solve has converged when both
residuals and the relative duality gap, taken at the least-squares
multiplier u = -(M M*)^+ M K* p, are at most tol_rel.

The l1 norm of a complex vector is the sum of moduli throughout, and the
dual p and K x are complex.  The engine is dtype-generic in the primal:
when A stores a real matrix and y is real, the analysis programs iterate
a real x (with its projection's residual and eigen-coordinates) and take
K* p = Re(D p).  That is exact when D's atoms are closed under complex
conjugation (every Gabor frame, the oversampled DFT, real matrices,
their concatenations and tightenings): the complex program then has a
real minimizer, and D p is real to roundoff.  Every iteration checks
that; on the first ||Im D p|| > 1e-10 ||D p|| the whole solve restarts
in complex arithmetic, so other dictionaries and complex data run the
complex iteration unchanged.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .frames import Dictionary, frame_bounds
from .linops import MATERIALIZATION_CAP, LinearOperator, gram, matmul, power_iteration
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
    "lemma_audit",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the primal-dual engine.

    max_iter caps each solve (each reweighting round).  converged=True
    means the relative primal and dual residuals and the relative duality
    gap are all <= tol_rel (a reweighted solve's rounds before the last
    stop at 10 tol_rel, and every round must meet its own tolerance), and
    the returned iterate passes the tol_feas guard
    ||A fhat - y||_2 <= eps + tol_feas (None: 1e-6 ||y||_2, fixed at
    solve time; the misfit is the one the projection's eigen-coordinates
    give, and the report's feasibility applies A); the projection keeps
    iterates feasible to roundoff, so the guard binds only when roundoff
    exceeds tol_feas.  over_relaxation is the relaxation factor in
    [1, 2).  step_ratio is the starting tau/sigma, which the engine
    rebalances every iteration; every caller in the package starts at
    the default 0.25.  The field stays only because the benchmark's
    solver settings (perfbench/workloads.py) pass it by keyword.
    """

    max_iter: int = 20000
    tol_rel: float = 1e-6
    tol_feas: float | None = None
    over_relaxation: float = 1.0
    history: bool = False
    step_ratio: float = 0.25

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


def _clip_modulus(v: np.ndarray, bound: np.ndarray | float) -> np.ndarray:
    """Project onto {|v_i| <= bound_i}, bound > 0: the conjugate prox of
    weighted l1."""
    return v * (bound / np.maximum(np.abs(v), bound))


# ---------------------------------------------------------------------------
# the measurement constraint


_NEWTON_ITERS = 50  # cap of the scalar root behind an eps > 0 projection


def _sensing_gram(op: LinearOperator) -> np.ndarray | float:
    """M M* of a measurement map M: n/m for the subsampled DFT (its rows
    are orthogonal), else linops.gram (real when M stores a real matrix)."""
    if isinstance(op, SensingOperator) and op.kind == "subsampled_dft_sign":
        return op.n / op.m
    return gram(op)


def _same(v: np.ndarray) -> np.ndarray:
    return v


class _Constraint:
    """The set {x : ||M x - y||_2 <= eps} and the exact projection onto it.

    With M M* = U diag(lam) U* (U = None: a multiple of the identity) and
    r = M z - y, projecting z subtracts M* v, v = (M M*)^+ r for eps = 0
    and v = mu (I + mu M M*)^{-1} r once ||r|| > eps > 0.  Newton steps on
    1/||(I + mu M M*)^{-1} r|| - 1/eps, concave and increasing in mu, find
    the multiplier, warm-started from the previous projection.  x, r and
    the eigen-coordinates are real when M, U and y are.
    """

    def __init__(self, op: LinearOperator, y, eps, cfg: SolverConfig):
        self.apply, self.adjoint, self.y, self.eps = op.apply, op.adjoint, y, eps
        tol = cfg.tol_feas
        self.tol_feas = 1e-6 * float(np.linalg.norm(y)) if tol is None else tol
        self.U = self.Uh = None
        mm = _sensing_gram(op)
        if np.ndim(mm):
            lam, self.U = np.linalg.eigh(mm)
            self.Uh = self.U.conj().T
        else:
            lam = np.full(y.size, float(mm))
        self.live = lam > max(lam[-1], 0.0) * y.size * np.finfo(float).eps
        self.lam = np.where(self.live, lam, 0.0)
        self.inv = self.live / np.where(self.live, lam, 1.0)
        self.mu = 0.0
        # y's distance from range(M), which no x can close
        dist = float(np.linalg.norm(self._to_eig(y)[~self.live]))
        if dist > eps + self.tol_feas:
            raise ValueError(
                f"infeasible constraint: y lies {dist:.6g} from the range of "
                f"the measurement map, farther than eps = {eps:.6g}"
            )
        self.least_squares = dist >= eps  # no multiplier reaches eps

    def real(self) -> _Constraint:
        """This constraint for real iterates: y's real part as float64 (y
        has no imaginary part), the same eigendecomposition."""
        out = copy.copy(self)
        out.y = self.y.real.copy()
        return out

    def _to_eig(self, v):
        return v if self.Uh is None else matmul(self.Uh, v)

    def _from_eig(self, v):
        return v if self.U is None else matmul(self.U, v)

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply(x) - self.y))

    def project(self, z: np.ndarray) -> np.ndarray:
        r = self.apply(z) - self.y
        # misfit() forms M x - y = r - U (lam c) of the returned x = z - M* U c
        self._r, self._c = r, None
        if not self.least_squares and float(np.linalg.norm(r)) <= self.eps:
            return z
        rh = self._to_eig(r)
        coef = self.inv if self.least_squares else self._shrink(np.abs(rh) ** 2)
        self._c = coef * rh
        return z - self.adjoint(self._from_eig(self._c))

    def misfit(self) -> np.ndarray:
        """M x - y at the last projection's output x, from that
        projection's residual and eigen-coefficients, without applying M."""
        if self._c is None:
            return self._r
        return self._r - self._from_eig(self.lam * self._c)

    def _shrink(self, a: np.ndarray) -> np.ndarray:
        """mu / (1 + mu lam) on the live eigenvectors, mu the root of
        sum_i a_i / (1 + mu lam_i)^2 = eps^2 (a = |U* r|^2)."""
        lam, eps, mu = self.lam, self.eps, self.mu
        for _ in range(_NEWTON_ITERS):
            t = 1.0 / (1.0 + mu * lam)
            s = float(a @ (t * t))
            slope = float(a @ (lam * t**3))  # -(d/dmu) s / 2
            if abs(math.sqrt(s) - eps) <= 1e-14 * eps or slope == 0.0:
                break
            mu = max(mu - s * (1.0 - math.sqrt(s) / eps) / slope, 0.0)
        self.mu = mu
        return self.live * (mu / (1.0 + mu * lam))

    def gap(self, g: np.ndarray) -> tuple[float, float]:
        """(eps ||u|| - Re<u, M x - y>, ||M x - y||) at the last projection's
        output x and the least-squares multiplier u = -(M M*)^+ M g of a
        dual point with K* p = g: the constraint's share of the duality
        gap, >= 0 for a feasible x."""
        r = self.misfit()
        u = -self._from_eig(self.inv * self._to_eig(self.apply(g)))
        slack = self.eps * float(np.linalg.norm(u)) - float(np.vdot(u, r).real)
        return slack, float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# the engine


class _Solve(NamedTuple):
    """Final engine state: the returned, feasible x, kx = K x and dual p."""

    x: np.ndarray
    kx: np.ndarray
    p: np.ndarray
    feasibility: float
    iterations: int
    converged: bool
    history: list[tuple[float, float]] | None


_POWER_ITERS = 100  # step cap of the ||K|| estimate behind the step size
_POWER_SEED = 0  # seeds the estimate's start vector
_ALPHA0 = 0.5  # first step-ratio adaptation factor
_DECAY = 0.99  # each adaptation multiplies the factor by this
_BALANCE = 1.5  # residual ratio beyond which the steps adapt
_ROUND_TOL = 10  # reweighting rounds before the last stop at this * tol_rel
_TINY = np.finfo(float).tiny  # floors _rel's denominator
_REAL_TOL = 1e-10  # largest ||Im D p|| / ||D p|| a real primal accepts


class _ComplexAdjoint(Exception):
    """D p left the reals: D's atoms are not closed under conjugation."""


def _real_data(A: SensingOperator, y: np.ndarray) -> bool:
    """Whether l1-analysis iterates a real primal: A stores a float64
    matrix and y has no imaginary part."""
    return A.stores_real and not np.any(y.imag)


def _real_part(apply: Callable[[np.ndarray], np.ndarray]):
    """p -> Re(apply(p)), raising _ComplexAdjoint when the imaginary part
    exceeds _REAL_TOL of the whole."""

    def real_apply(p):
        v = apply(p)
        im = v.imag
        if im @ im > _REAL_TOL**2 * np.vdot(v, v).real:
            raise _ComplexAdjoint
        return v.real

    return real_apply


def _op_norm(D: Dictionary) -> float:
    """||D||: sqrt(B) from the exact bounds stored at construction
    (build_gabor's lattice bounds), else power iteration on D D*."""
    if D._bounds_cache is not None:
        return math.sqrt(D._bounds_cache[1])
    rng = make_rng(_POWER_SEED, stream=0x9090)
    lam = power_iteration(lambda v: D.apply(D.adjoint(v)), D.n, rng, _POWER_ITERS)
    return math.sqrt(max(lam, 0.0))


def _rel(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """||a - b|| over the largest of ||a||, ||b|| and ||scale||."""
    norms = [math.sqrt(float(np.vdot(v, v).real)) for v in (a - b, a, b, scale)]
    return norms[0] / max(*norms[1:], _TINY)


def _pdhg(
    n_primal, K, K_adj, norm_k, weights, con, cfg, x0=None, p0=None, dtype=complex
) -> _Solve:
    """Relaxed primal-dual iteration for min ||W K x||_1 s.t. x in con.

    x has the given dtype (K_adj and con keep it); p is complex.  The
    primal prox is con's projection and the dual prox clips |p_i| to
    w_i.  tau sigma ||K||^2 stays 1/1.01^2; tau/sigma starts at
    cfg.step_ratio and adapts toward equal relative residuals.  Each
    iteration applies K, K*, M and M* once.
    """
    rho, tol = cfg.over_relaxation, cfg.tol_rel
    step = 1.0 / (1.01 * max(norm_k, 1e-150))
    tau, sigma, alpha = step * cfg.step_ratio, step / cfg.step_ratio, _ALPHA0
    x = np.zeros(n_primal, dtype=dtype) if x0 is None else x0.astype(dtype)
    kx = K(x)
    p = np.zeros_like(kx) if p0 is None else p0.astype(complex)
    kp = K_adj(p)
    history: list[tuple[float, float]] | None = [] if cfg.history else None
    converged = False
    for it in range(1, cfg.max_iter + 1):
        xt = con.project(x - tau * kp)
        kxt = K(xt)
        pt = _clip_modulus(p + sigma * (2.0 * kxt - kx), weights)
        kpt = K_adj(pt)
        dx, dkx, dp, dkp = x - xt, kx - kxt, p - pt, kp - kpt
        x, kx, p, kp = x - rho * dx, kx - rho * dkx, p - rho * dp, kp - rho * dkp
        if history is not None:
            history.append((float(np.sum(weights * np.abs(kxt))), con.residual(xt)))
        # residuals of (xt, pt) in 0 in dG(x) + K* p and 0 in dH*(p) - K x
        # x * (1 / s) has x / s's bits; numpy runs x / s as a 5x slower complex division
        res_p, res_d = _rel(dx * (1 / tau), dkp, kpt), _rel(dp * (1 / sigma), dkx, kxt)
        if res_p <= tol and res_d <= tol:
            primal = float(np.sum(weights * np.abs(kxt)))
            # duality gap at (xt; pt, u): the l1 term's complementarity
            # plus the constraint's, both >= 0
            slack, feas = con.gap(kpt)
            gap = primal - float(np.vdot(pt, kxt).real) + slack
            if gap <= tol * primal and feas <= con.eps + con.tol_feas:
                converged = True
                break
        if res_p > _BALANCE * res_d:
            tau, sigma, alpha = tau / (1 - alpha), sigma * (1 - alpha), alpha * _DECAY
        elif res_d > _BALANCE * res_p:
            tau, sigma, alpha = tau * (1 - alpha), sigma / (1 - alpha), alpha * _DECAY
    return _Solve(xt, kxt, pt, con.residual(xt), it, converged, history)


# ---------------------------------------------------------------------------
# audit


def lemma_audit(
    A: SensingOperator,
    D: Dictionary,
    f_true: np.ndarray | Signal,
    f_hat: np.ndarray | Signal,
    s: int,
    block_size: int | None = None,
) -> LemmaAudit:
    """Evaluate the cone, tube, and block-tail inequalities for a solve.

    T0 is the support of the s largest |D*f| entries (ties toward lower
    index); the tail blocks partition the complement in decreasing |D*h|.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    M = int(block_size) if block_size is not None else 6 * s
    if M < 1:
        raise ValueError("block_size must be >= 1")
    ft = f_true.samples if isinstance(f_true, Signal) else np.asarray(f_true, complex)
    fh = f_hat.samples if isinstance(f_hat, Signal) else np.asarray(f_hat, complex)
    h = ft - fh
    ch = D.adjoint(h)
    cf = D.adjoint(ft)

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
    return LemmaAudit(s, M, cone_slack, tube_norm, lhs, rhs, ratio, eta)


def _report(method, A, D, d, eps, f_hat, res, reference, audit_s) -> RecoveryReport:
    """The report of one solve, objective ||K x||_1 unweighted; given a
    reference signal, with the lemma audit against D at s = audit_s."""
    diagnostics = None
    if reference is not None:
        s = audit_s if audit_s is not None else max(1, A.m // 4)
        diagnostics = lemma_audit(A, D, reference, f_hat.samples, s)
    return RecoveryReport(
        method, A.n, d, A.m, float(eps), f_hat, float(np.sum(np.abs(res.kx))),
        res.feasibility, res.iterations, res.converged, diagnostics, res.history,
    )


# ---------------------------------------------------------------------------
# the four programs


def _check_inputs(A, y, eps, *dicts):
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
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
    reweighted_l1_analysis describes; reports the unweighted ||D* fhat||_1.
    ||D|| and the projector are built once and serve every round.  Real
    data run a real primal first (module docstring), and every round again
    in complex arithmetic if D p leaves the reals."""
    cfg = cfg or SolverConfig()
    y = _check_inputs(A, y, eps, D)
    s = s if s is not None else max(1, A.m // 4)
    con = _Constraint(A, y, eps, cfg)
    norm_d = _op_norm(D)
    res = None
    if _real_data(A, y):
        try:
            res = _rounds(D, norm_d, con.real(), cfg, rounds, s, float)
        except _ComplexAdjoint:
            pass
    if res is None:
        res = _rounds(D, norm_d, con, cfg, rounds, s, complex)
    label = "l1_analysis" if method == "analysis" else "reweighted_l1_analysis"
    return _report(
        method, A, D, D.d, eps, Signal(res.x, label=label), res, reference, audit_s
    )


def _rounds(D, norm_d, con, cfg, rounds, s, dtype) -> _Solve:
    """The reweighting rounds with a primal of `dtype`.  Rounds before the
    last only set weights, so, as NESTA's continuation (Becker, Bobin and
    Candes 2011), they stop at _ROUND_TOL * tol_rel.  The result is the
    last round's, converged only when every round met its tolerance."""
    K_adj = D.apply if dtype is complex else _real_part(D.apply)
    w = np.ones(D.d)
    loose = replace(cfg, tol_rel=_ROUND_TOL * cfg.tol_rel)
    res, converged = None, True
    for r in range(rounds):
        if r:
            w, _ = reweight_weights(np.abs(res.kx), s)
        res = _pdhg(
            D.n, D.adjoint, K_adj, norm_d, w, con,
            cfg if r == rounds - 1 else loose,
            x0=None if res is None else res.x,
            # re-entering with new weights: shrink dual coordinates that now
            # exceed their box so the warm start stays dual-feasible
            p0=None if res is None else _clip_modulus(res.p, w),
            dtype=dtype,
        )
        converged = converged and res.converged
    return res._replace(converged=converged)


def l1_analysis(
    A: SensingOperator,
    D: Dictionary,
    y: np.ndarray,
    eps: float,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | Signal | None = None,
    audit_s: int | None = None,
) -> RecoveryReport:
    """min ||D* f||_1  s.t.  ||A f - y||_2 <= eps: reweighted_l1_analysis
    with rw_iters=1, one round at tol_rel.

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

    Round 1 uses uniform weights; each later round reweights by the
    previous solution's analysis coefficients (see reweight_weights; s
    defaults to m // 4) and warm-starts from the previous primal/dual
    state.  Rounds before the last stop at 10 cfg.tol_rel; the last, whose
    iterations the report carries, at cfg.tol_rel.  The report is
    converged only when every round met its own tolerance.  The objective
    reported is the unweighted ||D* fhat||_1.
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

    AD = LinearOperator(
        D.d, A.m, lambda v: A.apply(D.apply(v)), lambda q: D.adjoint(A.adjoint(q))
    )
    con = _Constraint(AD, y, eps, cfg)
    res = _pdhg(D.d, _same, _same, 1.0, 1.0, con, cfg)
    f_hat = Signal(D.apply(res.x), label="l1_synthesis")
    report = _report("synthesis", A, D, D.d, eps, f_hat, res, reference, audit_s)
    return report, res.x


def _range_projector(D: Dictionary) -> Callable[[np.ndarray], np.ndarray]:
    """Orthogonal projection onto range(D), the identity when D spans C^n.

    Rank-deficient components would otherwise make split-analysis
    degenerate (content in the null space of D* is free).  Falls back to
    assuming full rank when the dictionary is too large to materialize.
    """
    if D.tight:
        return _same
    if D.n * D.d > MATERIALIZATION_CAP:
        lo, _ = frame_bounds(D)
        if lo <= 1e-10:
            raise ValueError("rank-deficient dictionary too large to project")
        return _same
    M = D.dense()
    u, sv, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(sv > max(M.shape) * np.finfo(float).eps * sv[0]))
    if rank >= D.n:
        return _same
    basis = u[:, :rank]
    proj = basis @ basis.conj().T
    return lambda v: proj @ v


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
    n, d1 = A.n, D1.d
    P1, P2 = _range_projector(D1), _range_projector(D2)

    def parts(z):  # (f1, f2), each in the range of its dictionary
        return P1(z[:n]), P2(z[n:])

    def adjoint(q):
        v = A.adjoint(q)
        return np.concatenate([P1(v), P2(v)])

    AP = LinearOperator(2 * n, A.m, lambda z: A.apply(sum(parts(z))), adjoint)
    con = _Constraint(AP, y, eps, cfg)
    res = _pdhg(
        2 * n,
        lambda z: np.concatenate([D1.adjoint(z[:n]), D2.adjoint(z[n:])]),
        lambda p: np.concatenate([D1.apply(p[:d1]), D2.apply(p[d1:])]),
        max(_op_norm(D1), _op_norm(D2)),
        1.0, con, cfg,
    )
    f1, f2 = parts(res.x)
    f_hat = Signal(f1 + f2, label="split_analysis")
    report = _report("split", A, D1, D1.d + D2.d, eps, f_hat, res, reference, audit_s)
    f1 = Signal(f1, label="split_analysis_f1")
    f2 = Signal(f2, label="split_analysis_f2")
    return report, f1, f2
