"""Branch tracing through the fold: minimal-branch continuation, pseudo-
arclength rounding of the turning point, multiplicity extraction, asymptotic
bifurcation probing, and the small-parameter uniqueness probe.

The minimal branch is advanced in lam with warm-started minimal solves; the
extremal parameter is bracketed by bisection on solve success.  The fold is
rounded by pseudo-arclength continuation on the pair (u, lam): the corrector
is Newton on the bordered system whose last row is the tangent normalization,
with the u-component weighted by 1/||u_fold||_inf so both components
contribute comparably to arclength near the fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .blas import single_pool
from .errors import ConvergenceError, SupersolutionNotFound
from .linearization import fredholm_monitor, lambda1, linearized_operator
from .operator import NonlocalOperator, principal_eigenpair
from .problem import ProblemSpec
from .singular import DEFAULT_TOL, SolutionField, _lu_step, _newton_full, solve_min

__all__ = [
    "BranchPoint",
    "Branch",
    "FoldInfo",
    "TracePolicy",
    "FoldPolicy",
    "ProbeResult",
    "UniquenessReport",
    "trace_minimal",
    "fold_round",
    "multiplicity_scan",
    "asymptotic_bifurcation_probe",
    "uniqueness_probe",
    "small_solution_cap",
]


@dataclass(eq=False)
class BranchPoint:
    lam: float
    solution: SolutionField
    sup_norm: float
    lambda1: float
    monitor: float | None
    arclength: float
    segment: str = "minimal"


@dataclass(eq=False)
class FoldInfo:
    lambda_estimate: float
    bracket: tuple[float, float]
    quadratic_coeff: float
    u_at_fold: SolutionField
    lambda_prime: float
    fit_residual: float


@dataclass(eq=False)
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    fold: FoldInfo | None = None
    lambda_estimate: float | None = None
    bracket: tuple[float, float] | None = None
    metric_weight: float | None = None

    def minimal_points(self) -> list[BranchPoint]:
        return [p for p in self.points if p.segment == "minimal"]

    def upper_points(self) -> list[BranchPoint]:
        return [p for p in self.points if p.segment == "upper"]


@dataclass(frozen=True)
class TracePolicy:
    lambda_init: float | None = None
    growth: float = 2.0
    max_points: int = 48
    lambda1_threshold: float = 0.0
    bracket_rtol: float = 1e-3
    min_step_fraction: float = 1e-6
    compute_monitor: bool = True
    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class FoldPolicy:
    ds: float = 0.02
    ds_min: float = 1e-8
    ds_max: float = 0.25
    growth: float = 1.4
    shrink_zone: float = 0.35
    ds_fold: float = 2.5e-3
    max_corrector: int = 14
    steps: int = 60
    tol: float = DEFAULT_TOL
    compute_monitor: bool = True
    fit_halfwidth: int = 6


def _metric_weight(op: NonlocalOperator, u_scale: float) -> float:
    return 1.0 / (np.sqrt(op.n) * max(u_scale, 1e-30))


def _make_point(lam, fld, op, spec, compute_monitor, tol, segment="minimal") -> BranchPoint:
    lin = linearized_operator(lam, fld, op, spec)
    lam1 = lambda1(lam, fld, op, spec, tol=max(tol, 1e-10), lin=lin).value
    mon = fredholm_monitor(lam, fld, op, spec, lin=lin) if compute_monitor else None
    return BranchPoint(
        lam=lam,
        solution=fld,
        sup_norm=fld.sup_norm,
        lambda1=lam1,
        monitor=mon,
        arclength=0.0,
        segment=segment,
    )


def _assign_arclength(points: list[BranchPoint], w: float) -> None:
    total = 0.0
    for i, p in enumerate(points):
        if i > 0:
            q = points[i - 1]
            du = p.solution.values - q.solution.values
            total += float(np.sqrt(w ** 2 * (du @ du) + (p.lam - q.lam) ** 2))
        p.arclength = total


@single_pool
def trace_minimal(spec: ProblemSpec, op: NonlocalOperator, policy: TracePolicy = TracePolicy()) -> Branch:
    """Trace the minimal branch to the fold and bracket the extremal parameter.

    lam grows geometrically with warm starts until the first failed solve,
    then the bracket is refined by bisection (each successful probe is kept as
    a branch sample) down to the policy's relative width.  Success of the
    warm-started solve is the bracketing predicate, so the estimate converges
    to the fold of the discrete problem.
    """
    lam1s = principal_eigenpair(op).value
    lam = policy.lambda_init if policy.lambda_init is not None else 0.02 * lam1s
    points: list[BranchPoint] = []
    prev: SolutionField | None = None

    for _ in range(80):
        try:
            fld = solve_min(lam, spec, op, tol=policy.tol, sub_hint=prev, newton_fallback=True)
            break
        except (SupersolutionNotFound, ConvergenceError):
            lam *= 0.5
            if lam < 1e-12 * lam1s:
                raise SupersolutionNotFound("no starting point found on the minimal branch")
    points.append(_make_point(lam, fld, op, spec, policy.compute_monitor, policy.tol))
    prev = fld

    lam_ok, lam_fail = lam, None
    while lam_fail is None and len(points) < policy.max_points:
        trial = lam_ok * policy.growth
        try:
            fld = solve_min(trial, spec, op, tol=policy.tol, sub_hint=prev, newton_fallback=True)
        except (SupersolutionNotFound, ConvergenceError):
            lam_fail = trial
            break
        points.append(_make_point(trial, fld, op, spec, policy.compute_monitor, policy.tol))
        prev = fld
        lam_ok = trial
        if points[-1].lambda1 < policy.lambda1_threshold:
            lam_fail = trial * (1.0 + policy.bracket_rtol)
            break
    if lam_fail is None:
        raise ConvergenceError("minimal branch did not terminate within the point budget")

    while (lam_fail - lam_ok) > policy.bracket_rtol * lam_fail and len(points) < policy.max_points + 32:
        step = 0.5 * (lam_fail - lam_ok)
        if step < policy.min_step_fraction * lam_fail:
            break
        trial = lam_ok + step
        try:
            fld = solve_min(trial, spec, op, tol=policy.tol, sub_hint=prev, newton_fallback=True)
        except (SupersolutionNotFound, ConvergenceError):
            lam_fail = trial
            continue
        points.append(_make_point(trial, fld, op, spec, policy.compute_monitor, policy.tol))
        prev = fld
        lam_ok = trial
        if points[-1].lambda1 < policy.lambda1_threshold:
            break

    points.sort(key=lambda p: p.lam)
    w = _metric_weight(op, points[-1].sup_norm)
    _assign_arclength(points, w)
    return Branch(
        points=points,
        lambda_estimate=0.5 * (lam_ok + lam_fail),
        bracket=(lam_ok, lam_fail),
        metric_weight=w,
    )


def _equation_residual(op, spec, lam, u):
    k = spec.k_field(op.grid)
    return op.matrix @ u - lam * (k * u ** (-spec.delta) + spec.nonlinearity.f(u))


def _bordered_newton(op, spec, z0, tangent, ds, anchor, w, tol, max_iter):
    """Corrector for the pseudo-arclength step; z = (u, lam)."""
    n = op.n
    k = spec.k_field(op.grid)
    nl = spec.nonlinearity
    u = z0[0].copy()
    lam = z0[1]
    udot, lamdot = tangent
    u0, lam0 = anchor
    for _ in range(max_iter):
        g = _equation_residual(op, spec, lam, u)
        nval = w ** 2 * (udot @ (u - u0)) + lamdot * (lam - lam0) - ds
        scale = 1.0 + lam * np.abs(k * u ** (-spec.delta) + nl.f(u)).max()
        if np.abs(g).max() <= tol * scale and abs(nval) <= tol * (1.0 + ds):
            return u, lam, float(np.abs(g).max())
        jac = np.empty((n + 1, n + 1))
        jac[:n, :n] = op.matrix + np.diag(
            lam * spec.delta * k * u ** (-spec.delta - 1.0) - lam * nl.fprime(u)
        )
        jac[:n, n] = -(k * u ** (-spec.delta) + nl.f(u))
        jac[n, :n] = w ** 2 * udot
        jac[n, n] = lamdot
        step = _lu_step(jac, np.concatenate([-g, [-nval]]))
        if step is None:
            return None
        t = 1.0
        base = np.abs(g).max() + abs(nval)
        while t >= 2.0 ** -30:
            u_t = u + t * step[:n]
            lam_t = lam + t * step[n]
            if u_t.min() > 0.0 and lam_t > 0.0:
                g_t = _equation_residual(op, spec, lam_t, u_t)
                n_t = w ** 2 * (udot @ (u_t - u0)) + lamdot * (lam_t - lam0) - ds
                if np.abs(g_t).max() + abs(n_t) < base:
                    u, lam = u_t, lam_t
                    break
            t *= 0.5
        else:
            return None
    return None


class _ArcStepper:
    """Reusable pseudo-arclength stepper state for fold rounding and probes."""

    def __init__(self, op, spec, w, policy: FoldPolicy, refine_fold: bool = False):
        self.op = op
        self.spec = spec
        self.w = w
        self.policy = policy
        self.ds = policy.ds
        self.refine_fold = refine_fold

    def tangent_from(self, zprev, zcurr, prev_tangent=None):
        du = zcurr[0] - zprev[0]
        dlam = zcurr[1] - zprev[1]
        norm = np.sqrt(self.w ** 2 * (du @ du) + dlam ** 2)
        udot, lamdot = du / norm, dlam / norm
        if prev_tangent is not None:
            orient = self.w ** 2 * (prev_tangent[0] @ udot) + prev_tangent[1] * lamdot
            if orient < 0.0:
                udot, lamdot = -udot, -lamdot
        return udot, lamdot

    def advance(self, z, tangent):
        """One adaptive predictor-corrector step; returns (z_new, residual)."""
        policy = self.policy
        ds = self.ds
        if self.refine_fold and abs(tangent[1]) < policy.shrink_zone:
            ds = min(ds, policy.ds_fold)
        while ds >= policy.ds_min:
            pred = (np.maximum(z[0] + ds * tangent[0], 1e-14), z[1] + ds * tangent[1])
            out = _bordered_newton(
                self.op, self.spec, pred, tangent, ds, z, self.w, policy.tol, policy.max_corrector
            )
            if out is not None:
                u, lam, res = out
                self.ds = min(ds * policy.growth, policy.ds_max)
                return (u, lam), res
            ds *= 0.5
        raise ConvergenceError("pseudo-arclength corrector failed below the minimum step")


@single_pool
def fold_round(
    branch: Branch,
    op: NonlocalOperator,
    spec: ProblemSpec,
    policy: FoldPolicy = FoldPolicy(),
) -> Branch:
    """Round the fold by pseudo-arclength and append upper-segment points.

    Continues from the end of the minimal segment, detects the turning point
    as the sign change of dlam/ds, fits lam(arclength) by a quadratic around
    the sample of maximal lam, and stores the fold data (apex slope after
    normalization by the lam scale, curvature, solution at the fold).
    """
    minimal = branch.minimal_points()
    if len(minimal) < 2:
        raise ValueError("fold rounding needs at least two minimal-branch points")
    lam_est = branch.lambda_estimate if branch.lambda_estimate is not None else minimal[-1].lam
    w = _metric_weight(op, minimal[-1].sup_norm)
    stepper = _ArcStepper(op, spec, w, policy, refine_fold=True)

    zprev = (minimal[-2].solution.values, minimal[-2].lam)
    z = (minimal[-1].solution.values, minimal[-1].lam)
    tangent = stepper.tangent_from(zprev, z, None)

    arc = [(minimal[-1].arclength, z)]
    new_points: list[BranchPoint] = []
    passed_fold = False
    sigma = minimal[-1].arclength
    for _ in range(policy.steps):
        z_new, res = stepper.advance(z, tangent)
        tangent = stepper.tangent_from(z, z_new, tangent)
        du = z_new[0] - z[0]
        sigma += float(np.sqrt(w ** 2 * (du @ du) + (z_new[1] - z[1]) ** 2))
        fld = SolutionField(
            values=z_new[0],
            grid=op.grid,
            spec=spec.with_lambda(z_new[1]),
            residual=res,
            residual_bound=policy.tol * (1.0 + z_new[1]),
        )
        seg = "upper" if (passed_fold or tangent[1] < 0.0) else "minimal"
        if tangent[1] < 0.0:
            passed_fold = True
        point = _make_point(z_new[1], fld, op, spec, policy.compute_monitor, policy.tol, segment=seg)
        point.arclength = sigma
        new_points.append(point)
        arc.append((sigma, z_new))
        z = z_new
        if passed_fold and stepper.refine_fold:
            behind = sum(1 for q in new_points if q.segment == "upper")
            if behind >= policy.fit_halfwidth:
                stepper.refine_fold = False
        if passed_fold and len(new_points) >= 8 and z_new[1] < 0.85 * lam_est:
            break

    if not passed_fold:
        raise ConvergenceError("continuation did not pass the fold within the step budget")

    combined = minimal + new_points
    apex = max(combined, key=lambda p: p.lam)
    idx = combined.index(apex)
    lo = max(0, idx - policy.fit_halfwidth)
    hi = min(len(combined), idx + policy.fit_halfwidth + 1)
    window = combined[lo:hi]
    sig = np.array([p.arclength for p in window]) - apex.arclength
    lams = np.array([p.lam for p in window])
    coeffs = np.polyfit(sig, lams, 2)
    fit_residual = float(np.abs(np.polyval(coeffs, sig) - lams).max())
    apex.segment = "fold"
    fold = FoldInfo(
        lambda_estimate=lam_est,
        bracket=branch.bracket if branch.bracket is not None else (minimal[-1].lam, apex.lam),
        quadratic_coeff=2.0 * float(coeffs[0]),
        u_at_fold=apex.solution,
        lambda_prime=float(coeffs[1]) / lam_est,
        fit_residual=fit_residual,
    )
    return Branch(
        points=combined,
        fold=fold,
        lambda_estimate=branch.lambda_estimate,
        bracket=branch.bracket,
        metric_weight=w,
    )


def _extend_upper(branch: Branch, op, spec, policy: FoldPolicy, stop) -> Branch:
    """Continue the upper segment until stop(point) or the step budget ends.

    The points go to a new Branch; the one passed in is left as it was.
    """
    branch = replace(branch, points=list(branch.points))
    upper = branch.upper_points()
    if len(upper) < 2:
        raise ValueError("branch has no rounded upper segment to extend")
    w = _metric_weight(op, branch.fold.u_at_fold.sup_norm if branch.fold else upper[-1].sup_norm)
    stepper = _ArcStepper(op, spec, w, policy)
    zprev = (upper[-2].solution.values, upper[-2].lam)
    z = (upper[-1].solution.values, upper[-1].lam)
    tangent = stepper.tangent_from(zprev, z, None)
    sigma = upper[-1].arclength
    for _ in range(policy.steps):
        if stop(branch.points[-1]):
            break
        try:
            z_new, res = stepper.advance(z, tangent)
        except ConvergenceError:
            break
        tangent = stepper.tangent_from(z, z_new, tangent)
        du = z_new[0] - z[0]
        sigma += float(np.sqrt(w ** 2 * (du @ du) + (z_new[1] - z[1]) ** 2))
        fld = SolutionField(
            values=z_new[0],
            grid=op.grid,
            spec=spec.with_lambda(z_new[1]),
            residual=res,
            residual_bound=policy.tol * (1.0 + z_new[1]),
        )
        point = _make_point(z_new[1], fld, op, spec, policy.compute_monitor, policy.tol, segment="upper")
        point.arclength = sigma
        branch.points.append(point)
        z = z_new
        if z_new[1] <= 1e-8:
            break
    return branch


@single_pool
def multiplicity_scan(
    spec: ProblemSpec,
    op: NonlocalOperator,
    lam_list,
    tol: float = DEFAULT_TOL,
    branch: Branch | None = None,
    fold_policy: FoldPolicy | None = None,
) -> list[dict]:
    """Minimal and second solutions at each requested lam below the fold.

    The second solution is pulled off the fold-rounded upper segment: the two
    upper samples straddling the target lam seed a fixed-lam Newton solve.
    Requires the superlinear power case with beta = 0 (the regime with the
    uniform bound that pins the asymptotic bifurcation at zero).
    """
    if spec.nonlinearity.kind != "power":
        raise ValueError("multiplicity scan requires a power nonlinearity")
    if spec.beta != 0.0:
        raise ValueError("multiplicity scan requires beta = 0")
    spec.require_subcritical()
    if branch is None or branch.fold is None:
        policy = fold_policy or FoldPolicy(steps=400, compute_monitor=False)
        branch = branch or trace_minimal(spec, op, TracePolicy(tol=tol, compute_monitor=False))
        if branch.fold is None:
            branch = fold_round(branch, op, spec, policy)
    lam_targets = sorted(lam_list, reverse=True)
    need = min(lam_targets)
    policy = fold_policy or FoldPolicy(steps=600, compute_monitor=False)
    branch = _extend_upper(branch, op, spec, policy, stop=lambda p: p.lam < need)

    upper = branch.upper_points()
    rows = []
    for lam_t in lam_targets:
        below = [p for p in branch.minimal_points() if p.lam <= lam_t]
        hint = max(below, key=lambda p: p.lam).solution if below else None
        minimal = solve_min(lam_t, spec, op, tol=tol, sub_hint=hint, newton_fallback=True)
        second = None
        for a, b in zip(upper, upper[1:]):
            if (a.lam - lam_t) * (b.lam - lam_t) <= 0.0:
                frac = 0.5 if a.lam == b.lam else (lam_t - a.lam) / (b.lam - a.lam)
                seed = (1.0 - frac) * a.solution.values + frac * b.solution.values
                try:
                    vals, res, bound = _newton_full(op, spec, lam_t, seed, tol)
                except ConvergenceError:
                    continue
                second = SolutionField(vals, op.grid, spec.with_lambda(lam_t), res, bound)
                break
        gap = float(np.abs(second.values - minimal.values).max()) if second is not None else None
        rows.append(
            {
                "lam": lam_t,
                "minimal": minimal,
                "second": second,
                "gap": gap,
                "complete": second is not None,
            }
        )
    return rows


@dataclass(eq=False)
class ProbeResult:
    lambda_a: float
    table: np.ndarray
    branch: Branch


@single_pool
def asymptotic_bifurcation_probe(
    branch: Branch,
    op: NonlocalOperator,
    spec: ProblemSpec,
    growth_cap: float = 1e3,
    steps: int = 2000,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Follow the upper segment toward lam -> 0 and tabulate (lam, sup_norm).

    Stops when the sup norm exceeds growth_cap times the fold amplitude or the
    step budget is exhausted; the lam infimum of the traversed segment is the
    asymptotic-bifurcation estimate (it keeps decreasing under larger budgets
    when the blow-up parameter is zero).
    """
    if branch.fold is None:
        raise ValueError("probe requires a fold-rounded branch")
    fold_sup = branch.fold.u_at_fold.sup_norm
    policy = FoldPolicy(ds=0.2, ds_max=2.0, steps=steps, compute_monitor=False, tol=tol)
    branch = _extend_upper(
        branch, op, spec, policy, stop=lambda p: p.sup_norm >= growth_cap * fold_sup
    )
    upper = branch.upper_points()
    table = np.array([[p.lam, p.sup_norm] for p in upper])
    lambda_a = float(min(p.lam for p in upper))
    return ProbeResult(lambda_a=lambda_a, table=table, branch=branch)


def small_solution_cap(spec: ProblemSpec, op: NonlocalOperator) -> float:
    """Largest amplitude with t -> K t^-delta + f(t) decreasing on (0, cap]."""
    nl = spec.nonlinearity
    kmin = float(spec.k_field(op.grid).min())
    if nl.is_none:
        return np.inf
    if nl.kind == "power":
        return (spec.delta * kmin / (nl.c * nl.p)) ** (1.0 / (nl.p + spec.delta))
    ts = np.geomspace(1e-8, 1e8, 2049)
    good = spec.delta * kmin * ts ** (-spec.delta - 1.0) >= nl.fprime(ts)
    if not good[0]:
        return 0.0
    idx = np.argmin(good) if not good.all() else len(ts) - 1
    return float(ts[max(idx - 1, 0)])


@dataclass(eq=False)
class UniquenessReport:
    verdict: str
    cap: float
    trials: list[dict]


@single_pool
def uniqueness_probe(
    lam: float,
    spec: ProblemSpec,
    op: NonlocalOperator,
    trials: int = 10,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> UniquenessReport:
    """Multistart Newton below the decreasing-nonlinearity amplitude cap.

    Every start either fails to converge inside the admissible set or lands on
    the minimal solution; a distinct converged solution below the cap means
    FALSIFIED (given the comparison principle this signals an implementation
    bug, not new mathematics).
    """
    cap = small_solution_cap(spec, op)
    if not np.isfinite(cap):
        cap = 1.0
    minimal = solve_min(lam, spec, op, tol=tol, newton_fallback=True)
    if minimal.sup_norm >= cap:
        raise ValueError(
            f"lam = {lam} is not in the small-parameter window: "
            f"minimal amplitude {minimal.sup_norm:.3e} >= cap {cap:.3e}"
        )
    rng = np.random.default_rng(seed)
    records = []
    verdict = "unique"
    for t in range(trials):
        start = cap * rng.uniform(0.02, 1.0, size=op.n)
        try:
            vals, res, _ = _newton_full(op, spec, lam, start, tol)
        except ConvergenceError:
            records.append({"trial": t, "outcome": "diverged"})
            continue
        dist = float(np.abs(vals - minimal.values).max())
        if dist <= 10.0 * tol * max(1.0, minimal.sup_norm):
            records.append({"trial": t, "outcome": "minimal", "distance": dist})
        elif np.abs(vals).max() > cap:
            records.append({"trial": t, "outcome": "left_admissible_set", "sup": float(np.abs(vals).max())})
        else:
            records.append({"trial": t, "outcome": "distinct", "distance": dist})
            verdict = "falsified"
    return UniquenessReport(verdict=verdict, cap=cap, trials=records)
