"""Branch tracing through the fold: minimal-branch continuation, the fold as a
regular solution, pseudo-arclength rounding of the turning point,
multiplicity extraction, asymptotic bifurcation probing, and the
small-parameter uniqueness probe.

The minimal branch is advanced in lam with warm-started minimal solves until
the first one fails; the fold is then solved for as the regular solution of
the Moore-Spence system, and its lam is the extremal parameter.  From the
fold, one pseudo-arclength stepping loop on the pair (u, lam),
`_arclength_points`, walks back down the minimal segment, out along the upper
one, and extends the upper segment.  Its corrector is the damped-Newton core
of `singular` on the problem's `Equation`, bordered by the tangent
normalization and solved by LU, with the u-component weighted by
1/||u_fold||_inf so both components contribute comparably to arclength near
the fold.  One run keeps one bordered LU for all its correctors, reused by
the chord rule of `damped_newton` (a step solves with it while the merit
keeps falling fast enough, and factors afresh otherwise), so most points
cost no factorization.  The fold solve and the fixed-lam LU solves (second
solutions, multistarts) run the same rule within each solve.  Every point
meets the same residual bound as with a fresh factor at every step.

The branch is even under the reflection of the nodes: so are the minimal
solutions, the principal eigenvector at the fold, and every tangent and
bordering row built from them.  The bordered LU of the corrector and of the
fold solve, which the equation builds (`singular.Equation.bordered_solver`)
from the row and corner given here, is then of order ceil(n/2) + 1, and the
second solutions of `multiplicity_scan` factor J_e.  Only the random starts
of `uniqueness_probe` factor the n x n Jacobian.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .linearization import fredholm_monitor, lambda1, linearized_operator
from .operator import EigenPair, NonlocalOperator, lu_solver, principal_eigenpair
from .problem import ProblemSpec
from .singular import DEFAULT_TOL, Equation, SolutionField, damped_newton, solve_min

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
    """A solution (lam, u) of the branch, located by arclength and segment.

    `lambda1` (principal eigenvalue of the linearization), its `eigenvector`
    and `monitor` (the Fredholm monitor) are computed together on the first
    read of any, from one linearized operator and its shared factors: J_e's
    one factor serves lambda1 and the monitor's even block, and J_o is built
    and factored only where the monitor's odd floor cannot rule it out (the
    last points of the upper segment on the default branch).  The point
    keeps the eigenpair and the monitor, not the matrices or their factors.
    A failure there surfaces only to a caller that reads them; an exactly
    singular J_o reads as a monitor of 0.0, beside lambda1.
    """

    lam: float
    solution: SolutionField
    op: NonlocalOperator
    tol: float
    arclength: float = 0.0
    segment: str = "minimal"

    @property
    def sup_norm(self) -> float:
        return self.solution.sup_norm

    @cached_property
    def _stability(self) -> tuple[EigenPair, float]:
        lam, u, op, spec = self.lam, self.solution, self.op, self.solution.spec
        lin = linearized_operator(lam, u, op, spec)
        pair = lambda1(lam, u, op, spec, tol=max(self.tol, 1e-10), lin=lin)
        return pair, fredholm_monitor(lam, u, op, spec, lin=lin)

    @property
    def lambda1(self) -> float:
        return self._stability[0].value

    @property
    def eigenvector(self) -> np.ndarray:
        """Principal eigenvector of the linearization, sup-normalized, positive at its largest entry."""
        return self._stability[0].vector

    @property
    def monitor(self) -> float:
        return self._stability[1]


@dataclass(eq=False)
class FoldInfo:
    """The quadratic fit of lam(arclength) over the fold window; the fold itself is Branch.fold_point()."""

    quadratic_coeff: float
    lambda_prime: float
    fit_residual: float


@dataclass(eq=False)
class Branch:
    """Traced points, with the fold's quadratic fit once rounded; fold_point() holds Lambda and u there."""

    points: list[BranchPoint] = field(default_factory=list)
    fold: FoldInfo | None = None

    def minimal_points(self) -> list[BranchPoint]:
        return [p for p in self.points if p.segment == "minimal"]

    def fold_point(self) -> BranchPoint:
        (point,) = [p for p in self.points if p.segment == "fold"]  # ValueError unless exactly one
        return point

    def upper_points(self) -> list[BranchPoint]:
        return [p for p in self.points if p.segment == "upper"]


# Minimal-branch tracing multiplies lam by this factor until a solve fails.
# A fold solve that fails is started again from a point between the last
# solved and the first failed lam, at most FOLD_STARTS - 1 times.
LAMBDA_GROWTH = 2.0
FOLD_STARTS = 4

# Pseudo-arclength step control: a failed corrector halves ds down to DS_MIN;
# a success grows it by DS_GROWTH up to the policy's ds_max.  Fold rounding
# takes FIT_HALFWIDTH steps of DS_FOLD on either side of the fold (the window
# of the quadratic fit) before the upper segment continues at the policy's ds.
DS_MIN = 1e-8
DS_GROWTH = 1.4
DS_FOLD = 2.5e-3
FIT_HALFWIDTH = 6
MAX_CORRECTOR = 14  # Newton steps of one corrector


@dataclass(frozen=True)
class TracePolicy:
    lambda_init: float | None = None
    max_points: int = 48
    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class FoldPolicy:
    ds: float = 0.02
    ds_max: float = 0.25
    steps: int = 60
    tol: float = DEFAULT_TOL


def _arclength_weight(op: NonlocalOperator, u_scale: float) -> float:
    return 1.0 / (np.sqrt(op.n) * max(u_scale, 1e-30))


def _arclength(w: float, du: np.ndarray, dlam: float) -> float:
    """Weighted length sqrt(w^2 |du|^2 + dlam^2) of a step (du, dlam) in (u, lam)."""
    return float(np.sqrt(w ** 2 * (du @ du) + dlam ** 2))


def _assign_arclength(points: list[BranchPoint], w: float) -> None:
    total = 0.0
    for i, p in enumerate(points):
        if i > 0:
            q = points[i - 1]
            total += _arclength(w, p.solution.values - q.solution.values, p.lam - q.lam)
        p.arclength = total


def _positive_trial(n: int):
    """damped_newton's trial map for z = (u, ..., lam): the damped step, or None unless u > 0 and lam > 0."""

    def trial(z, t, dz):
        zt = z + t * dz
        return zt if zt[:n].min() > 0.0 and zt[-1] > 0.0 else None

    return trial


def trace_minimal(spec: ProblemSpec, op: NonlocalOperator, policy: TracePolicy = TracePolicy()) -> Branch:
    """Trace the minimal branch to the fold and solve for the fold point.

    lam grows geometrically with warm-started minimal solves until the first
    one fails.  That failure only ends the growth: it proves nothing about
    existence.  The fold is then solved for from the last point by
    `_fold_point` and appended as the branch's one "fold" point; its lam is
    the extremal parameter.  When that solve fails, a point closer to the
    fold (`_closer_point`) is added and the fold solved for from there; the
    last failure raises ConvergenceError.
    """
    lam1s = principal_eigenpair(op).value
    lam = policy.lambda_init if policy.lambda_init is not None else 0.02 * lam1s
    for _ in range(80):
        try:
            fld = solve_min(lam, spec, op, tol=policy.tol)
            break
        except ConvergenceError:
            lam *= 0.5
            if lam < 1e-12 * lam1s:
                raise ConvergenceError("no starting point found on the minimal branch")
    points = [BranchPoint(lam, fld, op, policy.tol)]

    while len(points) < policy.max_points:
        lam *= LAMBDA_GROWTH
        try:
            fld = solve_min(lam, spec, op, tol=policy.tol, sub_hint=points[-1].solution)
        except ConvergenceError:
            break
        points.append(BranchPoint(lam, fld, op, policy.tol))
    else:
        raise ConvergenceError("minimal branch did not terminate within the point budget")

    above = lam  # the first lam whose minimal solve failed
    for attempt in range(FOLD_STARTS):
        try:
            fold = _fold_point(op, spec, points[-1])
            break
        except ConvergenceError:
            if attempt == FOLD_STARTS - 1:
                raise
        # Moore-Spence Newton can diverge from a start far below the fold (at
        # s = 0.1 from 65 % of it): start again from a point closer to it
        point, above = _closer_point(spec, op, policy, points[-1], above)
        points.append(point)
    points.append(fold)
    _assign_arclength(points, _arclength_weight(op, fold.sup_norm))
    return Branch(points=points)


def _closer_point(spec, op, policy: TracePolicy, below: BranchPoint, above: float) -> tuple[BranchPoint, float]:
    """The minimal point at the geometric mean of below.lam and the failed lam `above`, and the new `above`.

    A failed solve at the mean takes the place of `above`, and the mean is
    taken again, at most FOLD_STARTS times; then ConvergenceError.
    """
    for _ in range(FOLD_STARTS):
        lam = float(np.sqrt(below.lam * above))
        try:
            fld = solve_min(lam, spec, op, tol=policy.tol, sub_hint=below.solution)
        except ConvergenceError:
            above = lam
            continue
        return BranchPoint(lam, fld, op, policy.tol), above
    raise ConvergenceError(f"no minimal solve between lambda = {below.lam!r} and {above!r}")


def _fold_point(op: NonlocalOperator, spec: ProblemSpec, start: BranchPoint) -> BranchPoint:
    """The fold as the regular solution z = (u, phi, lam) of the Moore-Spence system

        G(u, lam) = 0,   G_u(u, lam) phi = 0,   l.phi = 1

    (Moore & Spence, SINUM 17, 1980), by damped Newton from `start` and its
    principal eigenvector phi0, with l = phi0 / |phi0|^2; failure is a
    ConvergenceError.  The Newton system G_u du + G_lam dlam = r1,
    B du + G_u dphi + c dlam = r2, l.dphi = r3 (B = diag(d_potential * phi),
    c = potential/lam * phi) is solved by bordering with one LU of
    M = [[G_u, G_lam], [l, 0]], nonsingular at a simple fold (Govaerts, SIAM
    2000, ch. 3): M (du, dlam) = (r1, t) and M (dphi, xi) = (r2 - B du -
    c dlam, r3) are affine in t, and t makes xi = 0.  The factor handed to
    damped_newton is that bordering closure, with M's LU and the t-columns
    solved once per factorization, so a chord step costs two LU solves.
    """
    n, tol = op.n, start.tol
    eq = Equation.of(op, spec, start.lam)
    phi0 = start.eigenvector
    l = phi0 / (phi0 @ phi0)

    def parts(z):
        return z[:n], z[n:-1], replace(eq, lam=z[-1])

    def residual(z):
        u, phi, at = parts(z)
        return np.concatenate([at.residual(u), op.apply(phi) + at.potential(u) * phi, [l @ phi - 1.0]])

    def bound(z):
        u, phi, at = parts(z)
        phi_scale = 1.0 + np.abs(at.potential(u) * phi).max()
        return np.concatenate([tol * at.scale(u), np.full(n, tol * phi_scale), [tol]])

    def factor(z):
        u, phi, at = parts(z)
        solve = at.bordered_solver(u, l, 0.0)
        if solve is None:
            return None
        b, c = at.d_potential(u) * phi, replace(at, lam=1.0).potential(u) * phi
        x1 = solve(np.append(np.zeros(n), 1.0))
        y1 = solve(np.append(-b * x1[:n] - c * x1[n], 0.0))

        def bordered(v):
            x = solve(np.append(v[:n], 0.0))
            y = solve(np.append(v[n:-1] - b * x[:n] - c * x[n], v[-1]))
            t = -y[n] / y1[n]
            dx, dy = x + t * x1, y + t * y1
            return np.concatenate([dx[:n], dy[:n], dx[n:]])

        return bordered

    z0 = np.concatenate([start.solution.values, phi0, [start.lam]])
    scale, trial = bound(z0), _positive_trial(n)
    try:
        z, r, b = damped_newton(z0, residual, lambda r: np.abs(r / scale).max(), bound, factor, trial, 20, 30)
    except ConvergenceError as exc:
        raise ConvergenceError(f"no fold found from lambda = {start.lam!r}: {exc}", residual=exc.residual) from exc
    lam = float(z[-1])
    fld = SolutionField(z[:n], op.grid, replace(spec, lam=lam), float(np.abs(r[:n]).max()), float(b[:n].max()))
    return BranchPoint(lam, fld, op, tol, segment="fold")


def _corrector(eq: Equation, anchor, tangent, ds, w, tol, store: list | None = None):
    """One pseudo-arclength step of length ds from anchor = (u0, lam0).

    From the predictor anchor + ds * tangent, Newton solves the bordered system

        G(u, lam) = 0,   w^2 udot.(u - u0) + lamdot (lam - lam0) = ds,

    whose Jacobian [[G_u, G_lam], [w^2 udot, lamdot]] is factored by LU; eq
    gives G at any lam.  Returns (u, lam, residual, bound) with |G| <= tol *
    eq.scale(u) at every node at the returned lam, residual the sup of |G|
    and bound the sup of tol * eq.scale(u), or None on failure.
    `store` is damped_newton's: the correctors of one arclength run share
    one bordered LU through it, reused by the chord rule there, fresh-factor
    retry included.
    """
    u0, lam0 = anchor
    udot, lamdot = tangent
    n = len(u0)

    def residual(z):
        u = z[:n]
        return np.append(replace(eq, lam=z[n]).residual(u), w ** 2 * (udot @ (u - u0)) + lamdot * (z[n] - lam0) - ds)

    def bound(z):
        return np.append(tol * replace(eq, lam=z[n]).scale(z[:n]), tol * (1.0 + ds))

    def factor(z):
        return replace(eq, lam=z[n]).bordered_solver(z[:n], w ** 2 * udot, lamdot)

    def merit(r):
        return np.abs(r[:n]).max() + abs(r[n])

    predictor = np.append(np.maximum(u0 + ds * udot, 1e-14), lam0 + ds * lamdot)
    try:
        z, r, b = damped_newton(predictor, residual, merit, bound, factor, _positive_trial(n), MAX_CORRECTOR, 30, store)
    except ConvergenceError:
        return None
    return z[:n], z[n], float(np.abs(r[:n]).max()), float(b[:n].max())


class _StepFailure(ConvergenceError):
    """The corrector failed at every step length down to DS_MIN."""


def _tangent(w, zprev, zcurr, prev_tangent=None):
    """Unit secant from zprev to zcurr in the weighted norm, oriented along prev_tangent."""
    du = zcurr[0] - zprev[0]
    dlam = zcurr[1] - zprev[1]
    norm = _arclength(w, du, dlam)
    udot, lamdot = du / norm, dlam / norm
    if prev_tangent is not None:
        orient = w ** 2 * (prev_tangent[0] @ udot) + prev_tangent[1] * lamdot
        if orient < 0.0:
            udot, lamdot = -udot, -lamdot
    return udot, lamdot


def _arclength_points(op, spec, policy: FoldPolicy, w, start: BranchPoint, tangent, segment: str):
    """Pseudo-arclength continuation from `start` along the unit `tangent`.

    Yields one BranchPoint per step, labelled `segment`, at most policy.steps
    of them; the caller decides where to stop.  Arclength runs on from
    start's.  A corrector failing at every step length raises _StepFailure.
    A step computes no lambda1 or monitor: the points compute them when read,
    so only a caller reading them meets their failures.  The correctors share
    one stored bordered LU (see `_corrector`), dropped when the run ends.
    """
    eq = Equation.of(op, spec, 0.0)
    z = (start.solution.values, start.lam)
    ds = policy.ds
    sigma = start.arclength
    store = []
    try:
        for _ in range(policy.steps):
            while ds >= DS_MIN and (out := _corrector(eq, z, tangent, ds, w, policy.tol, store)) is None:
                ds *= 0.5
            if ds < DS_MIN:
                raise _StepFailure("pseudo-arclength corrector failed below the minimum step")
            u, lam, res, bound = out
            ds = min(ds * DS_GROWTH, policy.ds_max)
            tangent = _tangent(w, z, (u, lam), tangent)
            sigma += _arclength(w, u - z[0], lam - z[1])
            fld = SolutionField(values=u, grid=op.grid, spec=replace(spec, lam=lam), residual=res, residual_bound=bound)
            yield BranchPoint(lam, fld, op, policy.tol, sigma, segment)
            z = (u, lam)
    finally:
        store.clear()


def fold_round(
    branch: Branch,
    op: NonlocalOperator,
    spec: ProblemSpec,
    policy: FoldPolicy = FoldPolicy(),
) -> Branch:
    """Round the fold from the traced fold point and append the upper segment.

    At the fold the branch's tangent is (phi, 0), phi the principal
    eigenvector there.  FIT_HALFWIDTH steps of DS_FOLD along -phi walk back
    down the minimal segment, as many along +phi start the upper one, and the
    upper segment then continues under `policy` until lam falls below 0.85
    of the fold's.  lam(arclength) is fitted by a quadratic over these points
    and the fold, as a check independent of the fold solve: the apex slope
    (normalized by the lam scale) and the curvature are stored.
    """
    fold = branch.fold_point()
    w = _arclength_weight(op, fold.sup_norm)
    phi = fold.eigenvector / (w * np.linalg.norm(fold.eigenvector))
    near = FoldPolicy(ds=DS_FOLD, ds_max=DS_FOLD, steps=FIT_HALFWIDTH, tol=policy.tol)
    back = list(_arclength_points(op, spec, near, w, fold, (-phi, 0.0), "minimal"))
    for p in back:
        p.arclength = 2.0 * fold.arclength - p.arclength
    window = [*reversed(back), fold, *_arclength_points(op, spec, near, w, fold, (phi, 0.0), "upper")]

    sig = np.array([p.arclength for p in window]) - fold.arclength
    lams = np.array([p.lam for p in window])
    coeffs = np.polyfit(sig, lams, 2)
    info = FoldInfo(
        quadratic_coeff=2.0 * float(coeffs[0]),
        lambda_prime=float(coeffs[1]) / fold.lam,
        fit_residual=float(np.abs(np.polyval(coeffs, sig) - lams).max()),
    )
    rounded = Branch(branch.minimal_points() + window, info)
    return _extend_upper(rounded, op, spec, policy, stop=lambda p: p.lam < 0.85 * fold.lam)


def _extend_upper(branch: Branch, op, spec, policy: FoldPolicy, stop) -> Branch:
    """Continue the upper segment until stop(point) or the step budget ends.

    The points go to a new Branch; the one passed in is left as it was.  Only
    a corrector failing at every step length ends the extension early; no
    lambda1 or monitor is computed unless stop reads it.
    """
    branch = replace(branch, points=list(branch.points))
    upper = branch.upper_points()
    if len(upper) < 2:
        raise ValueError("branch has no rounded upper segment to extend")
    w = _arclength_weight(op, branch.fold_point().sup_norm)
    if stop(branch.points[-1]):
        return branch
    prev, last = upper[-2:]
    tangent = _tangent(w, (prev.solution.values, prev.lam), (last.solution.values, last.lam))
    with suppress(_StepFailure):
        for point in _arclength_points(op, spec, policy, w, last, tangent, "upper"):
            branch.points.append(point)
            if stop(point) or point.lam <= 1e-8:
                break
    return branch


def multiplicity_scan(
    spec: ProblemSpec,
    op: NonlocalOperator,
    lam_list,
    branch: Branch,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Minimal and second solutions at each requested lam below the fold.

    The second solution is pulled off the upper segment of the fold-rounded
    `branch` (ValueError when it has none): the two upper samples straddling
    the target lam seed a fixed-lam Newton solve.  Requires the superlinear
    power case with beta = 0 (the regime with the uniform bound that pins the
    asymptotic bifurcation at zero).
    """
    if spec.nonlinearity.kind != "power":
        raise ValueError("multiplicity scan requires a power nonlinearity")
    if spec.beta != 0.0:
        raise ValueError("multiplicity scan requires beta = 0")
    spec.require_subcritical()
    lam_targets = sorted(lam_list, reverse=True)
    need = min(lam_targets)
    branch = _extend_upper(branch, op, spec, FoldPolicy(steps=600, tol=tol), stop=lambda p: p.lam < need)

    upper = branch.upper_points()
    rows = []
    for lam_t in lam_targets:
        below = [p for p in branch.minimal_points() if p.lam <= lam_t]
        hint = max(below, key=lambda p: p.lam).solution if below else None
        minimal = solve_min(lam_t, spec, op, tol=tol, sub_hint=hint)
        second = None
        for a, b in zip(upper, upper[1:]):
            if (a.lam - lam_t) * (b.lam - lam_t) <= 0.0:
                frac = 0.5 if a.lam == b.lam else (lam_t - a.lam) / (b.lam - a.lam)
                seed = (1.0 - frac) * a.solution.values + frac * b.solution.values
                try:
                    vals, res, bound = Equation.of(op, spec, lam_t).solve(seed, tol, lu_solver, 60)
                except ConvergenceError:
                    continue
                second = SolutionField(vals, op.grid, replace(spec, lam=lam_t), res, bound)
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
    fold_sup = branch.fold_point().sup_norm
    policy = FoldPolicy(ds=0.2, ds_max=2.0, steps=steps, tol=tol)
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
    trials: list[dict]


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
    minimal = solve_min(lam, spec, op, tol=tol)
    if minimal.sup_norm >= cap:
        raise ValueError(
            f"lam = {lam} is not in the small-parameter window: "
            f"minimal amplitude {minimal.sup_norm:.3e} >= cap {cap:.3e}"
        )
    eq = Equation.of(op, spec, lam)
    rng = np.random.default_rng(seed)
    records = []
    verdict = "unique"
    for t in range(trials):
        start = cap * rng.uniform(0.02, 1.0, size=op.n)
        try:
            vals, _, _ = eq.solve(start, tol, lu_solver, 60)
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
    return UniquenessReport(verdict=verdict, trials=records)
