"""Branch tracing through the fold: minimal-branch continuation, the fold as a
regular solution, pseudo-arclength rounding of the turning point,
multiplicity extraction, asymptotic bifurcation probing, and the
small-parameter uniqueness probe.

The minimal branch is advanced in lam with warm-started minimal solves until
the first one fails; the fold is then solved for as the regular solution of
the Moore-Spence system, and its lam is the extremal parameter.
`trace_minimal` is the one place where a problem enters a branch: every
function downstream reads the operator, the problem and the Newton tolerance
from the branch's points.  From the fold, one pseudo-arclength stepping loop
on the pair (u, lam), `_arclength_points`, walks back down the minimal
segment, out along the upper one, and extends the upper segment.  Its
corrector is the damped-Newton core of `singular` on the problem's `Equation`,
bordered by the tangent normalization and solved by LU, with the u-component
weighted by w = 1/(sqrt(n) ||u||_inf) so both components contribute
comparably to arclength.  Fold rounding, its upper extension and the
multiplicity scan hold w at the fold's amplitude.  The asymptotic probe takes
it at the amplitude of each step's start point (Allgower & Georg, SIAM 2003,
ch. 6), with the predictor tangent rescaled to unit length in the new w: on
the self-similar blow-up of the upper segment its steps then change the
amplitude by a constant factor, and its step count grows with the logarithm
of the growth cap.  A corrected point whose secant leaves the predictor
tangent by too wide an angle is rejected like a failed corrector
(`MIN_COSINE`), so a step that jumps across the solution set is taken shorter.
One run keeps one bordered LU for all its correctors, reused by the chord rule
of `damped_newton` (a step solves with it while the merit keeps falling fast
enough, and factors afresh otherwise), so at the fold's weight most points
cost no factorization; the probe's longer relative steps need about one
fresh factor per point.
The fold solve and the fixed-lam LU solves (second solutions, multistarts) run
the same rule within each solve.  Every point meets the same residual bound as
with a fresh factor at every step.

The branch is even under the reflection of the nodes: so are the minimal
solutions, the principal eigenvector at the fold, and every tangent and
bordering row built from them.  Each Newton run here takes its coordinates
from the equation once, when it starts (`singular.Equation.on`: one choice
per arclength run and per fold solve, not per corrector), and on the even
branch they are the half grid, the first ceil(n/2) node values of each
field (`operator.Basis`).  The correctors and the fold solve evaluate,
factor and step there; the products over all n nodes, the arclength row
w^2 udot.(u - u0), l.phi and the tangents and arclengths between points,
are taken on the mirrored n-node fields (`Equation.field`), so they keep
their bits, and each point's field is mirrored once, when its run ends.
The bordered LU of the corrector and of the fold solve, which the equation
builds (`singular.Equation.bordered_solver`) from the row and corner given
here, is then of order ceil(n/2) + 1, and the second solutions of
`multiplicity_scan` factor J_e.  Only the random starts of
`uniqueness_probe` run on the nodes and factor the n x n Jacobian, by
Cholesky (`operator.spd_solver`): below the amplitude cap the potential is
nonnegative, so J dominates A and is positive definite.  For the same reason
each start's run factors in float32 first (`singular.Equation.precision`);
a float32 run that fails is run again in float64, and a failed float64
Cholesky means the iterate has left the admissible set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .linearization import fredholm_monitor, lambda1, linearized_operator
from .operator import EigenPair, NonlocalOperator, lu_solver, principal_eigenpair, spd_solver
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

    It carries its problem, which every continuation from it reuses: the
    solution's spec (whose lam is the point's), the operator and the tolerance.
    `arclength` sums the weighted lengths of the steps that reached the
    point: in the fold's weight on the minimal and rounded upper segments,
    and on a probe's points that sum plus the relative lengths of the
    probe's steps, each in its start point's weight (`_arclength_points`).
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

    solution: SolutionField
    op: NonlocalOperator
    tol: float
    arclength: float = 0.0
    segment: str = "minimal"

    @property
    def lam(self) -> float:
        return self.solution.spec.lam

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


# Minimal-branch tracing (`trace_minimal`): its first lam and the floor of
# its halving, in units of lambda_1(A), the factor lam grows by until a
# solve fails, and the budget of minimal points.  A fold solve that fails is
# started again from a point between the last solved and the first failed
# lam, at most FOLD_STARTS - 1 times.
LAMBDA_START = 0.02
LAMBDA_FLOOR = 1e-12
LAMBDA_GROWTH = 2.0
MAX_POINTS = 48
FOLD_STARTS = 4

# Pseudo-arclength step control: a failed corrector halves ds down to DS_MIN;
# a success grows it by DS_GROWTH up to the policy's ds_max.  A corrected
# point fails too when its secant's cosine with the predictor tangent, ds/|secant|,
# is below MIN_COSINE (0.999 on the default branch, 0.75 at s = 0.1; 0.33 where
# an f = e^u probe jumps onto the minimal segment).  Fold rounding takes
# FIT_HALFWIDTH steps of DS_FOLD on either side of the fold (the window of the
# quadratic fit) before the upper segment continues at the policy's ds.
DS_MIN = 1e-8
DS_GROWTH = 1.4
DS_FOLD = 2.5e-3
FIT_HALFWIDTH = 6
MAX_CORRECTOR = 14  # Newton steps of one corrector
MIN_COSINE = 0.5
LAM_FLOOR = 1e-8  # an upper extension ends at the first point with lam at or below this


@dataclass(frozen=True)
class TracePolicy:
    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class FoldPolicy:
    ds: float = 0.02
    ds_max: float = 0.25
    steps: int = 60


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

    The first lam is LAMBDA_START * lambda_1(A), halved while its minimal
    solve fails; one below LAMBDA_FLOOR * lambda_1(A) raises
    ConvergenceError.  From there lam grows geometrically with warm-started
    minimal solves until the first one fails, within MAX_POINTS points.
    That failure only ends the growth: it proves nothing about existence.
    The fold is then solved for from the last point by
    `_fold_point` and appended as the branch's one "fold" point; its lam is
    the extremal parameter.  When that solve fails, a point closer to the
    fold (`_closer_point`) is added and the fold solved for from there; the
    last failure raises ConvergenceError.
    """
    lam1s = principal_eigenpair(op).value
    lam = LAMBDA_START * lam1s
    while lam >= LAMBDA_FLOOR * lam1s:
        try:
            fld = solve_min(lam, spec, op, tol=policy.tol)
            break
        except ConvergenceError:
            lam *= 0.5
    else:
        raise ConvergenceError("no starting point found on the minimal branch")
    points = [BranchPoint(fld, op, policy.tol)]

    while len(points) < MAX_POINTS:
        lam *= LAMBDA_GROWTH
        try:
            fld = solve_min(lam, spec, op, tol=policy.tol, sub_hint=points[-1].solution)
        except ConvergenceError:
            break
        points.append(BranchPoint(fld, op, policy.tol))
    else:
        raise ConvergenceError("minimal branch did not terminate within the point budget")

    above = lam  # the first lam whose minimal solve failed
    for attempt in range(FOLD_STARTS):
        try:
            fold = _fold_point(points[-1])
            break
        except ConvergenceError:
            if attempt == FOLD_STARTS - 1:
                raise
        # Moore-Spence Newton can diverge from a start far below the fold (at
        # s = 0.1 from 65 % of it): start again from a point closer to it
        point, above = _closer_point(points[-1], above)
        points.append(point)
    points.append(fold)
    _assign_arclength(points, _arclength_weight(op, fold.sup_norm))
    return Branch(points=points)


def _closer_point(below: BranchPoint, above: float) -> tuple[BranchPoint, float]:
    """The minimal point at the geometric mean of below.lam and the failed lam `above`, and the new `above`.

    A failed solve at the mean takes the place of `above`, and the mean is
    taken again, at most FOLD_STARTS times; then ConvergenceError.
    """
    for _ in range(FOLD_STARTS):
        lam = float(np.sqrt(below.lam * above))
        try:
            fld = solve_min(lam, below.solution.spec, below.op, tol=below.tol, sub_hint=below.solution)
        except ConvergenceError:
            above = lam
            continue
        return BranchPoint(fld, below.op, below.tol), above
    raise ConvergenceError(f"no minimal solve between lambda = {below.lam!r} and {above!r}")


def _fold_point(start: BranchPoint) -> BranchPoint:
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
    Newton runs on u and phi in the coordinates the equation picks from
    (u, phi0, l), the half grid on the even branch, with l.phi taken on the
    mirrored phi.
    """
    op, spec, tol = start.op, start.solution.spec, start.tol
    phi0 = start.eigenvector
    l = phi0 / (phi0 @ phi0)
    eq = Equation.of(op, spec, start.lam).on(start.solution.values, phi0, l)
    z0 = np.concatenate([eq.restrict(start.solution.values), eq.restrict(phi0), [start.lam]])
    k = (len(z0) - 1) // 2

    def evaluate(z):
        u, phi, lam = z[:k], z[k:-1], z[-1]
        g, bound = eq.evaluate(u, tol, lam)
        pphi = eq.potential(u, lam) * phi
        r = np.concatenate([g, eq.apply(phi) + pphi, [l @ eq.field(phi) - 1.0]])
        return r, np.concatenate([bound, np.full(k, tol * (1.0 + np.abs(pphi).max())), [tol]])

    def factor(z):
        u, phi, lam = z[:k], z[k:-1], z[-1]
        at = replace(eq, lam=lam)
        solve = at.bordered_solver(u, eq.restrict(l), 0.0)
        if solve is None:
            return None
        b, c = at.d_potential(u) * phi, eq.potential(u, 1.0) * phi
        x1 = solve(np.append(np.zeros(k), 1.0))
        y1 = solve(np.append(-b * x1[:k] - c * x1[k], 0.0))

        def bordered(v):
            x = solve(np.append(v[:k], 0.0))
            y = solve(np.append(v[k:-1] - b * x[:k] - c * x[k], v[-1]))
            t = -y[k] / y1[k]
            dx, dy = x + t * x1, y + t * y1
            return np.concatenate([dx[:k], dy[:k], dx[k:]])

        return bordered

    scale, trial = evaluate(z0)[1], _positive_trial(k)
    try:
        z, r, b = damped_newton(z0, evaluate, lambda r: np.abs(r / scale).max(), factor, trial, 20, 30)
    except ConvergenceError as exc:
        raise ConvergenceError(f"no fold found from lambda = {start.lam!r}: {exc}", residual=exc.residual) from exc
    lam = float(z[-1])
    res, bound = float(np.abs(r[:k]).max()), float(b[:k].max())
    fld = SolutionField(eq.field(z[:k]), op.grid, replace(spec, lam=lam), res, bound)
    return BranchPoint(fld, op, tol, segment="fold")


def _corrector(eq: Equation, anchor, tangent, ds, w, tol, store: list | None = None):
    """One pseudo-arclength step of length ds from anchor = (u0, lam0).

    From the predictor anchor + ds * tangent, Newton solves the bordered system

        G(u, lam) = 0,   w^2 udot.(u - u0) + lamdot (lam - lam0) = ds,

    whose Jacobian [[G_u, G_lam], [w^2 udot, lamdot]] is factored by LU; eq
    gives G and its bound at any lam (`Equation.evaluate`).  Returns (u, lam,
    residual, bound) with |G| within that bound at every node at the
    returned lam, residual the sup of |G| and bound the sup of the bound, or
    None on failure.
    `store` is damped_newton's: the correctors of one arclength run share
    one bordered LU through it, reused by the chord rule there, fresh-factor
    retry included.  eq is in the run's coordinates (`Equation.on`), which
    anchor and tangent, given on the n nodes, are restricted to; the row's
    product is taken on the mirrored u, and u is returned on the n nodes.
    """
    u0, lam0 = anchor
    udot, lamdot = tangent
    predictor = np.append(np.maximum(eq.restrict(u0) + ds * eq.restrict(udot), 1e-14), lam0 + ds * lamdot)
    k = len(predictor) - 1

    def evaluate(z):
        u = z[:k]
        g, bound = eq.evaluate(u, tol, z[k])
        row = w ** 2 * (udot @ (eq.field(u) - u0)) + lamdot * (z[k] - lam0) - ds
        return np.concatenate((g, (row,))), np.concatenate((bound, (tol * (1.0 + ds),)))

    def factor(z):
        return replace(eq, lam=z[k]).bordered_solver(z[:k], eq.restrict(w ** 2 * udot), lamdot)

    def merit(r):
        return np.abs(r[:k]).max() + abs(r[k])

    try:
        z, r, b = damped_newton(predictor, evaluate, merit, factor, _positive_trial(k), MAX_CORRECTOR, 30, store)
    except ConvergenceError:
        return None
    return eq.field(z[:k]), z[k], float(np.abs(r[:k]).max()), float(b[:k].max())


class _StepFailure(ConvergenceError):
    """No corrected point was accepted at any step length down to DS_MIN."""


def _tangent(w, zprev, zcurr):
    """Unit secant from zprev to zcurr in the weighted norm."""
    du = zcurr[0] - zprev[0]
    dlam = zcurr[1] - zprev[1]
    norm = _arclength(w, du, dlam)
    return du / norm, dlam / norm


def _arclength_points(policy: FoldPolicy, weight, start: BranchPoint, tangent, segment: str):
    """Pseudo-arclength continuation from `start` along `tangent`, on start's problem.

    Yields one BranchPoint per step, labelled `segment`, at most policy.steps
    of them; the caller decides where to stop.  weight(u) is the arclength
    weight w of a step that starts from the n-node field u; `tangent` is a
    unit vector in start's.  A step's corrector row, its angle test and its
    secant all take that one w, and arclength runs on from start's by the
    step's length in it.  Where the next step's w differs from this one's,
    the secant is rescaled to unit length in the new w before it predicts;
    a constant weight never rescales it.  A corrected point's secant is the
    next step's tangent, once its cosine with this one is MIN_COSINE or
    more; none at any ds raises _StepFailure.
    A step computes no lambda1 or monitor: the points compute them when read,
    so only a caller reading them meets their failures.  The correctors share
    one stored bordered LU (see `_corrector`), dropped when the run ends, and
    the coordinates the equation picks from start and tangent when it begins.
    """
    op, spec, tol = start.op, start.solution.spec, start.tol
    eq = Equation.of(op, spec, 0.0).on(start.solution.values, tangent[0])
    z = (start.solution.values, start.lam)
    ds = policy.ds
    sigma = start.arclength
    w = weight(z[0])
    store = []
    try:
        for _ in range(policy.steps):
            while ds >= DS_MIN:
                if (out := _corrector(eq, z, tangent, ds, w, tol, store)) is not None:
                    secant = _tangent(w, z, out[:2])
                    if w ** 2 * (tangent[0] @ secant[0]) + tangent[1] * secant[1] >= MIN_COSINE:
                        break
                ds *= 0.5
            else:
                raise _StepFailure("pseudo-arclength corrector failed below the minimum step")
            u, lam, res, bound = out
            ds = min(ds * DS_GROWTH, policy.ds_max)
            tangent = secant
            sigma += _arclength(w, u - z[0], lam - z[1])
            fld = SolutionField(values=u, grid=op.grid, spec=replace(spec, lam=lam), residual=res, residual_bound=bound)
            yield BranchPoint(fld, op, tol, sigma, segment)
            z = (u, lam)
            if (w_next := weight(u)) != w:
                norm = _arclength(w_next, *tangent)
                tangent, w = (tangent[0] / norm, tangent[1] / norm), w_next
    finally:
        store.clear()


def fold_round(
    branch: Branch,
    op: NonlocalOperator,
    spec: ProblemSpec,
    policy: FoldPolicy = FoldPolicy(),
) -> Branch:
    """Round the fold from the traced fold point and append the upper segment.

    op and spec must be the fold point's operator and problem (spec's lam
    aside), else ValueError; then, like every continuation here, it reads
    them and the tolerance from the branch.  At the fold the branch's tangent
    is (phi, 0), phi the principal eigenvector there.  FIT_HALFWIDTH steps of DS_FOLD along -phi walk back
    down the minimal segment, as many along +phi start the upper one, and the
    upper segment then continues under `policy` until lam falls below 0.85
    of the fold's.  lam(arclength) is fitted by a quadratic over these points
    and the fold, as a check independent of the fold solve: the apex slope
    (normalized by the lam scale) and the curvature are stored.
    """
    fold = branch.fold_point()
    if op is not fold.op or replace(spec, lam=fold.lam) != fold.solution.spec:
        raise ValueError("op and spec are not the operator and problem the branch was traced for")
    w = _arclength_weight(fold.op, fold.sup_norm)
    phi = fold.eigenvector / (w * np.linalg.norm(fold.eigenvector))
    near = FoldPolicy(ds=DS_FOLD, ds_max=DS_FOLD, steps=FIT_HALFWIDTH)

    def weight(u):
        return w

    back = list(_arclength_points(near, weight, fold, (-phi, 0.0), "minimal"))
    for p in back:
        p.arclength = 2.0 * fold.arclength - p.arclength
    window = [*reversed(back), fold, *_arclength_points(near, weight, fold, (phi, 0.0), "upper")]

    sig = np.array([p.arclength for p in window]) - fold.arclength
    lams = np.array([p.lam for p in window])
    coeffs = np.polyfit(sig, lams, 2)
    info = FoldInfo(
        quadratic_coeff=2.0 * float(coeffs[0]),
        lambda_prime=float(coeffs[1]) / fold.lam,
        fit_residual=float(np.abs(np.polyval(coeffs, sig) - lams).max()),
    )
    rounded = Branch(branch.minimal_points() + window, info)
    return _extend_upper(rounded, policy, stop=lambda p: p.lam < 0.85 * fold.lam, weight=weight)[0]


def _extend_upper(branch: Branch, policy: FoldPolicy, stop, weight) -> tuple[Branch, str]:
    """Continue the upper segment from its last point until stop(point) or the step budget ends; (branch, why).

    weight is `_arclength_points`'s; the first tangent is the secant of the
    last two upper points, unit in the weight of the last.  The points go to
    a new Branch; the one passed in is left as it was.  Only a step failed or
    rejected at every step length ends the extension early; no lambda1 or
    monitor is computed unless stop reads it.  why is "stop" (stop held at
    the last point), "lam_floor" (lam fell to LAM_FLOOR), "steps" (policy's
    step budget ran out) or "step_failure".
    """
    branch = replace(branch, points=list(branch.points))
    upper = branch.upper_points()
    if len(upper) < 2:
        raise ValueError("branch has no rounded upper segment to extend")
    prev, last = upper[-2:]
    if stop(branch.points[-1]):
        return branch, "stop"
    tangent = _tangent(weight(last.solution.values), (prev.solution.values, prev.lam), (last.solution.values, last.lam))
    try:
        for point in _arclength_points(policy, weight, last, tangent, "upper"):
            branch.points.append(point)
            if stop(point):
                return branch, "stop"
            if point.lam <= LAM_FLOOR:
                return branch, "lam_floor"
    except _StepFailure:
        return branch, "step_failure"
    return branch, "steps"


def multiplicity_scan(branch: Branch, lam_list) -> list[dict]:
    """Minimal and second solutions at each requested lam below the fold, for the branch's problem.

    The second solution is pulled off the upper segment of the fold-rounded
    `branch` (ValueError when it has none): the two upper samples straddling
    the target lam seed a fixed-lam Newton solve.  Operator, problem and
    Newton tolerance are the fold point's.  Requires the superlinear power
    case with beta = 0 (the regime with the uniform bound that pins the
    asymptotic bifurcation at zero).
    """
    fold = branch.fold_point()
    op, spec, tol = fold.op, fold.solution.spec, fold.tol
    if spec.nonlinearity.kind != "power":
        raise ValueError("multiplicity scan requires a power nonlinearity")
    if spec.beta != 0.0:
        raise ValueError("multiplicity scan requires beta = 0")
    spec.require_subcritical()
    lam_targets = sorted(lam_list, reverse=True)
    need = min(lam_targets)
    w = _arclength_weight(op, fold.sup_norm)
    branch = _extend_upper(branch, FoldPolicy(steps=600), stop=lambda p: p.lam < need, weight=lambda u: w)[0]

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
        rows.append({"lam": lam_t, "minimal": minimal, "second": second, "gap": gap, "complete": second is not None})
    return rows


@dataclass(eq=False)
class ProbeResult:
    """The probe's branch, its (lam, sup_norm) table over the upper segment, and why it stopped.

    `stopped` is "cap" (the sup norm reached the growth cap), "lam_floor"
    (lam fell to LAM_FLOOR), "steps" (the step budget ran out) or
    "step_failure" (a step failed or was rejected at every step length).
    """

    lambda_a: float
    table: np.ndarray
    branch: Branch
    stopped: str


def asymptotic_bifurcation_probe(branch: Branch, growth_cap: float = 1e3, steps: int = 2000) -> ProbeResult:
    """Follow the upper segment toward lam -> 0, on the branch's problem, and tabulate (lam, sup_norm).

    Stops when the sup norm reaches growth_cap times the fold amplitude, when
    lam falls to LAM_FLOOR, when the step budget is spent or when a step
    fails at every step length (`ProbeResult.stopped`); the lam infimum of
    the traversed segment is the asymptotic-bifurcation estimate (it keeps
    decreasing under larger budgets when the blow-up parameter is zero).

    Each step is weighted by the amplitude of the point it starts from,
    w = 1/(sqrt(n) ||u||_inf), not by the fold's: near the blow-up the upper
    segment is self-similar, u ~ lam^(-1/(p-1)) times the Lane-Emden
    solution, so steps of the policy's ds_max in that scale change the
    amplitude by about the same factor each, and the step count grows with
    the logarithm of growth_cap rather than in proportion to it.  The
    arclength of a probe point is the fold-weighted arclength of the branch
    it extends plus the sum of these relative step lengths.
    """
    if branch.fold is None:
        raise ValueError("probe requires a fold-rounded branch")
    fold = branch.fold_point()

    def weight(u):
        return _arclength_weight(fold.op, np.abs(u).max())

    def capped(p):
        return p.sup_norm >= growth_cap * fold.sup_norm

    branch, stopped = _extend_upper(branch, FoldPolicy(ds=0.2, steps=steps), stop=capped, weight=weight)
    upper = branch.upper_points()
    table = np.array([[p.lam, p.sup_norm] for p in upper])
    lambda_a = float(min(p.lam for p in upper))
    return ProbeResult(lambda_a=lambda_a, table=table, branch=branch, stopped="cap" if stopped == "stop" else stopped)


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
    bug, not new mathematics).  Each start's Jacobians are factored by
    Cholesky alone: below the cap every potential entry
    lam (delta K_i u_i^(-delta-1) - f'(u_i)) is nonnegative, so J dominates
    A.  So each start's Newton run factors in float32 first
    (`singular.Equation.precision`) and is run again in float64 if it
    fails; a float64 run that fails, a failed Cholesky included, ends the
    start as "diverged".
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
            vals, _, _ = eq.solve(start, tol, spd_solver, 60)
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
