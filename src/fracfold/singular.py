"""Nonlinear solves: regularized and pure singular problems, the solution
operator of the shifted equation, and the monotone iteration for minimal
solutions.

All solves share one damped-Newton core for equations of the form

    (A + shift*I) u - k(x) (u + eps)^(-delta) = rhs,

whose residual map is componentwise concave, so Newton steps started from a
supersolution decrease monotonically and positivity is preserved without the
arithmetic floor ever binding at convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .blas import single_pool
from .errors import BracketViolation, ConvergenceError, SupersolutionNotFound
from .operator import Grid, NonlocalOperator, principal_eigenpair, solve_dirichlet
from .problem import ProblemSpec, RegularizedSpec, no_nonlinearity, regularize
from .weights import NormReport, build_weight_profile, cone_norms, fit_boundary_exponent

__all__ = [
    "SolutionField",
    "solve_regularized",
    "solve_pure_singular",
    "scale_pure_singular",
    "solve_A",
    "monotone_iterate",
    "solve_min",
    "subsolution_constant",
    "torsion_field",
    "pure_singular_cached",
]

POSITIVITY_FLOOR = 1e-30
DEFAULT_TOL = 1e-8
ORDER_SLACK = 1e-11


@dataclass(eq=False)
class SolutionField:
    """Grid field with the residual it achieves and an optional norm report."""

    values: np.ndarray
    grid: Grid
    spec: ProblemSpec
    residual: float
    residual_bound: float
    report: NormReport | None = None

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def _shifted_residual(mat, shift, kfield, delta, eps, rhs, u):
    return mat @ u + shift * u - kfield * (u + eps) ** (-delta) - rhs


def _solve_shifted_singular(
    op: NonlocalOperator,
    kfield: np.ndarray,
    delta: float,
    eps: float,
    rhs: np.ndarray,
    u0: np.ndarray,
    tol: float,
    shift: float = 0.0,
    maxit: int = 80,
) -> tuple[np.ndarray, float, float]:
    """Damped Newton for (A + shift*I) u - k (u+eps)^(-delta) = rhs.

    Returns (u, residual, bound); convergence means residual <= bound with
    bound = tol * (sup magnitude of the equation's terms at the solution).
    """
    mat = op.matrix
    u = np.maximum(np.asarray(u0, dtype=float).copy(), POSITIVITY_FLOOR)
    res_vec = _shifted_residual(mat, shift, kfield, delta, eps, rhs, u)
    res = np.abs(res_vec).max()
    for _ in range(maxit):
        scale = 1.0 + np.abs(kfield * (u + eps) ** (-delta)).max() + np.abs(rhs).max()
        if res <= tol * scale:
            if u.min() <= 10.0 * POSITIVITY_FLOOR:
                raise ConvergenceError("positivity floor active at convergence", residual=float(res))
            return u, float(res), float(tol * scale)
        jac_diag = shift + delta * kfield * (u + eps) ** (-delta - 1.0)
        jac = mat + np.diag(jac_diag)
        step = cho_solve(cho_factor(jac, lower=True), -res_vec, check_finite=False)
        t = 1.0
        while t >= 2.0 ** -40:
            trial = np.maximum(u + t * step, POSITIVITY_FLOOR)
            trial_vec = _shifted_residual(mat, shift, kfield, delta, eps, rhs, trial)
            trial_res = np.abs(trial_vec).max()
            if trial_res < res:
                u, res_vec, res = trial, trial_vec, trial_res
                break
            t *= 0.5
        else:
            break
    raise ConvergenceError(f"Newton stalled at residual {res:.3e}", residual=float(res))


def solve_regularized(rspec: RegularizedSpec, op: NonlocalOperator, tol: float = DEFAULT_TOL) -> SolutionField:
    """Solve A u = K_eps (u + eps)^(-delta), the strictly convex regularization.

    Newton starts from the linear solve with the singular term frozen at u = 0,
    which is a supersolution, so the iterates decrease monotonically onto the
    unique solution.
    """
    spec = rspec.base
    if not spec.nonlinearity.is_none:
        raise ValueError("regularized solves handle the pure singular term only")
    delta, eps, keps = spec.delta, rspec.eps, rspec.k_eps
    if delta == 0.0:
        u = solve_dirichlet(op, keps)
        res = float(np.abs(op.matrix @ u - keps).max())
        return SolutionField(u, op.grid, spec, res, tol * (1.0 + np.abs(keps).max()))
    u0 = solve_dirichlet(op, keps * eps ** (-delta))
    u, res, bound = _solve_shifted_singular(op, keps, delta, eps, np.zeros(op.n), u0, tol)
    return SolutionField(u, op.grid, spec, res, bound)


def subsolution_constant(spec: ProblemSpec, op: NonlocalOperator) -> float:
    """Largest c making c*phi a discrete subsolution of A u = K u^(-delta)."""
    pair = principal_eigenpair(op)
    k = spec.k_field(op.grid)
    ratio = k * pair.vector ** (-(1.0 + spec.delta)) / pair.value
    return float(ratio.min() ** (1.0 / (1.0 + spec.delta)))


@single_pool
def solve_pure_singular(
    spec: ProblemSpec,
    op: NonlocalOperator,
    tol: float = DEFAULT_TOL,
    eps0: float = 1.0,
    ratio: float = 0.5,
    eps_stop: float = 1e-6,
    max_steps: int = 60,
) -> SolutionField:
    """Solve A u = K u^(-delta) as the limit of the regularized solves.

    The schedule eps_k = eps0 * ratio^k runs until successive iterates are
    Cauchy in sup norm, then one unregularized Newton polish removes the
    remaining eps bias.  Any lambda must be folded into spec.coeff.  The
    result is checked a posteriori against the eigenfunction subsolution.
    """
    k = spec.k_field(op.grid)
    if spec.delta == 0.0:
        u = solve_dirichlet(op, k)
        res = float(np.abs(op.matrix @ u - k).max())
        return SolutionField(u, op.grid, spec, res, tol * (1.0 + np.abs(k).max()))

    eps = eps0
    prev = None
    gap = np.inf
    for _ in range(max_steps):
        rspec = regularize(spec, op.grid, eps)
        if prev is None:
            current = solve_regularized(rspec, op, tol=tol)
        else:
            u, res, bound = _solve_shifted_singular(
                op, rspec.k_eps, spec.delta, eps, np.zeros(op.n), prev.values, tol
            )
            current = SolutionField(u, op.grid, spec, res, bound)
        if prev is not None:
            gap = np.abs(current.values - prev.values).max()
            if gap <= eps_stop:
                prev = current
                break
        prev = current
        eps *= ratio
    else:
        regime = f"beta/s + delta = {spec.beta / spec.s + spec.delta:.3f}"
        raise ConvergenceError(
            f"regularization schedule exhausted ({regime}, last sup gap {gap:.3e})", residual=float(gap)
        )

    u, res, bound = _solve_shifted_singular(op, k, spec.delta, 0.0, np.zeros(op.n), prev.values, tol)
    cstar = subsolution_constant(spec, op)
    phi = principal_eigenpair(op).vector
    if np.any(u < cstar * phi * (1.0 - 1e-6)):
        raise BracketViolation("pure singular solution dipped below the eigenfunction subsolution")
    return SolutionField(u, op.grid, spec, res, bound)


def scale_pure_singular(u1: SolutionField, lam: float) -> SolutionField:
    """Exact rescaling lam^(1/(delta+1)) * u_1 of the unit-weight singular solution.

    By linearity of the discrete operator the scaled field solves the equation
    with weight lam*K exactly, so its residual is the scaled residual of u_1.
    """
    if lam < 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    spec = u1.spec
    factor = lam ** (1.0 / (spec.delta + 1.0))
    return SolutionField(
        values=factor * u1.values,
        grid=u1.grid,
        spec=replace(spec, lam=lam),
        residual=factor * u1.residual,
        residual_bound=max(factor, 1.0) * u1.residual_bound,
        report=None,
    )


def pure_singular_cached(spec: ProblemSpec, op: NonlocalOperator, tol: float = DEFAULT_TOL) -> SolutionField:
    """Unit-weight pure singular solution, cached on the operator."""
    key = ("usub1", spec.coeff, spec.delta, spec.beta, tol)
    if key not in op._cache:
        base = replace(spec, nonlinearity=no_nonlinearity(), lam=0.0)
        op._cache[key] = solve_pure_singular(base, op, tol=tol)
    return op._cache[key]


def torsion_field(op: NonlocalOperator) -> np.ndarray:
    """Solution of A U = 1, the supersolution building block; cached."""
    if "torsion" not in op._cache:
        op._cache["torsion"] = solve_dirichlet(op, np.ones(op.n))
    return op._cache["torsion"]


@single_pool
def solve_A(
    lam: float,
    h: np.ndarray,
    op: NonlocalOperator,
    spec: ProblemSpec,
    tol: float = DEFAULT_TOL,
    usub: np.ndarray | None = None,
) -> SolutionField:
    """Solution operator of A u - lam*K u^(-delta) = h.

    For h >= 0 the solution is bracketed by the scaled pure singular solution
    below and that field plus max(h)*U above; Newton starts from the upper
    bracket.  Nonpositive h is attempted anyway and reported as a bracket
    violation if positivity fails.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("forcing must be finite at all nodes")
    if lam < 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        u = solve_dirichlet(op, h)
        if h.min() >= 0.0 and u.min() <= 0.0 and np.any(h > 0.0):
            raise BracketViolation("maximum principle violated in the linear solve")
        res = float(np.abs(op.matrix @ u - h).max())
        return SolutionField(u, op.grid, replace(spec, lam=lam), res, tol * (1.0 + np.abs(h).max()))
    if usub is None:
        usub = scale_pure_singular(pure_singular_cached(spec, op, tol), lam).values
    upper = usub + max(float(h.max()), 0.0) * torsion_field(op)
    k = lam * spec.k_field(op.grid)
    try:
        u, res, bound = _solve_shifted_singular(op, k, spec.delta, 0.0, h, upper, tol)
    except ConvergenceError as exc:
        raise BracketViolation(f"solve for the shifted equation failed: {exc}") from exc
    return SolutionField(u, op.grid, replace(spec, lam=lam), res, bound)


def _shift_constant(spec: ProblemSpec, top: float) -> float:
    """C with t -> C t + f(t) increasing on [0, top]."""
    nl = spec.nonlinearity
    if nl.is_none:
        return 0.0
    ts = np.linspace(0.0, top, 257)[1:]
    return float(max(np.max(nl.fprime(ts)), 0.0))


def _full_residual(op: NonlocalOperator, spec: ProblemSpec, lam: float, u: np.ndarray) -> np.ndarray:
    k = spec.k_field(op.grid)
    return op.matrix @ u - lam * (k * u ** (-spec.delta) + spec.nonlinearity.f(u))


def _lu_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """jac^-1 rhs by LU with partial pivoting, or None when jac is not finite or exactly singular."""
    if not np.all(np.isfinite(jac)):
        return None
    lu = lu_factor(jac, check_finite=False)
    if not np.all(np.diag(lu[0])):
        return None
    return lu_solve(lu, rhs, check_finite=False)


def _newton_full(op, spec, lam, u0, tol, maxit=60):
    """Damped Newton on the full equation A u = lam (K u^-delta + f(u))."""
    k = spec.k_field(op.grid)
    nl = spec.nonlinearity
    u = np.maximum(np.asarray(u0, dtype=float).copy(), POSITIVITY_FLOOR)
    res_vec = _full_residual(op, spec, lam, u)
    res = np.abs(res_vec).max()
    for _ in range(maxit):
        scale = 1.0 + lam * np.abs(k * u ** (-spec.delta) + nl.f(u)).max()
        if res <= tol * scale:
            return u, float(res), float(tol * scale)
        jac_diag = lam * spec.delta * k * u ** (-spec.delta - 1.0) - lam * nl.fprime(u)
        step = _lu_step(op.matrix + np.diag(jac_diag), -res_vec)
        if step is None:
            raise ConvergenceError("non-finite or singular Jacobian in Newton polish", residual=float(res))
        t = 1.0
        while t >= 2.0 ** -40:
            trial = np.maximum(u + t * step, POSITIVITY_FLOOR)
            trial_vec = _full_residual(op, spec, lam, trial)
            trial_res = np.abs(trial_vec).max()
            if trial_res < res:
                u, res_vec, res = trial, trial_vec, trial_res
                break
            t *= 0.5
        else:
            break
    raise ConvergenceError(f"Newton on the full equation stalled at {res:.3e}", residual=float(res))


def _field_values(field) -> np.ndarray:
    return field.values if isinstance(field, SolutionField) else np.asarray(field, dtype=float)


def monotone_iterate(
    lam: float,
    sub,
    sup,
    op: NonlocalOperator,
    spec: ProblemSpec,
    tol: float = DEFAULT_TOL,
    max_outer: int = 400,
    scheme_gap: float = 1e-3,
) -> SolutionField:
    """Minimal solution above `sub` via the shifted monotone scheme.

    Each sweep solves (A + lam*C) u_n - lam*K u_n^(-delta) = lam*C u_{n-1}
    + lam*f(u_{n-1}) with C large enough that t -> C t + f(t) increases on
    [0, max sup], so the iterates are nondecreasing and capped by the
    supersolution.  Once successive sweeps differ by less than `scheme_gap`
    (relative), a Newton polish on the full equation finishes the convergence;
    by concavity of the residual map the polish steps remain nondecreasing,
    so the combined sequence stays monotone and inside the bracket.
    """
    usub = _field_values(sub)
    usup = _field_values(sup)
    if np.any(usub > usup * (1.0 + 1e-12) + ORDER_SLACK):
        raise BracketViolation("subsolution exceeds supersolution")
    k = spec.k_field(op.grid)
    nl = spec.nonlinearity
    shift_c = _shift_constant(spec, float(usup.max()))
    sup_slack = ORDER_SLACK * (1.0 + float(usup.max()))

    u = usub.copy()
    for _ in range(max_outer):
        rhs = lam * (shift_c * u + nl.f(u))
        unew, _, _ = _solve_shifted_singular(
            op, lam * k, spec.delta, 0.0, rhs, u, 0.1 * tol, shift=lam * shift_c
        )
        if np.any(unew < u - ORDER_SLACK * (1.0 + np.abs(u).max())):
            raise BracketViolation("monotone iterate decreased at a node")
        if np.any(unew > usup + sup_slack):
            raise BracketViolation("monotone iterate escaped the supersolution")
        gap = np.abs(unew - u).max()
        u = unew
        if nl.is_none:
            break
        if gap <= scheme_gap * (1.0 + np.abs(u).max()):
            break
    else:
        raise ConvergenceError("monotone scheme did not settle", residual=float(gap))

    u_polished, res, bound = _newton_full(op, spec, lam, u, tol)
    if np.any(u_polished < u - ORDER_SLACK * (1.0 + np.abs(u).max())):
        raise BracketViolation("Newton polish decreased below the monotone iterate")
    if np.any(u_polished > usup + sup_slack):
        raise BracketViolation("Newton polish escaped the supersolution")
    return SolutionField(u_polished, op.grid, replace(spec, lam=lam), res, bound)


def _supersolution_from(
    lam: float,
    spec: ProblemSpec,
    op: NonlocalOperator,
    base: np.ndarray,
    usub_lam: np.ndarray,
    max_doublings: int = 40,
) -> np.ndarray | None:
    """Search ubar = base + M*U for the smallest admissible M, or None.

    M ranges over a geometric grid around the starting guess
    max(1, lam * max f(2 * max usub_lam)); the admissibility check is the
    nodewise discrete supersolution inequality.
    """
    k = spec.k_field(op.grid)
    nl = spec.nonlinearity
    torsion = torsion_field(op)
    action = op.matrix @ base
    a_torsion = op.matrix @ torsion
    m0 = max(1.0, lam * float(nl.f(np.array([2.0 * usub_lam.max()]))[0]))
    exponents = list(range(-16, max_doublings + 1))
    for j in exponents:
        m = m0 * 2.0 ** j
        ubar = base + m * torsion
        lhs = action + m * a_torsion
        rhs = lam * (k * ubar ** (-spec.delta) + nl.f(ubar))
        margin = lhs - rhs
        scale = 1.0 + np.abs(rhs).max()
        if margin.min() >= -1e-12 * scale:
            return ubar
    return None


@single_pool
def solve_min(
    lam: float,
    spec: ProblemSpec,
    op: NonlocalOperator,
    tol: float = DEFAULT_TOL,
    sub_hint=None,
    with_report: bool = True,
    newton_fallback: bool = False,
) -> SolutionField:
    """Minimal solution of A u = lam (K u^-delta + f(u)) for lam below the fold.

    The subsolution is the rescaled pure singular solution, joined with the
    warm-start hint when one is supplied (any solution at a smaller lambda is
    a valid subsolution).  The supersolution search tries base + M*U over both
    available bases and the bracket feeds the monotone iteration; if no
    admissible M exists the parameter is reported as likely past the fold.

    The additive supersolution family caps out strictly below the fold (the
    pointwise margin of base + M*U closes before the spectral one), so branch
    tracing sets newton_fallback=True: the residual map is componentwise
    concave with an M-matrix Jacobian, hence damped Newton started from the
    subsolution increases monotonically and converges exactly when a solution
    above the start exists, which makes it a sharp existence probe for the
    remaining sliver below the fold.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    usub_lam = scale_pure_singular(pure_singular_cached(spec, op, tol), lam).values
    sub = usub_lam
    if sub_hint is not None:
        sub = np.maximum(sub, _field_values(sub_hint))

    ubar = None
    bases = [sub] if sub is usub_lam else [sub, usub_lam]
    for base in bases:
        ubar = _supersolution_from(lam, spec, op, base, usub_lam)
        if ubar is not None:
            break

    if ubar is not None:
        if np.any(sub > ubar + ORDER_SLACK * (1.0 + ubar.max())):
            raise BracketViolation("warm-start subsolution pokes above the found supersolution")
        field = monotone_iterate(lam, sub, ubar, op, spec, tol=tol)
    elif newton_fallback:
        values, res, bound = _newton_full(op, spec, lam, sub, tol, maxit=50)
        if np.any(values < sub - ORDER_SLACK * (1.0 + sub.max())):
            raise BracketViolation("fallback solve dipped below its subsolution")
        if np.any(values < usub_lam * (1.0 - 1e-8) - ORDER_SLACK):
            raise BracketViolation("fallback solve dipped below the singular subsolution")
        field = SolutionField(values, op.grid, replace(spec, lam=lam), res, bound)
    else:
        raise SupersolutionNotFound(
            f"no admissible supersolution at lambda = {lam!r}; likely above the extremal parameter"
        )
    if with_report:
        pair = principal_eigenpair(op)
        profile = build_weight_profile(pair.vector, spec.s, spec.delta, spec.beta)
        report = cone_norms(field.values, profile)
        try:
            alpha, r2 = fit_boundary_exponent(field.values, op.grid)
            report.fitted_exponent, report.fit_r2 = alpha, r2
        except ValueError:
            pass
        field.report = report
    return field
