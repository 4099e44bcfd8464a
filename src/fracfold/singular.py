"""Nonlinear solves: the pure singular problem, the forced solution operator,
and minimal solutions.

Every solve is one `Equation`,

    G(u) = A u - lam (k(x) u^(-delta) + f(u)) - rhs,

handed to one damped-Newton core, `damped_newton`.  The equation gives the
residual, the stopping scale, the potential (the Jacobian is A +
diag(potential)) and dG/dlam; the caller gives the factor function, which
maps a Jacobian to a solve with it and never hands out a LAPACK factor
(`operator.spd_solver`, given n so that it probes every block with the
n-node sine profile, for the solves below, `operator.lu_solver` for the
second solutions and multistarts in `continuation`, a bordered LU solve for
its arclength corrector and its fold solve), and the trial map (the
positivity floor here, rejection of nonpositive trials in `continuation`).
`damped_newton` reuses a factored solve while the merit falls fast (the
chord rule), so a solve makes fewer factorizations than steps.

The grid, A and K are symmetric under the reflection of the nodes bit for
bit, and every start below (c* phi_1, the scaled pure singular solution, the
warm-start hints, the torsion bracket of an even forcing) is even.  When the
start, k and rhs are all even, `Equation.jacobian` writes only the even
block J_e = E^T J E of order ceil(n/2) and `Equation.solve` steps by E
J_e^-1 E^T (-r): an exact Newton step, since J maps even fields to even
fields, and every iterate stays even bit for bit.  So `damped_newton` and
the residuals are the same on either path; only asymmetric data (a forcing
that is not even, a random start) factor the n x n Jacobian.

When t -> k t^(-delta) + f(t) is convex the residual map is componentwise
concave and its Jacobian is a symmetric Z-matrix.  Hence a full Newton step
lands on a subsolution, and from a subsolution every (damped) step points
upward and stays a subsolution below the minimal solution, where the
Jacobian dominates the one at the minimal solution and is positive definite.
Started from a subsolution, Newton is the monotone iteration of the theory,
and so is the chord method (see `monotone_iterate`); started from a
supersolution, its first step undershoots to a subsolution and the iterates
rise from there.  Either way positivity is preserved without the arithmetic
floor binding at convergence.  So every solve runs at the singular term
itself: the regularized problems (u + eps)^(-delta) through which the theory
reaches it are not needed to compute it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import BracketViolation, ConvergenceError
from .operator import (
    Basis,
    Grid,
    NonlocalOperator,
    basis_for,
    fold,
    matvec,
    principal_eigenpair,
    solve_dirichlet,
    spd_solver,
)
from .problem import Nonlinearity, ProblemSpec, no_nonlinearity

__all__ = [
    "SolutionField",
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
CHORD_RATIO = 0.1  # a Newton run reuses its stored factor while the last step cut the merit to this fraction or less


@dataclass(eq=False)
class SolutionField:
    """Grid field with the residual it achieves."""

    values: np.ndarray
    grid: Grid
    spec: ProblemSpec
    residual: float
    residual_bound: float

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True, eq=False)
class Equation:
    """G(u) = A u - lam (k u^(-delta) + f(u)) - rhs on op's grid.

    With rhs = 0 this is the map G(u, lam) of the problem; the forced solve
    sets rhs.  Callers that fold lam into k pass lam = 1.
    """

    op: NonlocalOperator
    k: np.ndarray
    delta: float
    nonlinearity: Nonlinearity
    lam: float
    rhs: np.ndarray | float = 0.0

    @classmethod
    def of(cls, op: NonlocalOperator, spec: ProblemSpec, lam: float) -> "Equation":
        """G(u, lam) = A u - lam (K u^(-delta) + f(u)) for spec's data."""
        return cls(op, spec.k_field(op.grid), spec.delta, spec.nonlinearity, lam)

    def _source(self, u: np.ndarray) -> np.ndarray:
        return self.k * u ** (-self.delta) + self.nonlinearity.f(u)

    def residual(self, u: np.ndarray) -> np.ndarray:
        return matvec(self.op.matrix, u) - self.lam * self._source(u) - self.rhs

    def scale(self, u: np.ndarray) -> float:
        """1 + sup of the nonlinear and forcing terms: Newton stops at residual <= tol * scale."""
        return 1.0 + np.abs(self.lam * self._source(u)).max() + np.abs(self.rhs).max()

    def potential(self, u: np.ndarray) -> np.ndarray:
        """Diagonal part of the Jacobian: dG/du = A + diag(potential)."""
        singular = self.lam * self.delta * self.k * u ** (-self.delta - 1.0)
        return singular - self.lam * self.nonlinearity.fprime(u)

    def d_potential(self, u: np.ndarray) -> np.ndarray:
        """d(potential)/du: the second derivative G_uu[v, w] is d_potential * v * w."""
        singular = self.lam * self.delta * (self.delta + 1.0) * self.k * u ** (-self.delta - 2.0)
        return -singular - self.lam * self.nonlinearity.fsecond(u)

    def basis(self, u: np.ndarray, *data) -> Basis:
        """E's columns when u, k, rhs and any further data are even, else the nodes (see `jacobian`)."""
        return basis_for(len(u), u, self.k, self.rhs, *data)

    def jacobian(self, u: np.ndarray, out: np.ndarray | None = None, odd: bool = False) -> np.ndarray:
        """dG/du = A + diag(potential), or one of its blocks, written into `out` (an array or view) or a new array.

        The even block is E^T J E = E^T A E + diag(E^T potential), of order
        ceil(n/2) (E^T diag(p) E = diag(E^T p) for any p); with odd=True it
        is the odd block E_o^T A E_o + diag of the first n//2 entries of E^T
        potential.  Without `out` the basis of u picks the form: the even
        block when u, k and rhs are even (J then commutes with the
        reflection and is the sum of its blocks), else J itself; with `out`
        its order does.  The matrix (A or its cached block) is copied into
        the target and the potential added to its diagonal, which gives the
        bits of the sum without a temporary of the matrix's size.
        """
        pot = self.potential(u)
        if odd or (self.basis(u).even if out is None else len(out) < len(u)):
            base = self.op.odd_block if odd else self.op.even_block
            pot = fold(pot)[: len(base)]
        else:
            base = self.op.matrix
        if out is None:
            out = np.empty_like(base)
        out[...] = base
        out[np.diag_indices(len(base))] += pot
        return out

    def d_dlam(self, u: np.ndarray) -> np.ndarray:
        return -self._source(u)

    def solve(self, u0, tol: float, factor, maxit: int) -> tuple[np.ndarray, float, float]:
        """Damped Newton from u0 with trials floored at POSITIVITY_FLOOR.

        factor(jac) is operator.spd_solver or operator.lu_solver: a solve
        with the Jacobian, or None when its factorization rejects it.  At an
        even u with even data it factors the even block and the step is
        E J_e^-1 E^T (-r), so every iterate stays even bit for bit.
        damped_newton keeps one such solve for the run and reuses it by its
        chord rule.  Returns (u, residual, bound) with residual <= bound =
        tol * scale(u); a solution resting on the floor is a ConvergenceError.
        """
        u0 = np.maximum(np.asarray(u0, dtype=float), POSITIVITY_FLOOR)

        def factored(u):
            return self.basis(u).lift(factor(self.jacobian(u)))

        u, r, b = damped_newton(u0, self.residual, _sup_norm, lambda u: tol * self.scale(u), factored, _floored, maxit, 40)
        res = float(_sup_norm(r))
        if u.min() <= 10.0 * POSITIVITY_FLOOR:
            raise ConvergenceError("positivity floor active at convergence", residual=res)
        return u, res, float(b)


def damped_newton(x, residual, merit, bound, factor, trial, maxit: int, halvings: int, store: list | None = None):
    """Newton's method with a halving line search on merit(residual(x)), reusing factors by the chord rule.

    x is converged when |residual(x)| <= bound(x) componentwise (bound may be
    a scalar); this is tested at the start and after every step, the last
    allowed one included.  factor(x) returns a solve v -> J(x)^-1 v with the
    Jacobian at x, or None when its factorization rejects it (not finite,
    exactly singular, or not positive definite for a Cholesky factor); the
    step for residual r is solve(-r).  trial(x, t, dx) maps the damped step
    x + t dx into the admissible set, or gives None to reject it; t runs 1,
    1/2, ..., 2^-halvings until the merit decreases.

    The chord rule (Shamanskii's method with Kelley's contraction test,
    Kelley, SIAM 2003, ch. 2 and 5): `store` holds at most one solve.  A step
    solves with the stored one when it is the run's first step (the solve then
    comes from an earlier run sharing the store) or the merit fell to at most
    CHORD_RATIO of its value at the step before; otherwise it empties the
    store and stores a fresh factor at x.  A chord step meets the same line
    search and stopping test as a Newton step, so the returned x meets the
    same bound.  When a run that reused a factor fails, it is run once more
    from the same x with a fresh factor at every step and nothing stored.
    Without `store` the factor lives for this call; pass a list to share it
    across runs (the arclength correctors).  Returns (x, residual(x),
    bound(x)); failure is a ConvergenceError.
    """
    store = [] if store is None else store
    start, r0 = x, residual(x)
    for chord in (True, False):
        x, r, reused, prev, steps = start, r0, False, None, 0
        m = merit(r)
        try:
            while not np.all(np.abs(r) <= (b := bound(x))):
                if steps == maxit:
                    raise ConvergenceError(f"Newton stalled at residual {m:.3e} after {maxit} steps", residual=float(m))
                steps += 1
                if chord and store and (prev is None or m <= CHORD_RATIO * prev):
                    solve, reused = store[0], True
                else:
                    solve = None  # the old factor goes before its replacement is built
                    store.clear()
                    if (solve := factor(x)) is None:
                        raise ConvergenceError("non-finite, indefinite or singular Jacobian in Newton", residual=float(m))
                    if chord:
                        store.append(solve)
                prev = m
                dx = solve(-r)
                for j in range(halvings + 1):
                    xt = trial(x, 0.5 ** j, dx)
                    if xt is None:
                        continue
                    rt = residual(xt)
                    mt = merit(rt)
                    if mt < m:
                        x, r, m = xt, rt, mt
                        break
                else:
                    raise ConvergenceError(f"Newton stalled at residual {m:.3e}", residual=float(m))
            return x, r, b
        except ConvergenceError:
            if not reused:  # always so in the fresh-factor run
                raise
            store.clear()


def _sup_norm(r: np.ndarray) -> float:
    return np.abs(r).max()


def _floored(u, t, du):
    return np.maximum(u + t * du, POSITIVITY_FLOOR)


def subsolution_constant(spec: ProblemSpec, op: NonlocalOperator) -> float:
    """Largest c making c*phi a discrete subsolution of A u = K u^(-delta)."""
    pair = principal_eigenpair(op)
    k = spec.k_field(op.grid)
    ratio = k * pair.vector ** (-(1.0 + spec.delta)) / pair.value
    return float(ratio.min() ** (1.0 / (1.0 + spec.delta)))


def solve_pure_singular(spec: ProblemSpec, op: NonlocalOperator, tol: float = DEFAULT_TOL) -> SolutionField:
    """Solve A u = K u^(-delta) by one damped-Newton run from c* phi_1.

    c* phi_1 is a discrete subsolution, and the residual map is componentwise
    concave with an M-matrix Jacobian, so the iterates rise monotonically from
    it onto the solution and stay positive; no regularization is needed.  Any
    lambda must be folded into spec.coeff.  The result is checked a posteriori
    against the subsolution.
    """
    k = spec.k_field(op.grid)
    if spec.delta == 0.0:
        u = solve_dirichlet(op, k)
        res = float(np.abs(matvec(op.matrix, u) - k).max())
        return SolutionField(u, op.grid, spec, res, tol * (1.0 + np.abs(k).max()))

    lower = subsolution_constant(spec, op) * principal_eigenpair(op).vector
    eq = Equation(op, k, spec.delta, no_nonlinearity(), 1.0)
    u, res, bound = eq.solve(lower, tol, partial(spd_solver, n=op.n), 80)
    if np.any(u < lower * (1.0 - 1e-6)):
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
    )


def pure_singular_cached(spec: ProblemSpec, op: NonlocalOperator, tol: float = DEFAULT_TOL) -> SolutionField:
    """Unit-weight pure singular solution, cached on the operator."""
    key = ("usub1", spec.coeff, spec.delta, spec.beta, tol)
    if key not in op._cache:
        base = replace(spec, nonlinearity=no_nonlinearity(), lam=0.0)
        op._cache[key] = solve_pure_singular(base, op, tol=tol)
    return op._cache[key]


def torsion_field(op: NonlocalOperator) -> np.ndarray:
    """Solution of A U = 1, which builds the upper start of `solve_A`; cached."""
    if "torsion" not in op._cache:
        op._cache["torsion"] = solve_dirichlet(op, np.ones(op.n))
    return op._cache["torsion"]


def solve_A(
    lam: float,
    h: np.ndarray,
    op: NonlocalOperator,
    spec: ProblemSpec,
    tol: float = DEFAULT_TOL,
) -> SolutionField:
    """Solution operator of A u - lam*K u^(-delta) = h.

    For h >= 0 the solution is bracketed by the scaled pure singular solution
    below and that field plus max(h)*U above.  Newton starts from the upper
    bracket; its first step lands on a subsolution and the iterates rise from
    there.  Nonpositive h is attempted anyway and reported as a bracket
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
        res = float(np.abs(matvec(op.matrix, u) - h).max())
        return SolutionField(u, op.grid, replace(spec, lam=lam), res, tol * (1.0 + np.abs(h).max()))
    usub = scale_pure_singular(pure_singular_cached(spec, op, tol), lam).values
    upper = usub + max(float(h.max()), 0.0) * torsion_field(op)
    eq = Equation(op, lam * spec.k_field(op.grid), spec.delta, no_nonlinearity(), 1.0, rhs=h)
    try:
        u, res, bound = eq.solve(upper, tol, partial(spd_solver, n=op.n), 80)
    except ConvergenceError as exc:
        raise BracketViolation(f"solve for the shifted equation failed: {exc}") from exc
    return SolutionField(u, op.grid, replace(spec, lam=lam), res, bound)


def _field_values(field) -> np.ndarray:
    return field.values if isinstance(field, SolutionField) else np.asarray(field, dtype=float)


def _require_convexity(spec: ProblemSpec, k: np.ndarray, top: float) -> None:
    """ValueError unless t -> min(k) t^(-delta) + f(t) is convex at 256 points of (0, top]."""
    t = np.linspace(0.0, top, 257)[1:]
    with np.errstate(over="ignore"):
        curvature = spec.delta * (spec.delta + 1.0) * k.min() * t ** (-spec.delta - 2.0)
    if not np.all(curvature + spec.nonlinearity.fsecond(t) >= 0.0):
        raise ValueError("K t^(-delta) + f(t) is not convex on the range of the solution")


def monotone_iterate(
    lam: float,
    sub,
    op: NonlocalOperator,
    spec: ProblemSpec,
    tol: float = DEFAULT_TOL,
) -> SolutionField:
    """Minimal solution above the subsolution `sub` by one damped-Newton run.

    With t -> K t^(-delta) + f(t) convex, Newton from a subsolution is the
    monotone iteration (see the module docstring): the iterates rise, stay
    below the minimal solution and meet Jacobians that dominate the one there,
    so every step is a Cholesky solve.  A chord step, which solves with the
    Jacobian J_old = A + diag(p(u_old)) factored at an earlier, lower iterate,
    is that iteration too.  The potential p = -lam (K t^(-delta) + f)' is
    decreasing by the convexity, so J_old dominates the Jacobian J_k at the
    current subsolution u_k on the diagonal, and J_old^-1 >= 0 (an M-matrix).
    Hence dx = -J_old^-1 G(u_k) >= 0, and by concavity G(u_k + t dx) <=
    G(u_k) + t J_k dx <= (1 - t) G(u_k) <= 0 for t in (0, 1]: the chord
    iterates rise and stay subsolutions below the minimal solution.  A
    Jacobian that is not positive definite ends the run with ConvergenceError;
    it shows that no stable solution lies above `sub`, as past the fold.  The
    convexity that this argument needs is sampled on (0, max u] by
    `_require_convexity` (ValueError when it fails), and the result is checked
    against `sub` a posteriori.
    """
    usub = _field_values(sub)
    eq = Equation.of(op, spec, lam)
    try:
        u, res, bound = eq.solve(usub, tol, partial(spd_solver, n=op.n), 60)
    except ConvergenceError as exc:
        msg = f"no minimal solution at lambda = {lam!r}, likely past the fold: {exc}"
        raise ConvergenceError(msg, residual=exc.residual) from exc
    if np.any(u < usub - ORDER_SLACK * (1.0 + np.abs(usub).max())):
        raise BracketViolation("Newton iterate fell below its subsolution")
    _require_convexity(spec, eq.k, float(u.max()))
    return SolutionField(u, op.grid, replace(spec, lam=lam), res, bound)


def solve_min(
    lam: float,
    spec: ProblemSpec,
    op: NonlocalOperator,
    tol: float = DEFAULT_TOL,
    sub_hint=None,
) -> SolutionField:
    """Minimal solution of A u = lam (K u^-delta + f(u)) for lam below the fold.

    The subsolution is the rescaled pure singular solution, joined with the
    warm-start hint when one is supplied (any solution at a smaller lambda is
    a valid subsolution), and `monotone_iterate` rises from it.  Past the fold
    the run ends in ConvergenceError.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    sub = scale_pure_singular(pure_singular_cached(spec, op, tol), lam).values
    if sub_hint is not None:
        sub = np.maximum(sub, _field_values(sub_hint))
    return monotone_iterate(lam, sub, op, spec, tol=tol)
