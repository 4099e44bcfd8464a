"""Nonlinear solves: the pure singular problem, the forced solution operator,
and minimal solutions.

Every solve is one `Equation`,

    G(u) = A u - lam (k(x) u^(-delta) + f(u)) - rhs,

handed to one damped-Newton core, `damped_newton`.  The equation gives the
residual with its stopping bound (`Equation.evaluate`), the potential (the
Jacobian is A + diag(potential)) and dG/dlam, and it alone outside
`operator` decides J's form: its precision, its blocks, the coordinates of
a Newton run (`Equation.on`), the holder of its solves
(`Equation.linearization`) and the bordered LU of `continuation`
(`Equation.bordered_solver`).  The caller gives the factor function, which
maps a Jacobian to a solve with it and never hands out a LAPACK factor
(`operator.spd_solver`, given n so that it probes every block with the
n-node sine profile, for the solves below and, on the nodes, for the
multistarts in `continuation`, `operator.lu_solver` for its second
solutions, the bordered LU for its arclength corrector and its fold solve),
and the trial map (the positivity floor here, rejection of nonpositive
trials in `continuation`).  "Cholesky, else LU" is kept only by the holder
of a linearization's solves (`operator.LinearizedOperator.block_solve`).
`damped_newton` reuses a factored solve while the merit falls fast (the
chord rule), so a solve makes fewer factorizations than steps.  Newton stops
when |G(u)| <= tol * scale(u) at every node, with the per-node scale 1 +
|lam (k u^(-delta) + f(u))| + |rhs| (`Equation.evaluate`): the wall node, where
k u^(-delta) is largest, sets only its own bound, so the interior converges
to the same tolerance from any start.

A Newton run takes its factor precision from its start u0
(`Equation.precision`).  When the potential p(u0) is >= 0 at every node,
J(u0) = A + diag(p(u0)) dominates A: it is positive definite with its
smallest eigenvalue at least lambda_1(A).  The run then builds and factors
each Jacobian in float32, while the residual and the stopping test stay
float64; a float32 run that fails is run again in float64
(`Equation.solve`).  When f = 0 and lam delta k >= 0, as in the pure
singular and forced solves (`solve_pure_singular`, `solve_A`), p >= 0 at
every u, so these always start in float32.  So do the multistarts of
`continuation.uniqueness_probe`, drawn below the amplitude cap where every
entry of p is >= 0, and the minimal solves whose start (the scaled pure
singular solution, joined with a hint) has p >= 0, as at small lam.  A
start with a negative entry of p, as near the fold, where J goes singular,
factors in float64.

The grid, A and K are symmetric under the reflection of the nodes bit for
bit, and every start below (max(c b, (K / diag A)^(1/(1+delta))) with b =
(L^2 - x^2)^gamma at the paper's boundary exponent gamma, the scaled pure
singular solution, the warm-start hints, the torsion bracket of an even
forcing) is even.  A Newton run picks its coordinates once, from
its start and data (`Equation.on`).  When the start, k and rhs are all
even, the run is on the half grid (`operator.Basis`): every field is its
first ceil(n/2) node values, `Equation.jacobian` writes only the even block
J_e = Q^T J Q, and the step is J_e^-1 (-r) folded and unfolded there, an
exact Newton step, since J maps even fields to even fields.  The residual
takes A u from A's even block alone, and each evaluation computes the
source term once for the residual and its bound (`Equation.evaluate`).
Every entry has the bits of the node-space run, whose iterates are the
mirrored ones, and the field is mirrored back once, when the run ends.  So
`damped_newton` is the same on either basis; only asymmetric data (a
forcing that is not even, a random start) run on the nodes and factor the
n x n Jacobian.

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
    LinearizedOperator,
    NonlocalOperator,
    basis_for,
    lu_solver,
    solve_dirichlet,
    spd_solver,
)
from .problem import Nonlinearity, ProblemSpec, no_nonlinearity
from .weights import boundary_exponent, boundary_profile

__all__ = [
    "SolutionField",
    "solve_pure_singular",
    "scale_pure_singular",
    "solve_A",
    "monotone_iterate",
    "solve_min",
    "subsolution_constant",
    "pure_singular_start",
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
    """G(u) = A u - lam (k u^(-delta) + f(u)) - rhs on op's grid, in the coordinates `basis`.

    With rhs = 0 this is the map G(u, lam) of the problem; the forced solve
    sets rhs.  Callers that fold lam into k pass lam = 1.  An equation takes
    and gives n-node fields; `on` gives it in the coordinates of a Newton
    run, where k, rhs and every field are carried on the half grid when they
    are all even (`operator.Basis`).
    """

    op: NonlocalOperator
    k: np.ndarray
    delta: float
    nonlinearity: Nonlinearity
    lam: float
    rhs: np.ndarray | float = 0.0
    basis: Basis | None = None  # None: the n nodes

    def __post_init__(self):
        if self.basis is None:
            object.__setattr__(self, "basis", Basis(self.op.n, False))

    @classmethod
    def of(cls, op: NonlocalOperator, spec: ProblemSpec, lam: float) -> "Equation":
        """G(u, lam) = A u - lam (K u^(-delta) + f(u)) for spec's data."""
        return cls(op, spec.k_field(op.grid), spec.delta, spec.nonlinearity, lam)

    def on(self, u: np.ndarray, *data) -> "Equation":
        """This equation in the coordinates of a Newton run from the n-node field u, chosen once for the run.

        They are the half grid when u, k, rhs and the further n-node data of
        the run (a tangent, a bordering row) are all even, else the nodes.
        An even start stays even: J maps even fields to even fields, so
        every step, iterate and bordered unknown of the run is even too.
        `restrict` takes n-node fields to the run's coordinates and `field`
        gives them back.
        """
        basis = basis_for(len(u), u, self.k, self.rhs, *data)
        return replace(self, k=basis.half(self.k), rhs=basis.half(self.rhs), basis=basis)

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """An n-node field in this equation's coordinates."""
        return self.basis.half(x)

    def field(self, u: np.ndarray) -> np.ndarray:
        """The n-node field of u, given in this equation's coordinates."""
        return self.basis.mirror(u)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u in this equation's coordinates (`Basis.apply`): on the half grid from A's even block alone."""
        return self.basis.apply(self.op, u)

    def _source(self, u: np.ndarray) -> np.ndarray:
        return self.k * u ** (-self.delta) + self.nonlinearity.f(u)

    def evaluate(self, u: np.ndarray, tol: float, lam: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(G(u), tol * scale(u)) at lam, the equation's own by default, from one evaluation of the source term.

        The scale is 1 + |lam (k u^(-delta) + f(u))| + |rhs| at each node:
        Newton stops at |G(u)| <= tol * scale(u) node by node.  A scale
        shared by all nodes would be set by the wall node, where k u^(-delta)
        is largest, and let the interior stop early.
        """
        source = (self.lam if lam is None else lam) * self._source(u)
        return self.apply(u) - source - self.rhs, tol * (1.0 + np.abs(source) + np.abs(self.rhs))

    def residual(self, u: np.ndarray) -> np.ndarray:
        """G(u)."""
        return self.evaluate(u, 0.0)[0]

    def potential(self, u: np.ndarray, lam: float | None = None) -> np.ndarray:
        """Diagonal part of the Jacobian at lam, the equation's own by default: dG/du = A + diag(potential)."""
        lam = self.lam if lam is None else lam
        singular = lam * self.delta * self.k * u ** (-self.delta - 1.0)
        return singular - lam * self.nonlinearity.fprime(u)

    def d_potential(self, u: np.ndarray) -> np.ndarray:
        """d(potential)/du: the second derivative G_uu[v, w] is d_potential * v * w."""
        singular = self.lam * self.delta * (self.delta + 1.0) * self.k * u ** (-self.delta - 2.0)
        return -singular - self.lam * self.nonlinearity.fsecond(u)

    def jacobian(self, u: np.ndarray, out: np.ndarray | None = None, odd: bool = False) -> np.ndarray:
        """dG/du = A + diag(potential), or one of its blocks, written into `out` (an array or view) or a new float64 array.

        The even block is Q^T A Q + diag(potential[:ceil(n/2)]) (Q^T diag(p)
        Q = diag(p[:ceil(n/2)]) for an even p); with odd=True it is Q_o^T A
        Q_o + diag(potential[:n//2]).  The order of `out`, else of u, picks
        the form: a u on the half grid gives the even block, one on the n
        nodes J.  A's cached block, or A from `NonlocalOperator.dense`, goes
        into the target and its diagonal is summed with the potential: the
        bits of the sum with no temporary of the matrix's size, each entry
        rounded once into a float32 `out` (Newton's single-precision buffer).
        """
        pot = self.potential(u)
        if odd or len(u if out is None else out) < self.op.n:
            base = self.op.odd_block if odd else self.op.even_block
            out = np.empty(base.shape) if out is None else out
            out[...] = base
            diagonal = np.diagonal(base)
        else:
            out = self.op.dense(out)
            diagonal = self.op.diagonal
        out[np.diag_indices(len(out))] = diagonal + pot[: len(out)]
        return out

    def d_dlam(self, u: np.ndarray) -> np.ndarray:
        return -self._source(u)

    def linearization(self, u: np.ndarray) -> LinearizedOperator:
        """J at the n-node u as the holder of its solves (J_e and a builder of J_o at even data); ValueError unless finite."""
        run = self.on(u)
        matrix = run.jacobian(run.restrict(u))
        if not np.all(np.isfinite(np.diagonal(matrix))):  # A is finite, so only the potential can fail
            raise ValueError("linearized potential is not finite")
        if not run.basis.even:
            return LinearizedOperator(matrix, self.op.n)
        return LinearizedOperator(matrix, self.op.n, partial(self.jacobian, u, odd=True), self.op.even_off_sums)

    def bordered_solver(self, u: np.ndarray, row: np.ndarray, corner: float):
        """x -> M^-1 x for M = [[G_u, G_lam], [row, corner]] at u, by one LU; None as for lu_solver.

        u, row and x are in this equation's coordinates.  On the half grid M
        maps (Q y, lam) to even residuals, and the LU is of its even form
        [[J_e, Q^T G_lam], [Q^T row, corner]], of order ceil(n/2) + 1; the
        solve folds the first ceil(n/2) entries of x and unfolds those of the
        solution (`Basis.solver`).  M is not symmetric, so it is filled in
        column-major order, where LAPACK factors it in place: its J block is
        written row by row into the transpose view of that block, which holds
        J since J is symmetric.
        """
        k = len(u)
        mat = np.empty((k + 1, k + 1), order="F")  # filled in place: np.block takes 20 times as long at n = 256
        self.jacobian(u, out=mat[:k, :k].T)
        mat[:k, k] = self.basis.fold(self.d_dlam(u))
        mat[k, :k] = self.basis.fold(row)
        mat[k, k] = corner
        return self.basis.solver(lu_solver(mat, overwrite=True))

    def precision(self, u0: np.ndarray) -> type:
        """Newton's factor dtype from the start u0: float32 when potential(u0) >= 0 at every node, else float64.

        A nonnegative potential makes J(u0) dominate A, so J(u0) is positive
        definite (see the module notes).  With f = 0 and lam delta k >= 0 the
        potential is nonnegative at every u, so the answer is float32 at
        every start.
        """
        return np.float32 if np.all(self.potential(u0) >= 0.0) else np.float64

    def solve(self, u0, tol: float, factor, maxit: int) -> tuple[np.ndarray, float, float]:
        """Damped Newton from the n-node u0 with trials floored at POSITIVITY_FLOOR, in the run's coordinates (`on`).

        factor(jac, overwrite=True) is operator.spd_solver or lu_solver: a
        solve with the Jacobian, or None when its factorization rejects it.
        It gets the fresh Jacobian as its transpose view (J is symmetric)
        and factors it in place.  At an even u0 with even data the run is
        on the half grid: it factors the even block, its step is J_e^-1
        (-r) through `Basis.solver`, and the field is mirrored back once,
        at the end.  damped_newton keeps
        one such solve for the run and reuses it by its chord rule.
        Returns (u, residual, bound) with |G(u)| <= tol * scale(u) at every
        node (`evaluate`), residual its sup and bound the sup of tol *
        scale(u); a solution resting on the floor is a ConvergenceError.

        Each Jacobian is built and factored in place in `precision(u0)`,
        float32 when the potential at the start is nonnegative at every
        node, while the residual, the step and the stopping test stay
        float64.  A run builds every Jacobian into one buffer of its dtype:
        damped_newton drops the stored solve before it factors the next
        Jacobian, so the buffer is free by then, and a run of many
        factorizations touches the pages of one matrix, not of one per
        factorization.  In float32 the chord rule absorbs the factor's
        rounding as it absorbs a stale factor (Langou et al., SC'06), and a
        float32 run that fails, a rejected factor included, is run again
        from u0 in float64, so a ConvergenceError is always the float64
        Newton's.
        """
        u0 = np.maximum(np.asarray(u0, dtype=float), POSITIVITY_FLOOR)
        run = self.on(u0)
        start = run.restrict(u0)

        def newton(dtype):
            jac = np.empty((len(start), len(start)), dtype)  # the run's one Jacobian buffer

            def factored(u):  # J is symmetric: its transpose view is J in column-major order, and scratch
                return run.basis.solver(factor(run.jacobian(u, out=jac).T, overwrite=True))

            return damped_newton(start, partial(run.evaluate, tol=tol), _sup_norm, factored, _floored, maxit, 40)

        dtype = run.precision(start)
        try:
            u, r, b = newton(dtype)
        except ConvergenceError:
            if dtype is np.float64:
                raise
            u, r, b = newton(np.float64)
        res = float(_sup_norm(r))
        if u.min() <= 10.0 * POSITIVITY_FLOOR:
            raise ConvergenceError("positivity floor active at convergence", residual=res)
        return run.field(u), res, float(np.max(b))


def damped_newton(x, evaluate, merit, factor, trial, maxit: int, halvings: int, store: list | None = None):
    """Newton's method with a halving line search on merit(residual(x)), reusing factors by the chord rule.

    evaluate(x) gives (residual(x), bound(x)) from one evaluation, once per
    trial; x is converged when |residual(x)| <= bound(x) componentwise
    (bound may be a scalar), tested at the start and after every step, the
    last allowed one included.  factor(x) returns a solve v -> J(x)^-1 v
    with the Jacobian at x, or None when its factorization rejects it (not
    finite, exactly singular, or not positive definite for a Cholesky
    factor); the step for residual r is solve(-r).  trial(x, t, dx) maps the
    damped step x + t dx into the admissible set, or gives None to reject
    it; t runs 1, 1/2, ..., 2^-halvings until the merit decreases.

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
    start, (r0, b0) = x, evaluate(x)
    for chord in (True, False):
        x, r, b, reused, prev, steps = start, r0, b0, False, None, 0
        m = merit(r)
        try:
            while not (np.abs(r) <= b).all():
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
                    rt, bt = evaluate(xt)
                    mt = merit(rt)
                    if mt < m:
                        x, r, b, m = xt, rt, bt, mt
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


def subsolution_constant(spec: ProblemSpec, op: NonlocalOperator, profile: np.ndarray) -> float:
    """Largest c making c * profile a discrete subsolution of A u = K u^(-delta), for a positive profile b.

    A (c b) <= K (c b)^(-delta) holds at a node with (A b)_i <= 0 for every
    c > 0, and elsewhere exactly when c^(1+delta) <= K_i / ((A b)_i b_i^delta).
    So c is the min of (K_i / ((A b)_i b_i^delta))^(1/(1+delta)) over the
    nodes with (A b)_i > 0, from one product A b (`NonlocalOperator.apply`).
    For b largest at the centre, as the boundary profile and phi_1 are, the
    centre node is one of them: A's off-diagonals are nonpositive and its row
    sums positive, so (A b)_c >= b_c (row sum) > 0.
    """
    k = spec.k_field(op.grid)
    image = op.apply(profile)
    rising = image > 0.0
    ratio = k[rising] / (image[rising] * profile[rising] ** spec.delta)
    return float(ratio.min() ** (1.0 / (1.0 + spec.delta)))


def pure_singular_start(spec: ProblemSpec, op: NonlocalOperator) -> np.ndarray:
    """max(c b, (K / diag A)^(1/(1+delta))), b = (L^2 - x^2)^gamma: the subsolution `solve_pure_singular` starts from.

    b is `weights.boundary_profile` at the paper's boundary exponent gamma
    (`weights.boundary_exponent`) and c is `subsolution_constant` of b.  b is
    even bit for bit, so the start is even and its Newton run is on the half
    grid.
    """
    profile = boundary_profile(op.grid, boundary_exponent(spec.s, spec.delta, spec.beta))
    wall = (spec.k_field(op.grid) / op.diagonal) ** (1.0 / (1.0 + spec.delta))
    return np.maximum(subsolution_constant(spec, op, profile) * profile, wall)


def solve_pure_singular(spec: ProblemSpec, op: NonlocalOperator, tol: float = DEFAULT_TOL) -> SolutionField:
    """Solve A u = K u^(-delta) by one damped-Newton run from `pure_singular_start`.

    The start is max(c b, w), b = (L^2 - x^2)^gamma and w = (K / diag
    A)^(1/(1+delta)).  Both terms are discrete subsolutions: c b by the
    choice of c (`subsolution_constant`), and w because A's off-diagonals are
    nonpositive, so (A w)_i <= a_ii w_i = K_i w_i^(-delta).  A is an
    M-matrix, so their max is a subsolution too.  b vanishes like d^gamma,
    gamma = min(s, (2s - beta)/(1+delta)), the paper's boundary rate of the
    solution, so the start has the solution's boundary layer in every
    regime, and c is read off one product A b: the solve needs no eigenpair.
    w sits on the wall nodes, from below which each node would rise by only
    about 1 + 1/delta per step.  The residual map is componentwise concave
    with an M-matrix Jacobian, so the iterates rise monotonically from the
    start onto the solution and stay positive; no regularization is needed.
    The Jacobian A + diag(delta K u^(-delta-1)) is positive definite at every
    u, so it is factored in float32 (`Equation.precision`).  Any lambda must
    be folded into spec.coeff.  The result is checked a posteriori against
    the start.
    """
    k = spec.k_field(op.grid)
    if spec.delta == 0.0:
        u = solve_dirichlet(op, k)
        res = float(np.abs(op.apply(u) - k).max())
        return SolutionField(u, op.grid, spec, res, tol * (1.0 + np.abs(k).max()))

    lower = pure_singular_start(spec, op)
    eq = Equation(op, k, spec.delta, no_nonlinearity(), 1.0)
    u, res, bound = eq.solve(lower, tol, partial(spd_solver, n=op.n), 80)
    if np.any(u < lower * (1.0 - 1e-6)):
        raise BracketViolation("pure singular solution dipped below its subsolution start")
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
    there.  Its Jacobian A + diag(lam delta K u^(-delta-1)) is positive
    definite at every u, so it is factored in float32 (`Equation.precision`).
    Nonpositive h is attempted anyway and reported as a bracket violation if
    positivity fails.
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
        res = float(np.abs(op.apply(u) - h).max())
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
