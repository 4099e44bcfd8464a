"""End-to-end verification battery.

Each check replays one quantitative claim of the underlying theory against
the solver at its stated tolerance and returns structured records.  The CLI
`verify` subcommand and the acceptance test module both run these functions,
so there is a single definition of every criterion.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import gamma

from .config import RunConfig
from .continuation import (
    FoldPolicy,
    TracePolicy,
    asymptotic_bifurcation_probe,
    fold_round,
    multiplicity_scan,
    trace_minimal,
    uniqueness_probe,
)
from .errors import ConvergenceError
from .linearization import lambda1, sensitivity_bundle
from .operator import assemble_operator, build_grid, normalization_constant, principal_eigenpair, solve_dirichlet
from .problem import ProblemSpec, power_nonlinearity
from .singular import Equation, pure_singular_cached, scale_pure_singular, solve_A, solve_min
from .weights import classify_regime, fit_boundary_exponent, holder_seminorm, hs_membership_indicator, Regime

__all__ = ["VerificationRecord", "VerificationReport", "verify_suite", "SUITES", "format_report"]


@dataclass
class VerificationRecord:
    name: str
    claim: str
    params: dict
    expected: str
    measured: str
    tolerance: str
    passed: bool

    def __post_init__(self):
        """expected, measured and tolerance as text and passed as a plain bool, whatever a check computed them as."""
        self.expected, self.measured, self.tolerance = str(self.expected), str(self.measured), str(self.tolerance)
        self.passed = bool(self.passed)


@dataclass
class VerificationReport:
    records: list[VerificationRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.records], indent=1) + "\n"


def format_report(report: VerificationReport) -> str:
    header = ("check", "status", "expected", "measured", "tolerance")
    rows = [header] + [
        (r.name, "PASS" if r.passed else "FAIL", r.expected, r.measured, r.tolerance) for r in report.records
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header) - 1)]
    lines = ["  ".join([*(cell.ljust(w) for cell, w in zip(row, widths)), row[-1]]) for row in rows]
    total = sum(1 for r in report.records if r.passed)
    lines.append(f"{total}/{len(report.records)} records passed")
    return "\n".join(lines)


class _Cache(dict):
    def operator(self, n, s):
        """The operator of order s on (-1, 1) with n nodes, assembled once."""
        key = ("op", n, s)
        if key not in self:
            self[key] = assemble_operator(build_grid(1.0, n), s)
        return self[key]

    def pure(self, spec: ProblemSpec, n: int, tol: float):
        """Pure singular solution on (-1, 1) with n nodes, cached on the shared operator."""
        return pure_singular_cached(spec, self.operator(n, spec.s), tol)


# --- 1. discretization oracle -------------------------------------------------

def _closed_form_quadrature(s: float, x0: float) -> float:
    """Operator value of (1-x^2)^s_+ at x0 by adaptive quadrature of the
    symmetrized singular integral; the independent check of the closed-form
    constant before it is trusted."""
    from scipy.integrate import quad  # imported here: no other path needs scipy.integrate

    def u(y):
        yy = np.asarray(y, dtype=float)
        return np.where(np.abs(yy) < 1.0, np.clip(1.0 - yy * yy, 0.0, None) ** s, 0.0)

    def integrand(z):
        return (2.0 * u(x0) - u(x0 + z) - u(x0 - z)) / z ** (1.0 + 2.0 * s)

    cut = 50.0
    total = 0.0
    with warnings.catch_warnings():
        # the extrapolation-table warning at s=0.75 is benign: the result is
        # still accurate to ~1e-9, far below the 1e-6 gate used on it
        warnings.simplefilter("ignore")
        for a, b in ((1e-12, 1.0 - abs(x0)), (1.0 - abs(x0), 1.0 + abs(x0)), (1.0 + abs(x0), cut)):
            val, _ = quad(integrand, a, b, limit=400)
            total += val
    total += 2.0 * float(u(x0)) * cut ** (-2.0 * s) / (2.0 * s)
    return 2.0 * normalization_constant(s) * total


def check_discretization(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    records = []
    for s in (0.25, 0.5, 0.75):
        exact_const = gamma(2.0 * s + 1.0)
        worst = max(
            abs(_closed_form_quadrature(s, x0) - exact_const) / exact_const for x0 in (0.0, 0.3, -0.45)
        )
        records.append(
            VerificationRecord(
                f"getoor-constant-s{s}",
                "closed-form operator constant confirmed by adaptive quadrature",
                {"s": s},
                f"{exact_const:.6f}",
                f"quad dev {worst:.2e}",
                "rel 1e-6",
                worst <= 1e-6,
            )
        )
        errs = []
        for n in (128, 256, 512, 1024):
            op = cache.operator(n, s)
            w = solve_dirichlet(op, np.ones(n))
            exact = (1.0 - op.grid.nodes ** 2) ** s / exact_const
            errs.append(float(np.abs(w - exact).max() / np.abs(exact).max()))
        mono = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        records.append(
            VerificationRecord(
                f"getoor-solve-s{s}",
                "unit-forcing solve matches (1-x^2)^s / Gamma(2s+1)",
                {"s": s, "n": [128, 256, 512, 1024]},
                "<= 2e-2 at n=1024, decreasing",
                f"errs {['%.2e' % e for e in errs]}",
                "sup-rel 2e-2",
                errs[-1] <= 2e-2 and mono,
            )
        )
    return records


# --- 2. M-matrix / comparison -------------------------------------------------

def check_comparison(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    rng = np.random.default_rng(cfg.seed)
    records = []
    for s in (0.25, 0.4, 0.5, 0.75):
        for n in (128, 256):
            op = cache.operator(n, s)
            mat = op.dense()
            scale = np.abs(mat).max()
            sign_ok = (
                np.diag(mat).min() > 0.0
                and (mat - np.diag(np.diag(mat))).max() <= 1e-12 * scale
                and mat.sum(axis=1).min() > 0.0
            )
            sym = float(np.abs(mat - mat.T).max() / scale)
            violations = 0
            for _ in range(100):
                r_low = rng.uniform(0.0, 1.0, size=n)
                r_high = r_low + rng.uniform(0.0, 1.0, size=n)
                diff = solve_dirichlet(op, r_high) - solve_dirichlet(op, r_low)
                if diff.min() < -1e-12 * max(1.0, np.abs(diff).max()):
                    violations += 1
            records.append(
                VerificationRecord(
                    f"mmatrix-s{s}-n{n}",
                    "sign pattern, symmetry, and comparison on 100 ordered pairs",
                    {"s": s, "n": n},
                    "0 violations",
                    f"sym {sym:.1e}, violations {violations}",
                    "sym 1e-12, zero violations",
                    sign_ok and sym <= 1e-12 and violations == 0,
                )
            )
    return records


# --- 3. pure-singular scaling -------------------------------------------------

def check_scaling(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    records = []
    s, n = 0.4, 256
    for delta in (0.5, 1.0, 3.0):
        base = ProblemSpec(s=s, delta=delta, beta=0.0, coeff=1.0)
        u1 = cache.pure(base, n, cfg.newton_tol)
        for lam in (0.25, 4.0):
            direct = cache.pure(ProblemSpec(s=s, delta=delta, beta=0.0, coeff=lam), n, cfg.newton_tol)
            scaled = scale_pure_singular(u1, lam)
            dist = float(np.abs(direct.values - scaled.values).max())
            records.append(
                VerificationRecord(
                    f"scaling-d{delta}-lam{lam}",
                    "solve with weight lam*K equals lam^(1/(delta+1)) times the unit solve",
                    {"s": s, "delta": delta, "lam": lam, "n": n},
                    "0",
                    f"{dist:.2e}",
                    "2e-8",
                    dist <= 2e-8,
                )
            )
    return records


# --- 4. boundary rates ----------------------------------------------------------

def check_rates(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    records = []
    n = 1024
    for name, spec, target, tol in (
        ("rate-sub", ProblemSpec(s=0.4, delta=0.5, beta=0.0), 0.4, 0.05),
        ("rate-super", ProblemSpec(s=0.4, delta=3.0, beta=0.0), 0.2, 0.05),
    ):
        op = cache.operator(n, spec.s)
        u = cache.pure(spec, n, cfg.newton_tol)
        alpha, r2 = fit_boundary_exponent(u.values, op.grid)
        records.append(
            VerificationRecord(
                name,
                "fitted boundary exponent matches the regime prediction",
                {"s": spec.s, "delta": spec.delta, "beta": spec.beta, "n": n},
                f"{target} +- {tol}",
                f"{alpha:.4f} (r2 {r2:.4f})",
                f"+-{tol}",
                abs(alpha - target) <= tol,
            )
        )
    spec = ProblemSpec(s=0.5, delta=1.0, beta=0.0)
    op = cache.operator(n, spec.s)
    u = cache.pure(spec, n, cfg.newton_tol)
    alpha, r2 = fit_boundary_exponent(u.values, op.grid)
    flag = classify_regime(spec.s, spec.delta, spec.beta) is Regime.CRITICAL
    records.append(
        VerificationRecord(
            "rate-critical",
            "borderline case fits strictly below the plain eigenfunction rate, "
            "within 0.1, with the log-correction flag raised",
            {"s": spec.s, "delta": spec.delta, "beta": spec.beta, "n": n},
            "alpha in (0.4, 0.5), flag",
            f"{alpha:.4f}, flag={flag}",
            "open interval",
            (0.4 < alpha < 0.5) and flag,
        )
    )
    return records


# --- 5. energy-class threshold ---------------------------------------------------

def check_hs_threshold(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    records = []
    n = 1023
    for spec in (
        ProblemSpec(s=0.4, delta=3.0, beta=0.0),
        ProblemSpec(s=0.75, delta=1.0, beta=0.6),
        ProblemSpec(s=0.75, delta=1.0, beta=1.4),
        ProblemSpec(s=0.75, delta=5.0, beta=1.4),
    ):
        op = cache.operator(n, spec.s)
        u = cache.pure(spec, n, cfg.newton_tol)
        mass, verdict = hs_membership_indicator(u.values, op.grid, spec)
        algebraic = "finite" if spec.hs_flag else "diverging"
        records.append(
            VerificationRecord(
                f"hs-threshold-s{spec.s}-d{spec.delta}-b{spec.beta}",
                "integrability verdict agrees with the algebraic threshold",
                {"s": spec.s, "delta": spec.delta, "beta": spec.beta, "n": n},
                algebraic,
                f"{verdict} (mass {mass:.2f})",
                "exact agreement",
                verdict == algebraic,
            )
        )
    return records


# --- 6. Hoelder regimes ----------------------------------------------------------

def check_holder(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    """C^gamma up to the wall and no smoother.  The growth clause fits e in
    S(gamma + 0.1) ~ h^-e per refinement; a field like d^a at the wall gives
    e = gamma + 0.1 - a, so e must be 0.1 to the rates' tolerance of 0.05."""
    records = []
    for name, spec, gam in (
        ("holder-sub", ProblemSpec(s=0.4, delta=0.5, beta=0.0), 0.4),
        ("holder-super", ProblemSpec(s=0.4, delta=3.0, beta=0.0), 0.2),
    ):
        at_g, at_gp, hs = [], [], []
        for n in (256, 512, 1024):
            op = cache.operator(n, spec.s)
            u = cache.pure(spec, n, cfg.newton_tol)
            at_g.append(holder_seminorm(u.values, op.grid, gam))
            at_gp.append(holder_seminorm(u.values, op.grid, gam + 0.1))
            hs.append(op.grid.h)
        stable = max(at_g) / min(at_g) <= 1.5
        growth = [np.log(at_gp[i + 1] / at_gp[i]) / np.log(hs[i] / hs[i + 1]) for i in range(2)]
        records.append(
            VerificationRecord(
                f"{name}-stable",
                "seminorm at the predicted exponent is refinement-stable",
                {"s": spec.s, "delta": spec.delta, "gamma": gam},
                "ratio <= 1.5",
                f"max/min {max(at_g) / min(at_g):.3f}",
                "factor 1.5",
                stable,
            )
        )
        records.append(
            VerificationRecord(
                f"{name}-growth",
                "seminorm 0.1 above the predicted exponent blows up like h^-0.1 under refinement",
                {"s": spec.s, "delta": spec.delta, "gamma": round(gam + 0.1, 12)},
                "0.1 +- 0.05 per step",
                f"exponents {['%.3f' % g for g in growth]}",
                "+-0.05",
                all(abs(g - 0.1) <= 0.05 for g in growth),
            )
        )
    return records


# --- 7. minimal branch ------------------------------------------------------------

_BRANCH_SPEC = ProblemSpec(s=0.4, delta=0.5, beta=0.0, coeff=1.0, nonlinearity=power_nonlinearity(2.0))


def _traced(cache: _Cache, n: int, tol: float):
    key = ("branch", n, tol)
    if key not in cache:
        op = cache.operator(n, _BRANCH_SPEC.s)
        cache[key] = trace_minimal(_BRANCH_SPEC, op, TracePolicy(tol=tol))
    return cache[key]


def _folded(cache: _Cache, n: int, tol: float):
    key = ("folded", n, tol)
    if key not in cache:
        op = cache.operator(n, _BRANCH_SPEC.s)
        cache[key] = fold_round(_traced(cache, n, tol), op, _BRANCH_SPEC, FoldPolicy())
    return cache[key]


def check_branch(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    records = []
    estimates = {}
    for n in (512, 1024):
        branch = _folded(cache, n, cfg.newton_tol)
        estimates[n] = branch.fold_point().lam
        l1 = [p.lambda1 for p in branch.minimal_points()]
        tail = l1[-4:]
        decreasing = all(tail[i] > tail[i + 1] for i in range(len(tail) - 1))
        records.append(
            VerificationRecord(
                f"branch-lambda1-n{n}",
                "principal eigenvalue positive on the minimal branch, decreasing near the fold",
                {"n": n, **_params(_BRANCH_SPEC)},
                "all > 0, tail decreasing",
                f"min {min(l1):.4f}, tail {['%.4f' % v for v in tail]}",
                "strict",
                min(l1) > 0.0 and decreasing,
            )
        )
    rel = abs(estimates[512] - estimates[1024]) / estimates[1024]
    records.append(
        VerificationRecord(
            "branch-lambda-reproducible",
            "extremal-parameter estimate agrees across grid refinement",
            {"n": [512, 1024]},
            "<= 1%",
            f"{rel:.2%} ({estimates[512]:.6f} vs {estimates[1024]:.6f})",
            "1%",
            rel <= 0.01,
        )
    )
    op = cache.operator(512, _BRANCH_SPEC.s)
    fold = _folded(cache, 512, cfg.newton_tol).fold_point()
    lam_est = fold.lam
    bound = _nonexistence_bound(_BRANCH_SPEC, op)
    records.append(
        VerificationRecord(
            "branch-nonexistence",
            "every solution has lambda <= mu_1/m, so the traced extremal parameter lies below it",
            {"n": 512, **_params(_BRANCH_SPEC)},
            "Lambda <= mu_1/m",
            f"Lambda {lam_est:.6f}, mu_1/m {bound:.5f} (mu_1 {principal_eigenpair(op).value:.5f})",
            "exact bound",
            lam_est <= bound,
        )
    )
    lam = 0.95 * lam_est
    try:
        lam1 = lambda1(lam, solve_min(lam, _BRANCH_SPEC, op, tol=cfg.newton_tol), op, _BRANCH_SPEC).value
        measured = f"lambda1 {lam1:.4f}"
    except ConvergenceError as exc:
        lam1, measured = None, f"solve failed: {exc}"
    records.append(
        VerificationRecord(
            "branch-existence",
            "a stable minimal solution exists just below the extremal parameter",
            {"n": 512, "lam": lam},
            "solve succeeds, lambda1 > 0",
            measured,
            "strict",
            lam1 is not None and lam1 > 0.0,
        )
    )
    res = float(np.abs(Equation.of(op, _BRANCH_SPEC, fold.lam).residual(fold.solution.values)).max())
    records.append(
        VerificationRecord(
            "branch-fold-point",
            "the fold point solves the problem at the extremal parameter, where lambda1 vanishes with phi > 0",
            {"n": 512, **_params(_BRANCH_SPEC)},
            "residual <= its bound, |lambda1| <= 1e-6, phi > 0",
            f"residual {res:.2e} (bound {fold.solution.residual_bound:.2e}), lambda1 {fold.lambda1:.1e}, "
            f"min phi {fold.eigenvector.min():.3f}",
            "1e-6",
            res <= fold.solution.residual_bound and abs(fold.lambda1) <= 1e-6 and fold.eigenvector.min() > 0.0,
        )
    )
    return records


def _nonexistence_bound(spec: ProblemSpec, op) -> float:
    """mu_1 / m, above which the discrete problem has no solution (power f).

    A is a symmetric M-matrix with A phi_1 = mu_1 phi_1 and phi_1 > 0, and
    K t^(-delta) + c t^p >= m t for all t > 0 with m the minimum over t of
    (min K t^(-delta) + c t^p) / t, attained at t^(p+delta) =
    (delta+1) min K / (c (p-1)).  Testing the equation against phi_1 gives
    mu_1 (phi_1, u) >= lam m (phi_1, u), so lam <= mu_1 / m.
    """
    nl = spec.nonlinearity
    if nl.kind != "power":
        raise ValueError("the phi_1 bound is in closed form for a power nonlinearity only")
    k, d, p, c = spec.k_field(op.grid).min(), spec.delta, nl.p, nl.c
    t = ((d + 1.0) * k / (c * (p - 1.0))) ** (1.0 / (p + d))
    m = k * t ** (-d - 1.0) + c * t ** (p - 1.0)
    return principal_eigenpair(op).value / m


# --- 8. fold bending -------------------------------------------------------------

def check_fold(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    records = []
    tol = cfg.newton_tol
    spec_b = ProblemSpec(s=0.45, delta=1.0, beta=0.1, coeff=1.0, nonlinearity=power_nonlinearity(2.5))
    op_b = cache.operator(256, spec_b.s)
    branch_b = fold_round(trace_minimal(spec_b, op_b, TracePolicy(tol=tol)), op_b, spec_b, FoldPolicy())
    sets = [("fold-a", _BRANCH_SPEC, _folded(cache, 256, tol)), ("fold-b", spec_b, branch_b)]
    for name, spec, branch in sets:
        fold = branch.fold
        apex = max(p.lam for p in branch.points)
        lam_est = branch.fold_point().lam
        consistent = abs(apex - lam_est) <= 1e-3 * lam_est
        records.append(
            VerificationRecord(
                name,
                "normalized branch slope vanishes at the fold and the curvature is negative",
                {**_params(spec), "n": 256},
                "|lam'| <= 1e-2, lam'' < 0",
                f"lam' {fold.lambda_prime:.2e}, lam'' {fold.quadratic_coeff:.3f}, apex {apex:.6f}",
                "1e-2 and sign",
                abs(fold.lambda_prime) <= 1e-2 and fold.quadratic_coeff < 0.0 and consistent,
            )
        )
    return records


# --- 9. multiplicity --------------------------------------------------------------

def check_multiplicity(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    branch = _folded(cache, 256, cfg.newton_tol)
    lam_est = branch.fold_point().lam
    rows = multiplicity_scan(branch, [0.5 * lam_est, 0.7 * lam_est, 0.9 * lam_est])
    by_lam = {round(r["lam"] / lam_est, 1): r for r in rows}
    gap_half = by_lam[0.5]["gap"]
    complete = all(r["complete"] for r in rows)
    records = [
        VerificationRecord(
            "multiplicity-distinct",
            "two distinct solutions exist at half the extremal parameter",
            {"lam": 0.5 * lam_est, "n": 256},
            ">= 10x solver tol",
            f"gap {gap_half:.3f}" if gap_half is not None else "missing",
            f"{10 * cfg.newton_tol:.0e}",
            complete and gap_half is not None and gap_half >= 10.0 * cfg.newton_tol,
        )
    ]
    gaps = [by_lam[k]["gap"] for k in (0.5, 0.7, 0.9)]
    found = None not in gaps
    records.append(
        VerificationRecord(
            "multiplicity-gap-shrinks",
            "the two solutions approach each other toward the fold",
            {"lams": [0.5, 0.7, 0.9]},
            "strictly decreasing",
            f"gaps {['%.3f' % g for g in gaps]}" if found else "missing",
            "strict order",
            found and gaps[0] > gaps[1] > gaps[2],
        )
    )
    return records


# --- 10. asymptotic bifurcation ----------------------------------------------------

def check_asymptotic(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    branch = _folded(cache, 256, cfg.newton_tol)
    fold_sup = branch.fold_point().sup_norm
    apex_lam = max(p.lam for p in branch.points)
    probe1 = asymptotic_bifurcation_probe(branch, growth_cap=30.0, steps=400)
    lam_inf_1 = probe1.lambda_a
    sup_max_1 = probe1.table[:, 1].max()
    records = [
        VerificationRecord(
            "asymptotic-growth",
            "along the upper segment the amplitude grows 10x while lam shrinks 10x",
            {"n": 256, "cap": 30.0},
            "sup x10 and lam /10",
            f"sup {fold_sup:.3f}->{sup_max_1:.2f}, lam {apex_lam:.4f}->{lam_inf_1:.4f}",
            "factors of 10",
            sup_max_1 >= 10.0 * fold_sup and lam_inf_1 <= apex_lam / 10.0,
        )
    ]
    probe2 = asymptotic_bifurcation_probe(probe1.branch, growth_cap=300.0, steps=800)
    records.append(
        VerificationRecord(
            "asymptotic-extends",
            "the lam infimum keeps decreasing under a larger continuation budget",
            {"cap": 300.0},
            f"< {lam_inf_1:.5f}",
            f"{probe2.lambda_a:.5f}",
            "strict decrease",
            probe2.lambda_a < lam_inf_1,
        )
    )
    return records


# --- 11. derivative solves ----------------------------------------------------------

def check_sensitivity(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    spec = ProblemSpec(s=0.4, delta=0.7, beta=0.2, coeff=1.0)
    n = 192
    op = cache.operator(n, spec.s)
    lam = 0.3
    x = op.grid.nodes
    h_field = 0.5 * (1.0 + np.cos(np.pi * x))
    phi = np.cos(0.5 * np.pi * x)
    tol = 1e-11
    base = solve_A(lam, h_field, op, spec, tol=tol)
    bundle = sensitivity_bundle(lam, h_field, op, spec, directions=(phi, phi), tol=tol, u=base)
    scale = 1.0 + np.abs(h_field).max()

    def tsolve(lam_, h_):
        return solve_A(lam_, h_, op, spec, tol=tol).values

    records = []

    def err(field, approx):
        return float(np.abs(approx - field).max() / (1.0 + np.abs(field).max()))

    # first derivatives: w1 by central differences in lam (order ~2), v by forward differences in h (order ~1)
    for name, claim, derivative, difference in (
        (
            "w1",
            "lam-derivative field matches central differences of the solve",
            bundle.w1,
            lambda t: (tsolve(lam + t, h_field) - tsolve(lam - t, h_field)) / (2.0 * t),
        ),
        (
            "v",
            "forcing-direction derivative matches forward differences",
            bundle.v,
            lambda t: (tsolve(lam, h_field + t * phi) - base.values) / t,
        ),
    ):
        errors = [err(derivative, difference(t)) for t in (1e-3 * scale, 1e-4 * scale)]
        order = np.log10(errors[0] / errors[1])
        records.append(
            VerificationRecord(
                f"sensitivity-{name}",
                claim,
                {"steps": [1e-3, 1e-4]},
                "order >= 1",
                f"errs {errors[0]:.2e}/{errors[1]:.2e}, order {order:.2f}",
                "observed order >= 0.9",
                order >= 0.9 and errors[1] < errors[0],
            )
        )
    # second derivatives: central second differences at two steps, consistent decay
    second = {}
    for t in (1e-2 * scale, 1e-3 * scale):
        w11_fd = (tsolve(lam + t, h_field) - 2.0 * base.values + tsolve(lam - t, h_field)) / t ** 2
        w22_fd = (tsolve(lam, h_field + t * phi) - 2.0 * base.values + tsolve(lam, h_field - t * phi)) / t ** 2
        w12_fd = (
            tsolve(lam + t, h_field + t * phi)
            - tsolve(lam + t, h_field - t * phi)
            - tsolve(lam - t, h_field + t * phi)
            + tsolve(lam - t, h_field - t * phi)
        ) / (4.0 * t ** 2)
        second.setdefault("w11", []).append(err(bundle.w11, w11_fd))
        second.setdefault("w22", []).append(err(bundle.w22, w22_fd))
        second.setdefault("w12", []).append(err(bundle.w12, w12_fd))
    for name, errs in second.items():
        order = np.log10(errs[0] / errs[1])
        records.append(
            VerificationRecord(
                f"sensitivity-{name}",
                "second-derivative field matches second differences of the solve",
                {"steps": [1e-2, 1e-3]},
                "second-order consistent",
                f"errs {errs[0]:.2e}/{errs[1]:.2e}, order {order:.2f}",
                "decaying, order ~2",
                errs[1] < errs[0] and order >= 1.5,
            )
        )
    return records


# --- 12. small-lambda uniqueness ------------------------------------------------------

def check_uniqueness(cfg: RunConfig, cache: _Cache) -> list[VerificationRecord]:
    branch = _traced(cache, 256, cfg.newton_tol)
    op = cache.operator(256, _BRANCH_SPEC.s)
    lam = 1e-3 * branch.fold_point().lam
    report = uniqueness_probe(lam, _BRANCH_SPEC, op, trials=10, tol=cfg.newton_tol, seed=cfg.seed)
    outcomes = [t["outcome"] for t in report.trials]
    return [
        VerificationRecord(
            "uniqueness-small-lambda",
            "ten multistart solves below the decreasing-window cap all return the minimal solution",
            {"lam": lam, "trials": 10, "seed": cfg.seed},
            "unique",
            f"{report.verdict} ({outcomes.count('minimal')}/10 minimal)",
            "verdict",
            report.verdict == "unique",
        )
    ]


def _params(spec: ProblemSpec) -> dict:
    out = {"s": spec.s, "delta": spec.delta, "beta": spec.beta}
    if spec.nonlinearity.kind == "power":
        out["p"] = spec.nonlinearity.p
    return out


SUITES = {
    "discretization": check_discretization,
    "comparison": check_comparison,
    "scaling": check_scaling,
    "rates": check_rates,
    "hs-threshold": check_hs_threshold,
    "holder": check_holder,
    "branch": check_branch,
    "fold": check_fold,
    "multiplicity": check_multiplicity,
    "asymptotic": check_asymptotic,
    "sensitivity": check_sensitivity,
    "uniqueness": check_uniqueness,
}


def verify_suite(cfg: RunConfig, suites: list[str] | None = None) -> VerificationReport:
    """Run the requested suites (default: the config's `suites` field); ValueError when none is named."""
    if suites is None:
        suites = [name.strip() for name in cfg.suites.split(",") if name.strip()]
    if not suites:
        raise ValueError(f"no suite selected; choose from {sorted(SUITES)} or 'all'")
    cache = _Cache()
    report = VerificationReport()
    for name in (one for name in suites for one in (SUITES if name == "all" else [name])):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        fn = SUITES[name]
        try:
            report.records.extend(fn(cfg, cache))
        except Exception as exc:  # a failed module run is a failed record, not a crash
            report.records.append(
                VerificationRecord(
                    f"{fn.__name__}-error",
                    "check executed without raising",
                    {},
                    "completion",
                    f"{type(exc).__name__}: {exc}",
                    "no exception",
                    False,
                )
            )
    return report
