"""Error and disturbance for the pointer model, with the inequality suite.

The error operator N(t) = X(t) - x and disturbance operator D(t) = p(t) - p
have exact closed forms under the pointer coupling (N(t) = X + (t-1)x,
D(t) = -t P in terms of initial operators), so every moment reduces to
initial-state moments of a product state.  The reports here are computed
that way, with the operator expressions taken from the symbolic engine
rather than re-derived by hand; a 4D propagation cross-checks one
configuration in the test suite.  Every operator is an algebra.OperatorExpr;
each state's monomials are evaluated together by phasespace._expectations,
one density per representation.

Spreads of the conjugate variables obey the Kennard-Robertson bound, and
the pi_x-disturbance obeys the hbar-independent product inequality

    epsilon * eta_pi_x + epsilon * sigma(pi_x) + sigma(x) * eta_pi_x >= 1/2.

An EDReport holds only measured moments; its slacks, the two sign-trivial
products and the zero-error claim are properties computed from them, and
check_trivial and unbiased_scan read those properties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra
from .phasespace import PhaseState, _expectations, sigma
from .stateio import write_csv

_TOL = 1e-9
_TIGHT_TOL = 1e-12


def _local(exponents):
    """The monomial 1 * x^a p^b pi_x^c pi_p^d of ``exponents`` (a, b, c, d)."""
    return algebra.OperatorExpr({exponents + (0,) * 8: (Fraction(1), Fraction(0))})


def expectation_of_expr(expr, target: PhaseState, device: PhaseState = None) -> complex:
    """<expr> on a product state, term by term.

    ``expr`` must be free of formal scalars and the Planck pair.  The
    exponent key of each monomial splits into target slots 0-3 and device
    slots 4-7; the device factors move to slots 0-3, since a standalone
    device state names its axes as a target's (X -> x, pi_P -> pi_p).  Each
    part is evaluated on its own state and the two multiplied
    (product-state factorization).
    """
    return _product_expectations([expr], target, device)[0]


def _product_expectations(exprs, target, device=None):
    """expectation_of_expr of each of ``exprs``.

    Each state's distinct monomials go to phasespace._expectations in one
    call, which takes one density per representation and gives each
    monomial the bits of its own expectation; every expression then adds up
    its terms in its own order.
    """
    parts = ({}, {})  # per state: the exponents of each monomial, in first-seen order
    for expr in exprs:
        for key in expr.terms:
            if any(key[8:]):
                raise ValueError("expression still contains formal scalars or the Planck pair")
            if any(key[4:8]) and device is None:
                raise ValueError("expression references device operators, no device given")
            for part, exponents in zip(parts, (key[:4], key[4:8])):
                if any(exponents):
                    part[exponents] = None
    values = [dict(zip(part, _expectations(state, [_local(e) for e in part])))
              for part, state in zip(parts, (target, device))]
    totals = []
    for expr in exprs:
        total = 0.0 + 0.0j
        for key, coeff in expr.terms.items():
            value = complex(float(coeff[0]), float(coeff[1]))
            for part, exponents in zip(values, (key[:4], key[4:8])):
                if any(exponents):
                    value *= part[exponents]
            total += value
        totals.append(total)
    return totals


@functools.lru_cache(maxsize=128)
def _pointer_algebra(t):
    """Exact Heisenberg forms of N, D and the pi_x disturbance at time t,
    then N^2, D^2, D_pi^2 and [N, D].

    None of them depends on the state, so the members of an ensemble at
    one t share a single derivation; OperatorExpr is immutable.
    """
    l = algebra.liouvillian_of(
        algebra.multiply(algebra.x, algebra.P), subsystems=("target", "device")
    )
    t_frac = Fraction(t)
    n_op = algebra.heisenberg_evolve(algebra.X, l, t=t_frac, term_bound=4) - algebra.x
    d_op = algebra.heisenberg_evolve(algebra.p, l, t=t_frac, term_bound=4) - algebra.p
    d_pix = algebra.heisenberg_evolve(algebra.pi_x, l, t=t_frac, term_bound=4) - algebra.pi_x
    return (n_op, d_op, algebra.multiply(n_op, n_op), algebra.multiply(d_op, d_op),
            algebra.multiply(d_pix, d_pix), algebra.commutator(n_op, d_op))


@dataclass
class EDReport:
    """Error, disturbances, spreads and mean offsets at one time.

    The fields are measured; the bounds are properties derived from them,
    so each inequality is written here once: ``trivial_bounds`` (the two
    sign-trivial products), ``slack_trivial``, ``slack_ozawa_like`` (the
    hbar-independent product bound minus 1/2) and
    ``zero_error_claim_holds``.
    """

    t: float
    epsilon: float
    eta: float
    eta_pi_x: float
    sigma_x: float
    sigma_p: float
    sigma_pi_x: float
    comm_ND: complex
    unbiased: bool
    mean_error: float = 0.0
    mean_disturbance: float = 0.0

    CSV_FIELDS = (
        "t", "epsilon", "eta", "eta_pi_x", "sigma_x", "sigma_p", "sigma_pi_x",
        "slack_trivial", "slack_ozawa_like", "unbiased",
    )

    @property
    def trivial_bounds(self):
        """(eps * eta, eps * sigma(p) + eta * sigma(x)); both are >= 0."""
        return (self.epsilon * self.eta,
                self.epsilon * self.sigma_p + self.eta * self.sigma_x)

    @property
    def slack_trivial(self):
        return min(self.trivial_bounds)

    @property
    def slack_ozawa_like(self):
        return (self.epsilon * self.eta_pi_x + self.epsilon * self.sigma_pi_x
                + self.sigma_x * self.eta_pi_x - 0.5)

    @property
    def zero_error_claim_holds(self):
        """The stronger claim that the unbiased condition switches the
        error and disturbance off; true only for point-like states."""
        return (self.unbiased and self.epsilon <= 1e-8 and self.eta <= 1e-8
                and self.sigma_x <= 1e-8 and self.sigma_p <= 1e-8)


def reports_to_csv(reports, path):
    return write_csv(path, EDReport.CSV_FIELDS,
                     ([getattr(r, name) for name in EDReport.CSV_FIELDS] for r in reports))


def error_disturbance(target: PhaseState, device: PhaseState, t) -> EDReport:
    """Moments of the error and disturbance operators on a product state.

    All second moments come from the exact Heisenberg closed forms
    evaluated against the initial states; nothing is propagated.  They,
    the target's spreads and both states' means are evaluated together:
    one density per state and representation.
    """
    t = float(t)
    spreads = [m for g in (algebra.x, algebra.p, algebra.pi_x) for m in (g, algebra.multiply(g, g))]
    (n_mean, d_mean, n_sq, d_sq, d_pix_sq, comm_nd, *moments) = _product_expectations(
        [*_pointer_algebra(t), *spreads, algebra.X, algebra.P], target, device)
    x1, x2, p1, p2, pix1, pix2, mean_X, mean_P = (m.real for m in moments)

    def spread(m1, m2):
        return math.sqrt(max(m2 - m1 * m1, 0.0))

    unbiased = abs(mean_X - (1.0 - t) * x1) <= _TOL and abs(mean_P) <= _TOL
    return EDReport(
        t=t,
        epsilon=math.sqrt(max(n_sq.real, 0.0)),
        eta=math.sqrt(max(d_sq.real, 0.0)),
        eta_pi_x=math.sqrt(max(d_pix_sq.real, 0.0)),
        sigma_x=spread(x1, x2),
        sigma_p=spread(p1, p2),
        sigma_pi_x=spread(pix1, pix2),
        comm_ND=comm_nd,
        unbiased=unbiased,
        mean_error=n_mean.real,
        mean_disturbance=d_mean.real,
    )


@dataclass(frozen=True)
class TrivialCheck:
    product_holds: bool
    sum_holds: bool
    product_is_tight: bool
    sum_is_tight: bool


def check_trivial(report: EDReport) -> TrivialCheck:
    """The two sign-trivial inequalities eps*eta >= 0, eps*sig(p)+eta*sig(x) >= 0.

    Both hold by non-negativity; the check reports where equality is
    attained (error or disturbance switched off).
    """
    prod, mixed = report.trivial_bounds
    return TrivialCheck(
        product_holds=prod >= -_TIGHT_TOL,
        sum_holds=mixed >= -_TIGHT_TOL,
        product_is_tight=abs(prod) <= _TIGHT_TOL,
        sum_is_tight=abs(mixed) <= _TIGHT_TOL,
    )


def kennard_robertson(s: PhaseState, a, b):
    """(lhs, rhs, holds) for sigma(a)*sigma(b) >= |<[a,b]>| / 2.

    ``a`` and ``b`` are algebra.OperatorExpr or text that algebra.parse
    reads.  The commutator is taken symbolically and then evaluated on the
    state.
    """
    a, b = algebra.parse(a), algebra.parse(b)
    rhs = 0.5 * abs(expectation_of_expr(algebra.commutator(a, b), s))
    lhs = sigma(s, a) * sigma(s, b)
    return lhs, rhs, lhs >= rhs - _TOL


def unbiased_scan(target: PhaseState, device: PhaseState, t_values) -> list:
    """The error/disturbance report at each time, checked against the
    distributional unbiased condition.

    Where the condition holds, the mean error and disturbance vanish (this
    is asserted).  Each report's ``zero_error_claim_holds`` records the
    stronger claim that the error and disturbance magnitudes themselves
    vanish there; it is true only for point-like states and is reported,
    not enforced.
    """
    reports = [error_disturbance(target, device, t) for t in t_values]
    for rep in reports:
        if rep.unbiased and (abs(rep.mean_error) > 1e-8 or abs(rep.mean_disturbance) > 1e-8):
            raise AssertionError(
                "unbiased condition must force vanishing mean error/disturbance"
            )
    return reports
