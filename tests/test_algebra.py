import time
from fractions import Fraction

import pytest

from kvnlab import algebra as al
from kvnlab.algebra import OperatorExpr
from kvnlab.errors import IllegalHamiltonian, NonTerminatingSeries

I = OperatorExpr.scalar(0, 1)
GENS = [OperatorExpr.gen(n) for n in al.GENERATORS]


def test_commutation_table():
    conjugate_pairs = {("x", "pi_x"), ("p", "pi_p"), ("X", "pi_X"),
                       ("P", "pi_P"), ("h_op", "I_op")}
    for i, a in enumerate(al.GENERATORS):
        for b in al.GENERATORS[i + 1:]:
            c = al.commutator(OperatorExpr.gen(a), OperatorExpr.gen(b))
            if (a, b) in conjugate_pairs:
                assert c == I, f"[{a},{b}] should be i"
            else:
                assert c.is_zero(), f"[{a},{b}] should vanish"


def test_multiply_reordering_produces_commutator_term():
    left = al.multiply(al.x, al.pi_x)
    right = al.multiply(al.pi_x, al.x)
    assert left - right == I


def test_multiply_commuting_pair_has_no_extra_term():
    prod = al.multiply(al.x, al.p)
    assert prod == al.multiply(al.p, al.x)
    assert len(prod.terms) == 1


def test_multiply_identity():
    one = OperatorExpr.one()
    expr = al.multiply(al.x, al.pi_p) + al.p.scaled(Fraction(3, 7))
    assert al.multiply(one, expr) == expr
    assert al.multiply(expr, one) == expr


def _random_expr(rng, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = [0] * 12
        for _ in range(rng.randrange(0, max_deg + 1)):
            key[rng.randrange(0, 10)] += 1
        coeff = (Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        if coeff[0] or coeff[1]:
            terms[tuple(key)] = coeff
    return OperatorExpr(terms)


def test_multiply_is_associative_randomized():
    import random

    rng = random.Random(20240817)
    for _ in range(30):
        a, b, c = (_random_expr(rng, max_deg=4) for _ in range(3))
        assert al.multiply(al.multiply(a, b), c) == al.multiply(a, al.multiply(b, c))


def test_commutator_bilinear_antisymmetric_jacobi():
    import random

    rng = random.Random(99)
    for _ in range(25):
        a, b, c = (_random_expr(rng, max_deg=2) for _ in range(3))
        assert al.commutator(a, b) == -al.commutator(b, a)
        assert al.commutator(a + b, c) == al.commutator(a, c) + al.commutator(b, c)
        jacobi = (
            al.commutator(a, al.commutator(b, c))
            + al.commutator(b, al.commutator(c, a))
            + al.commutator(c, al.commutator(a, b))
        )
        assert jacobi.is_zero()


def test_commutator_self_vanishes():
    expr = al.multiply(al.x, al.pi_x) + al.P.scaled(2)
    assert al.commutator(expr, expr).is_zero()


def test_deformed_pair_ccr_only_for_opposite_signs():
    xh, ph = al.deformed_pair("half_minus_plus")
    assert al.commutator(xh, ph) == al.multiply(al.hbar, I)
    # the same-sign conventions commute instead
    for conv in ("half_plus_plus", "full_appendixE"):
        xh, ph = al.deformed_pair(conv)
        assert al.commutator(xh, ph).is_zero()


def test_adjoint_conjugate_planck_generators():
    # e^{-A} x e^{A} with A = h*pi_p*pi_x picks up an explicit i; the series
    # terminates after one nested commutator (term_bound=2 proves ad^2 = 0)
    A = al.multiply(al.h_op, al.multiply(al.pi_p, al.pi_x))
    assert al.adjoint_conjugate(-A, al.x, 2) == al.x + al.multiply(al.h_op, al.pi_p).scaled((0, 1))
    assert al.adjoint_conjugate(-A, al.p, 2) == al.p + al.multiply(al.h_op, al.pi_x).scaled((0, 1))


def test_adjoint_conjugate_by_zero_is_identity():
    b = al.multiply(al.x, al.p) + al.pi_X
    assert al.adjoint_conjugate(OperatorExpr.zero(), b, 1) == b


def test_adjoint_conjugate_non_terminating():
    with pytest.raises(NonTerminatingSeries):
        al.adjoint_conjugate(al.multiply(al.x, al.pi_x), al.x, 6)


def test_liouvillian_free_particle():
    h = al.multiply(al.p, al.p).scaled(Fraction(1, 2))
    assert al.liouvillian_of(h) == al.multiply(al.p, al.pi_x)


def test_liouvillian_harmonic():
    h = al.multiply(al.p, al.p).scaled(Fraction(1, 2)) + al.multiply(al.x, al.x).scaled(Fraction(1, 2))
    expected = al.multiply(al.p, al.pi_x) - al.multiply(al.x, al.pi_p)
    assert al.liouvillian_of(h) == expected


def test_liouvillian_pointer_coupling_follows_formula():
    # dH/dP pi_X - dH/dx pi_p for H = x*P
    h = al.multiply(al.x, al.P)
    expected = al.multiply(al.x, al.pi_X) - al.multiply(al.P, al.pi_p)
    assert al.liouvillian_of(h, subsystems=("target", "device")) == expected


def test_liouvillian_constant_is_zero():
    assert al.liouvillian_of(OperatorExpr.scalar(5)).is_zero()


def test_liouvillian_rejects_conjugate_momenta():
    with pytest.raises(IllegalHamiltonian):
        al.liouvillian_of(al.multiply(al.p, al.pi_x))
    with pytest.raises(IllegalHamiltonian):
        al.liouvillian_of(al.h_op)
    with pytest.raises(IllegalHamiltonian):
        al.liouvillian_of(al.multiply(al.x, al.P))  # device not selected


def test_heisenberg_closed_forms_for_pointer_coupling():
    l = al.liouvillian_of(al.multiply(al.x, al.P), subsystems=("target", "device"))
    t = al.t_sym
    expected = {
        "x": al.x,
        "p": al.p - al.multiply(t, al.P),
        "X": al.X + al.multiply(t, al.x),
        "P": al.P,
        "pi_x": al.pi_x - al.multiply(t, al.pi_X),
        "pi_p": al.pi_p,
        "pi_X": al.pi_X,
        "pi_P": al.pi_P + al.multiply(t, al.pi_p),
    }
    for name, rhs in expected.items():
        assert al.heisenberg_evolve(OperatorExpr.gen(name), l, term_bound=4) == rhs


def test_heisenberg_numeric_time():
    l = al.liouvillian_of(al.multiply(al.x, al.P), subsystems=("target", "device"))
    evolved = al.heisenberg_evolve(al.p, l, t=Fraction(3, 2), term_bound=4)
    assert evolved == al.p - al.P.scaled(Fraction(3, 2))


def test_heisenberg_non_terminating():
    l = al.multiply(al.x, al.multiply(al.pi_x, al.pi_x))
    with pytest.raises(NonTerminatingSeries):
        al.heisenberg_evolve(al.pi_x, l, term_bound=3)


def test_heisenberg_at_time_zero_is_identity():
    # the series for this L never terminates, but at t = 0 every term vanishes
    l = al.multiply(al.x, al.multiply(al.pi_x, al.pi_x))
    assert al.heisenberg_evolve(al.pi_x, l, t=0, term_bound=3) == al.pi_x


def test_hbar_deform_conventions():
    half = Fraction(1, 2)
    assert al.hbar_deform(al.x, "half_minus_plus") == al.x - al.multiply(al.hbar, al.pi_p).scaled(half)
    assert al.hbar_deform(al.x, "half_plus_plus") == al.x + al.multiply(al.hbar, al.pi_p).scaled(half)
    assert al.hbar_deform(al.x, "full_appendixE") == al.x + al.multiply(al.hbar, al.pi_p)

    h = al.multiply(al.p, al.p).scaled(half)
    deformed = al.hbar_deform(h, "half_plus_plus")
    ph = al.p + al.multiply(al.hbar, al.pi_x).scaled(half)
    assert deformed == al.multiply(ph, ph).scaled(half)


def test_hbar_deform_classical_limit():
    h = al.multiply(al.x, al.p) + al.multiply(al.p, al.p).scaled(Fraction(1, 3))
    for conv in al.DEFORM_CONVENTIONS:
        assert al.hbar_deform(h, conv).subs_scalar("hbar", 0) == h


def test_hbar_deform_preserves_mixed_term_ordering():
    # x_h and p_h do not commute under the opposite-sign convention, so the
    # substituted x*p term must keep its factor order
    deformed = al.hbar_deform(al.multiply(al.x, al.p), "half_minus_plus")
    xh, ph = al.deformed_pair("half_minus_plus")
    assert deformed == al.multiply(xh, ph)
    assert deformed != al.multiply(ph, xh)


def test_identity_suite_all_pass_quickly():
    start = time.monotonic()
    results = al.verify_identity_suite()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert len(results) >= 20
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual!r}"
        assert r.residual_term_count == 0


def test_identity_suite_empty_selection():
    assert al.verify_identity_suite(names=()) == []


def test_identity_suite_name_filter():
    picked = al.verify_identity_suite(names=("deformed_pair_ccr",))
    assert [r.name for r in picked] == ["deformed_pair_ccr"]


def test_scalar_substitution():
    expr = al.multiply(al.t_sym, al.multiply(al.t_sym, al.x)) + al.multiply(al.hbar, al.p)
    at2 = expr.subs_scalar("t", 2)
    assert at2 == al.x.scaled(4) + al.multiply(al.hbar, al.p)
    with pytest.raises(ValueError):
        expr.subs_scalar("x", 1)


def test_parse_multiplies_factors_in_the_order_written():
    assert al.parse("2*x^2 - x*pi_p") == 2 * al.x * al.x - al.x * al.pi_p
    assert al.parse("pi_x*x") == al.x * al.pi_x - I
    assert al.parse(" x ** 2 + 0.5 ") == al.x * al.x + Fraction(1, 2)
    assert al.parse("-hbar*t") == -(al.hbar * al.t_sym)
    expr = al.x * al.pi_p
    assert al.parse(expr) is expr
    for bad in ("", "x +", "y", "x*-2", "2^2", "x^p", "1e999*x"):
        with pytest.raises(ValueError):
            al.parse(bad)
    with pytest.raises(TypeError):
        al.parse(2)
