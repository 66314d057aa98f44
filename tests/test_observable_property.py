"""Property test: text and OperatorExpr are one observable.

Random real polynomials of degree <= 2 in mutually commuting target
generators, with coefficients whose repr carries an exponent, are rendered
as text; algebra.parse must read back the expression built directly, and
expectation and variance must give the same bits for both forms.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnlab import algebra as al
from kvnlab import phasespace as ps
from kvnlab.errors import UnsupportedObservable

_GRID = ps.Grid2D(32, 32, -8.0, 8.0, -8.0, 8.0)
# a phase gives the state nonzero pi_x and pi_p means
_STATE = ps.PhaseState(_GRID, "xp", ps.make_gaussian(_GRID, 0.5, -0.4, 1.1, 1.3).amp * np.exp(
    1j * (0.7 * _GRID.x()[:, None] - 0.3 * _GRID.p()[None, :])))

# floats below 1e-4 or from 1e16 up have a repr with an exponent
_COEFF = st.one_of(st.floats(1e-12, 9e-5), st.floats(1e16, 1e20))


@st.composite
def _polynomials(draw):
    """(text, expression) of one random polynomial."""
    names = (draw(st.sampled_from(("x", "pi_x"))), draw(st.sampled_from(("p", "pi_p"))))
    degree = draw(st.integers(1, 2))
    text, expr = "", al.OperatorExpr.zero()
    for k in range(draw(st.integers(1, 4))):
        c, negative = draw(_COEFF), draw(st.booleans())
        powers = draw(st.tuples(st.integers(0, degree), st.integers(0, degree))
                      .filter(lambda ab: sum(ab) <= degree))
        factors = [n if e == 1 else f"{n}{draw(st.sampled_from(('^', '**')))}{e}"
                   for n, e in zip(names, powers) if e]
        factors.insert(draw(st.integers(0, len(factors))), repr(c))
        text += (" - " if negative else " + ") if k else "-" if negative else ""
        text += "*".join(factors)
        term = al.OperatorExpr.scalar(-Fraction(c) if negative else Fraction(c))
        for n, e in zip(names, powers):
            term = al.multiply(term, al.power(al.OperatorExpr.gen(n), e))
        expr = expr + term
    return text, expr


def _outcome(f, obs):
    try:
        return f(_STATE, obs)
    except UnsupportedObservable as err:  # a square of degree 4 for variance
        return type(err)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_polynomials())
def test_text_and_expression_are_one_observable(poly):
    text, expr = poly
    assert "e" in text
    assert al.parse(text) == expr
    assert ps.expectation(_STATE, text) == ps.expectation(_STATE, expr)
    assert _outcome(ps.variance, text) == _outcome(ps.variance, expr)
