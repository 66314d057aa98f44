"""Exact operator algebra over the canonical phase-space generators.

Ten generators span the algebra: the target quadruple ``x, p, pi_x, pi_p``,
the device quadruple ``X, P, pi_X, pi_P``, and the Planck pair ``h_op, I_op``.
The only non-vanishing commutators are the five conjugate pairs,

    [x, pi_x] = [p, pi_p] = [X, pi_X] = [P, pi_P] = [h_op, I_op] = i,

everything else commutes.  Expressions are stored as normal-ordered
polynomials (each coordinate to the left of its conjugate) with exact
Gaussian-rational coefficients; ``hbar`` and ``t`` are formal commuting
scalars carried as extra exponent slots.  Every operation here is exact --
no floating point enters any identity check.  ``parse`` is the one reader
of observables, such as "2*x^2 - x*pi_p", for phasespace and uncertainty.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import comb, isinf

from .errors import IllegalHamiltonian, NonTerminatingSeries

GENERATORS = ("x", "p", "pi_x", "pi_p", "X", "P", "pi_X", "pi_P", "h_op", "I_op")
SCALARS = ("hbar", "t")
_NAMES = GENERATORS + SCALARS
_NSLOTS = len(_NAMES)
_SLOT = {name: k for k, name in enumerate(_NAMES)}

# (coordinate slot, conjugate slot) for each canonical pair
_PAIRS = ((0, 2), (1, 3), (4, 6), (5, 7), (8, 9))

_ZERO_KEY = (0,) * _NSLOTS

# powers of (-i) as (re, im) Gaussian rationals, indexed mod 4
_NEG_I_POW = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
)


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _as_coeff(value):
    """Coerce int/Fraction/complex into an exact (re, im) pair."""
    if isinstance(value, tuple):
        return (Fraction(value[0]), Fraction(value[1]))
    if isinstance(value, complex):
        return (Fraction(value.real), Fraction(value.imag))
    return (Fraction(value), Fraction(0))


def _accumulate(terms, key, coeff):
    """terms[key] += coeff, dropping the key where the sum is zero."""
    acc = _cadd(terms.get(key, (Fraction(0), Fraction(0))), coeff)
    if acc[0] or acc[1]:
        terms[key] = acc
    else:
        terms.pop(key, None)


def _falling(n, k):
    out = 1
    for j in range(k):
        out *= n - j
    return out


class OperatorExpr:
    """Normal-ordered polynomial over the canonical generators.

    Immutable; ``terms`` maps exponent tuples to nonzero (re, im)
    Fraction pairs.  Zero is the empty mapping.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if coeff[0] or coeff[1]:
                    clean[key] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({_ZERO_KEY: (Fraction(1), Fraction(0))})

    @classmethod
    def gen(cls, name):
        key = [0] * _NSLOTS
        key[_SLOT[name]] = 1
        return cls({tuple(key): (Fraction(1), Fraction(0))})

    @classmethod
    def scalar(cls, re, im=0):
        re, im = Fraction(re), Fraction(im)
        if re == 0 and im == 0:
            return cls()
        return cls({_ZERO_KEY: (re, im)})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(terms, key, coeff)
        return OperatorExpr(terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return OperatorExpr({k: (-c[0], -c[1]) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(_coerce(other).__neg__())

    def __rsub__(self, other):
        return _coerce(other).__add__(self.__neg__())

    def __mul__(self, other):
        other = _coerce(other)
        return multiply(self, other)

    def __rmul__(self, other):
        return _coerce(other).__mul__(self)

    def scaled(self, value):
        """Multiply every coefficient by an exact scalar."""
        c = _as_coeff(value)
        return OperatorExpr({k: _cmul(coeff, c) for k, coeff in self.terms.items()})

    # -- scalar substitution ----------------------------------------------

    def subs_scalar(self, name, value):
        """Substitute an exact numeric value for a formal scalar (hbar or t)."""
        slot = _SLOT[name]
        if slot < 10:
            raise ValueError(f"{name} is a generator, not a formal scalar")
        value = Fraction(value)
        terms = {}
        for key, coeff in self.terms.items():
            e = key[slot]
            if e:
                coeff = _cmul(coeff, (value**e, Fraction(0)))
                key = key[:slot] + (0,) + key[slot + 1 :]
            _accumulate(terms, key, coeff)
        return OperatorExpr(terms)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            re, im = self.terms[key]
            factors = [n if e == 1 else f"{n}^{e}" for n, e in monomial_factors(key)]
            coeff = _fmt_coeff(re, im, bool(factors))
            body = "*".join(factors)
            if coeff in ("", "-"):
                parts.append(coeff + (body or "1"))
            else:
                parts.append(f"{coeff}*{body}" if body else coeff)
        return " + ".join(parts).replace("+ -", "- ")


def _fmt_coeff(re, im, has_factors):
    if im == 0:
        if re == 1 and has_factors:
            return ""
        if re == -1 and has_factors:
            return "-"
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def monomial_factors(key):
    """The (name, power) factors of a monomial's exponent key, in slot order."""
    return tuple((_NAMES[s], e) for s, e in enumerate(key) if e)


def _coerce(value):
    if isinstance(value, OperatorExpr):
        return value
    return OperatorExpr({_ZERO_KEY: _as_coeff(value)})


# module-level generator singletons
x = OperatorExpr.gen("x")
p = OperatorExpr.gen("p")
pi_x = OperatorExpr.gen("pi_x")
pi_p = OperatorExpr.gen("pi_p")
X = OperatorExpr.gen("X")
P = OperatorExpr.gen("P")
pi_X = OperatorExpr.gen("pi_X")
pi_P = OperatorExpr.gen("pi_P")
h_op = OperatorExpr.gen("h_op")
I_op = OperatorExpr.gen("I_op")
hbar = OperatorExpr.gen("hbar")
t_sym = OperatorExpr.gen("t")
IUNIT = OperatorExpr.scalar(0, 1)
ONE = OperatorExpr.one()


def multiply(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """Normal-ordered product of two expressions.

    Reordering follows the Weyl rule for each conjugate pair with
    [q, pi] = i:

        pi^m q^n = sum_j  C(m,j) * n!/(n-j)! * (-i)^j * q^(n-j) pi^(m-j)

    Distinct pairs commute, so the correction factors multiply independently.
    """
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            base = _cmul(c1, c2)
            # options per pair: (j, combinatorial factor)
            pair_opts = []
            for q_slot, c_slot in _PAIRS:
                m, n = k1[c_slot], k2[q_slot]
                if m and n:
                    pair_opts.append(
                        [(j, comb(m, j) * _falling(n, j)) for j in range(min(m, n) + 1)]
                    )
                else:
                    pair_opts.append([(0, 1)])
            for combo in _cartesian(*pair_opts):
                total_j = 0
                factor = 1
                for j, f in combo:
                    total_j += j
                    factor *= f
                key = [e1 + e2 for e1, e2 in zip(k1, k2)]
                for (q_slot, c_slot), (j, _) in zip(_PAIRS, combo):
                    key[q_slot] -= j
                    key[c_slot] -= j
                coeff = _cmul(base, _NEG_I_POW[total_j % 4])
                if factor != 1:
                    coeff = (coeff[0] * factor, coeff[1] * factor)
                _accumulate(out, tuple(key), coeff)
    return OperatorExpr(out)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """[a, b] = a*b - b*a in normal order."""
    return multiply(a, b) - multiply(b, a)


def adjoint_conjugate(a: OperatorExpr, b: OperatorExpr, term_bound: int) -> OperatorExpr:
    """Exact evaluation of e^a b e^(-a) = sum_n ad_a^n(b) / n!.

    Raises NonTerminatingSeries if the nested commutator has not vanished
    after ``term_bound`` applications.
    """
    result = b
    cur = b
    n_fact = 1
    for n in range(1, term_bound + 1):
        cur = commutator(a, cur)
        if cur.is_zero():
            return result
        if n == term_bound:
            raise NonTerminatingSeries(
                f"ad^{term_bound} is still nonzero ({len(cur.terms)} terms)"
            )
        n_fact *= n
        result = result + cur.scaled(Fraction(1, n_fact))
    return result


def power(a: OperatorExpr, n: int) -> OperatorExpr:
    out = OperatorExpr.one()
    for _ in range(n):
        out = multiply(out, a)
    return out


# a sign starts a term unless it is the sign of a number's exponent, as in 1e-3
_TERM_SIGN = _re.compile(r"(?<![\d.][eE])([+-])")
_FACTOR = _re.compile(r"([A-Za-z_]+)(?:\^(\d+))?|((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def parse(spec) -> OperatorExpr:
    """An observable as an OperatorExpr; one is returned unchanged.

    Text such as "2*x^2 - x*pi_p" is a sum of terms, each a product of
    factors multiplied in the order they are written.  A factor is a
    generator or formal scalar, raised to an integer power by ``^`` or
    ``**``, or a number, which may carry an exponent (``1e-3``) and becomes
    the exact Fraction of the float it reads as.
    """
    if isinstance(spec, OperatorExpr):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot interpret observable spec {spec!r}")
    text = "".join(spec.split()).replace("**", "^")
    parts = _TERM_SIGN.split(text if text[:1] in ("+", "-") else "+" + text)
    out = OperatorExpr.zero()
    for sign, chunk in zip(parts[1::2], parts[2::2]):
        term = OperatorExpr.scalar(-1 if sign == "-" else 1)
        for factor in chunk.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None or (m[1] and m[1] not in _SLOT) or (m[3] and isinf(float(m[3]))):
                raise ValueError(f"cannot parse observable factor {factor!r} in {spec!r}")
            if m[3]:
                term = term.scaled(Fraction(float(m[3])))
            else:
                term = multiply(term, power(OperatorExpr.gen(m[1]), int(m[2] or 1)))
        out = out + term
    return out


def differentiate(a: OperatorExpr, name: str) -> OperatorExpr:
    """Formal partial derivative with respect to one generator or scalar."""
    slot = _SLOT[name]
    terms = {}
    for key, coeff in a.terms.items():
        e = key[slot]
        if not e:
            continue
        _accumulate(terms, key[:slot] + (e - 1,) + key[slot + 1 :], (coeff[0] * e, coeff[1] * e))
    return OperatorExpr(terms)


_DEVICE_COORDS = (_SLOT["X"], _SLOT["P"])
_FORBIDDEN_IN_H = tuple(_SLOT[n] for n in ("pi_x", "pi_p", "pi_X", "pi_P", "h_op", "I_op"))


def _check_hamiltonian(h: OperatorExpr, allow_device: bool):
    for key in h.terms:
        for slot in _FORBIDDEN_IN_H:
            if key[slot]:
                raise IllegalHamiltonian(
                    f"Hamiltonian contains {_NAMES[slot]}; only coordinates are allowed"
                )
        if not allow_device:
            for slot in _DEVICE_COORDS:
                if key[slot]:
                    raise IllegalHamiltonian(
                        "Hamiltonian references device coordinates but the device "
                        "subsystem was not selected"
                    )


def liouvillian_of(h: OperatorExpr, subsystems=("target",)) -> OperatorExpr:
    """Formal Liouvillian of a coordinate polynomial Hamiltonian.

    For the target subsystem the generator is dH/dp * pi_x - dH/dx * pi_p;
    selecting the device adds dH/dP * pi_X - dH/dX * pi_P.  Partial
    derivatives are formal polynomial derivatives.
    """
    subsystems = set(subsystems)
    unknown = subsystems - {"target", "device"}
    if unknown:
        raise ValueError(f"unknown subsystem(s): {sorted(unknown)}")
    _check_hamiltonian(h, allow_device="device" in subsystems)
    out = OperatorExpr.zero()
    if "target" in subsystems:
        out = out + multiply(differentiate(h, "p"), pi_x) - multiply(differentiate(h, "x"), pi_p)
    if "device" in subsystems:
        out = out + multiply(differentiate(h, "P"), pi_X) - multiply(differentiate(h, "X"), pi_P)
    return out


def heisenberg_evolve(a: OperatorExpr, l: OperatorExpr, t=None, term_bound: int = 8) -> OperatorExpr:
    """Heisenberg-picture evolution a(t) = e^{+iLt} a e^{-iLt}.

    This is the adjoint orbit generated by the evolution equation
    i d/dt |psi> = L |psi| with U = e^{-iLt}, i.e.

        a(t) = sum_n (i t)^n / n! * ad_L^n(a),

    evaluated exactly as adjoint_conjugate(i*t*L, a); the series must
    terminate within ``term_bound`` nested commutators.  ``t`` defaults to
    the formal scalar, any exact number may be substituted instead (t = 0
    returns ``a``).
    """
    if t is None:
        t = t_sym
    elif not isinstance(t, OperatorExpr):
        t = OperatorExpr.scalar(Fraction(t))
    return adjoint_conjugate(multiply(t, l).scaled((0, 1)), a, term_bound)


DEFORM_CONVENTIONS = {
    "half_minus_plus": (Fraction(-1, 2), Fraction(1, 2)),
    "half_plus_plus": (Fraction(1, 2), Fraction(1, 2)),
    "full_appendixE": (Fraction(1), Fraction(1)),
}


def deformed_pair(convention: str):
    """The deformed (x_h, p_h) pair for a sign convention.

    x_h = x + a*hbar*pi_p and p_h = p + b*hbar*pi_x with (a, b) fixed by the
    convention.
    """
    try:
        a, b = DEFORM_CONVENTIONS[convention]
    except KeyError:
        raise ValueError(f"unknown deformation convention: {convention!r}") from None
    x_h = x + multiply(hbar, pi_p).scaled(a)
    p_h = p + multiply(hbar, pi_x).scaled(b)
    return x_h, p_h


def hbar_deform(h: OperatorExpr, convention: str) -> OperatorExpr:
    """Substitute (x, p) -> (x_h, p_h) in a target Hamiltonian and normal-order.

    All three conventions found in the source material are exposed; they
    genuinely disagree, so none is privileged here.
    """
    _check_hamiltonian(h, allow_device=False)
    x_h, p_h = deformed_pair(convention)
    sx, sp = _SLOT["x"], _SLOT["p"]
    out = OperatorExpr.zero()
    for key, coeff in h.terms.items():
        mono = OperatorExpr({key[:sx] + (0,) + key[sx + 1 : sp] + (0,) + key[sp + 1 :]: coeff})
        term = multiply(mono, power(x_h, key[sx]))
        term = multiply(term, power(p_h, key[sp]))
        out = out + term
    return out


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one catalog identity: residual is lhs - rhs, exactly."""

    name: str
    passed: bool
    residual: OperatorExpr

    @property
    def residual_term_count(self) -> int:
        return len(self.residual.terms)


def _entry(name, lhs, rhs):
    residual = lhs - rhs
    return IdentityCheck(name=name, passed=residual.is_zero(), residual=residual)


def _pointer_model_entries():
    """Heisenberg solutions for the pointer-coupling Liouvillian.

    The generator is liouvillian_of(x*P) = -P*pi_p + x*pi_X, and evolution is
    the standard adjoint orbit of heisenberg_evolve.  Six closed forms agree
    with the published ones; the pi_x and pi_P rows come out with the
    opposite sign to the printed versions (the printed set is not mutually
    consistent under the canonical commutation table), so the derived signs
    are encoded and the names flag the flip.
    """
    l = liouvillian_of(multiply(x, P), subsystems=("target", "device"))
    expected = {
        "x": x,
        "p": p - multiply(t_sym, P),
        "X": X + multiply(t_sym, x),
        "P": P,
        "pi_x": pi_x - multiply(t_sym, pi_X),  # printed sign is +t*pi_X
        "pi_p": pi_p,
        "pi_X": pi_X,
        "pi_P": pi_P + multiply(t_sym, pi_p),  # printed sign is -t*pi_p
    }
    flagged = {"pi_x", "pi_P"}
    entries = []
    for name, rhs in expected.items():
        g = OperatorExpr.gen(name)
        label = f"pointer_heisenberg_{name}"
        if name in flagged:
            label += "_sign_adjusted"
        entries.append(_entry(label, heisenberg_evolve(g, l, term_bound=4), rhs))

    # error and disturbance operators built from the same orbit
    x_t = expected["x"]
    p_t = expected["p"]
    X_t = expected["X"]
    n_op = X_t - x
    d_op = p_t - p
    expansion = (
        commutator(X_t, p_t)
        - commutator(X_t, p)
        - commutator(x, p_t)
        + commutator(x, p)
    )
    entries.append(_entry("error_commutator_expansion", commutator(n_op, d_op), expansion))
    entries.append(_entry("error_disturbance_commute", commutator(n_op, d_op), OperatorExpr.zero()))
    entries.append(
        _entry(
            "error_vs_p_equals_disturbance_vs_x",
            commutator(n_op, p),
            commutator(d_op, x),
        )
    )
    entries.append(_entry("evolved_pointer_vs_target_momentum", commutator(X_t, p_t), OperatorExpr.zero()))
    entries.append(
        _entry(
            "error_disturbance_commutator_static",
            differentiate(commutator(n_op, d_op), "t"),
            OperatorExpr.zero(),
        )
    )
    return entries


def _planck_entries():
    """Planck-operator conjugation identities, in their exactly-valid form.

    With A = h_op*pi_p*pi_x the literal conjugates carry an explicit i
    (e^{-A} x e^{A} = x + i*h_op*pi_p); the printed forms drop it.  The
    Liouvillian-by-conjugation identity is checked for the three quadratic
    Hamiltonians with the right-hand sides derived independently by direct
    commutator expansion (frozen below).
    """
    A = multiply(h_op, multiply(pi_p, pi_x))
    x_q = adjoint_conjugate(-A, x, 4)
    p_q = adjoint_conjugate(-A, p, 4)
    entries = [
        _entry("planck_conjugated_position_i_factor", x_q, x + multiply(h_op, pi_p).scaled((0, 1))),
        _entry("planck_conjugated_momentum_i_factor", p_q, p + multiply(h_op, pi_x).scaled((0, 1))),
    ]

    half = Fraction(1, 2)
    cases = {
        # H = p^2/2 : conjugated [I_op, H] equals the formula Liouvillian p*pi_x
        "planck_liouvillian_kinetic": (
            multiply(p_q, p_q).scaled(half),
            multiply(p, pi_x),
        ),
        # H = x^2 : equals 2*x*pi_p (the formula Liouvillian with opposite sign)
        "planck_liouvillian_quadratic_potential": (
            multiply(x_q, x_q),
            multiply(x, pi_p).scaled(2),
        ),
        # H = x*p : mixed case, ordering constant -i from normal ordering
        "planck_liouvillian_bilinear": (
            multiply(x_q, p_q),
            multiply(x, pi_x) + multiply(p, pi_p) + OperatorExpr.scalar(0, -1),
        ),
    }
    for name, (h_deformed, rhs) in cases.items():
        lhs = adjoint_conjugate(A, commutator(I_op, h_deformed), 6)
        entries.append(_entry(name, lhs, rhs))
    return entries


def _hybrid_pointer_entry():
    """Pointer eigenvalue bookkeeping for the hybrid (deformed) model.

    Labels of simultaneous eigenstates commute, so they are modelled by the
    mutually commuting coordinate generators: x, p stand for the target
    labels (x, pi_p) and X, P for the device labels (X, pi_P).  The deformed
    pointer observable X + (hbar/2)*pi_P evaluated on the shifted labels
    exceeds its initial value by (t+1)/2 * x_h exactly (denominators
    cleared by one power of hbar).
    """
    half = Fraction(1, 2)
    x_h = x + multiply(hbar, p).scaled(half)
    shift_pointer = multiply(t_sym, x_h).scaled(half)  # X gains (t/2) x_h
    # pi_P label gains x_h / hbar; multiply through by hbar before comparing
    lhs = multiply(hbar, shift_pointer) + multiply(x_h, hbar).scaled(half)
    rhs = multiply(hbar, multiply(t_sym + ONE, x_h)).scaled(half)
    return _entry("hybrid_pointer_eigenvalue_shift", lhs, rhs)


def verify_identity_suite(names=None):
    """Run the fixed identity catalog; failures are data, not exceptions.

    ``names`` optionally restricts the catalog to a subset (an empty
    selection yields an empty report).
    """
    half = Fraction(1, 2)
    x_h, p_h = deformed_pair("half_minus_plus")
    pi_x_h = x + multiply(hbar, pi_p).scaled(half)
    pi_p_h = p - multiply(hbar, pi_x).scaled(half)

    entries = [
        _entry("deformed_pair_ccr", commutator(x_h, p_h), multiply(hbar, IUNIT)),
        _entry("backreaction_x_h_vs_pi_x_h", commutator(x_h, pi_x_h), OperatorExpr.zero()),
        _entry("backreaction_x_h_vs_pi_p_h", commutator(x_h, pi_p_h), OperatorExpr.zero()),
        _entry("backreaction_p_h_vs_pi_x_h", commutator(p_h, pi_x_h), OperatorExpr.zero()),
        _entry("backreaction_p_h_vs_pi_p_h", commutator(p_h, pi_p_h), OperatorExpr.zero()),
    ]
    entries.extend(_pointer_model_entries())
    entries.extend(_planck_entries())
    entries.append(_hybrid_pointer_entry())
    if names is not None:
        wanted = set(names)
        entries = [e for e in entries if e.name in wanted]
    return entries
