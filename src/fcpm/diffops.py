"""Euler-operator algebra: the annihilators l_k and coefficient-level checks.

Operators are kept in Euler normal form: sums of terms

    coef * x^alpha * prod_r (w_r . theta + c_r),

where theta = (theta_1,...,theta_m), theta_k = x_k d/dx_k, and each factor
is an affine function of theta with rational weight vector w_r. Monomials
commute past theta-factors by the shift rule theta_k x^alpha = x^alpha
(theta_k + alpha_k), so this fragment is closed under composition without
general Weyl-algebra normal ordering.

On a series with prefactor exponents mu (for the fundamental solutions),
theta_k acts on the coefficient of x^(mu+n) as multiplication by n_k+mu_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModeError, ValidationError
from .params import EXACT
from .rings import GaussianRational
from .series import TruncatedSeries, all_indices, coefficient_table, phi_series


def _scalar_key(c):
    """Deterministic sort key for exact scalars (and floats in float mode)."""
    if isinstance(c, GaussianRational):
        return (float(c.re), float(c.im))
    try:
        return (float(c), 0.0)
    except TypeError:
        z = complex(c)
        return (z.real, z.imag)


@dataclass(frozen=True)
class EulerFactor:
    """The factor sum_k weights[k]*theta_k + shift."""

    weights: tuple
    shift: object

    def eigenvalue(self, n, mu):
        """Value on the coefficient of x^(mu+n)."""
        out = self.shift
        for w, nk, mk in zip(self.weights, n, mu):
            if w:
                out = out + w * (nk + mk)
        return out

    def shifted(self, alpha):
        """The factor conjugated past x^alpha: shift grows by w . alpha."""
        extra = sum(w * ak for w, ak in zip(self.weights, alpha))
        return EulerFactor(self.weights, self.shift + extra)

    def _key(self):
        return (self.weights, _scalar_key(self.shift))


def theta_factor(m, k, shift=0):
    """theta_k + shift as an EulerFactor on m axes."""
    w = [Fraction(0)] * m
    w[k - 1] = Fraction(1)
    return EulerFactor(tuple(w), shift)


def total_theta_factor(m, shift=0, scale=Fraction(1)):
    """scale*(theta_1+...+theta_m) + shift."""
    return EulerFactor((Fraction(scale),) * m, shift)


@dataclass(frozen=True)
class EulerTerm:
    coef: object
    monomial: tuple
    factors: tuple

    def degree(self):
        return sum(self.monomial)


class EulerOperatorExpr:
    """A sum of Euler-normal-form terms over m variables.

    Terms are kept in a canonical order (monomial, then factor keys) with
    like terms combined, so structural equality is meaningful for
    commuting (monomial-free) operators.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms):
        bucket = {}
        for t in terms:
            if len(t.monomial) != m:
                raise ValidationError("monomial arity mismatch")
            fs = tuple(sorted(t.factors, key=lambda f: f._key()))
            key = (t.monomial, fs)
            if key in bucket:
                bucket[key] = EulerTerm(bucket[key].coef + t.coef, t.monomial, fs)
            else:
                bucket[key] = EulerTerm(t.coef, t.monomial, fs)
        kept = [t for t in bucket.values() if _coef_nonzero(t.coef)]
        kept.sort(key=lambda t: (t.monomial, tuple(f._key() for f in t.factors)))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", tuple(kept))

    def __setattr__(self, *_):
        raise AttributeError("EulerOperatorExpr is immutable")

    def max_monomial_degree(self):
        return max((t.degree() for t in self.terms), default=0)

    def has_monomial(self):
        return any(any(t.monomial) for t in self.terms)

    def __add__(self, other):
        if other.m != self.m:
            raise ValidationError("operator arity mismatch")
        return EulerOperatorExpr(self.m, self.terms + other.terms)

    def scale(self, c):
        return EulerOperatorExpr(self.m, [EulerTerm(t.coef * c, t.monomial, t.factors)
                                          for t in self.terms])

    def compose(self, other):
        """Operator product self . other (self applied after other).

        Each of self's factor lists is shifted past other's monomial:
        (w.theta + c) x^beta = x^beta (w.theta + c + w.beta).
        """
        if other.m != self.m:
            raise ValidationError("operator arity mismatch")
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                mono = tuple(a + b for a, b in zip(t1.monomial, t2.monomial))
                fs = tuple(f.shifted(t2.monomial) for f in t1.factors) + t2.factors
                out.append(EulerTerm(t1.coef * t2.coef, mono, fs))
        return EulerOperatorExpr(self.m, out)

    def __eq__(self, other):
        if not isinstance(other, EulerOperatorExpr) or other.m != self.m:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"EulerOperatorExpr(m={self.m}, {len(self.terms)} terms)"


def _coef_nonzero(c):
    if isinstance(c, (int, Fraction, GaussianRational)):
        return bool(c)
    return c != 0


def apply(op, s):
    """Apply an Euler operator to a TruncatedSeries.

    The result is truncated at N - (max monomial degree of op), because a
    monomial x^alpha pushes coefficients up by |alpha| and the top shells
    of the input cannot feed the shells above the new truncation order.
    The prefactor exponents pass through unchanged; theta eigenvalues are
    shifted by them.
    """
    if op.m != s.m:
        raise ValidationError("operator arity mismatch")
    n_out = s.N - op.max_monomial_degree()
    if n_out < 0:
        raise ValidationError("operator monomial degree exceeds truncation order")
    zero = Fraction(0) if s.mode == EXACT else complex(0)
    mu = s.prefactor_exponents
    out = {}
    for q in all_indices(s.m, n_out):
        acc = zero
        for t in op.terms:
            src = tuple(qi - ai for qi, ai in zip(q, t.monomial))
            if any(e < 0 for e in src):
                continue
            v = s.coeffs[src]
            if not _coef_nonzero(v):
                continue
            w = t.coef * v
            for f in t.factors:
                w = w * f.eigenvalue(src, mu)
            acc = acc + w
        out[q] = acc
    return TruncatedSeries(n_out, s.m, out, mu, s.mode)


def apply_poly(op, poly, mu=None):
    """Exact action on a finite monomial sum {exponent: coef}; no truncation.

    Exponents may be any integers >= 0; mu shifts the theta eigenvalues
    (exponents are then read as offsets from x^mu).
    """
    mu = mu if mu is not None else (0,) * op.m
    out = {}
    for exp, c in poly.items():
        for t in op.terms:
            w = t.coef * c
            for f in t.factors:
                w = w * f.eigenvalue(exp, mu)
            if not _coef_nonzero(w):
                continue
            tgt = tuple(e + a for e, a in zip(exp, t.monomial))
            out[tgt] = out.get(tgt, 0) + w
    return {e: v for e, v in out.items() if _coef_nonzero(v)}


def operator_l(ps, k):
    """The k-th annihilator of the series:

        l_k = prod_{i=1}^p (theta_k + b_{i,k} - 1)
              - x_k * prod_{i=1}^p (theta_1+...+theta_m + a_i).

    The first product includes the i=p factor, which is plain theta_k
    because b_{p,k} = 1.
    """
    if not 1 <= k <= ps.m:
        raise ValidationError(f"axis {k} out of range 1..{ps.m}")
    fs1 = tuple(theta_factor(ps.m, k, ps.b(i, k) - 1) for i in range(1, ps.p + 1))
    fs2 = tuple(total_theta_factor(ps.m, ps.a_i(i)) for i in range(1, ps.p + 1))
    e_k = tuple(1 if i == k - 1 else 0 for i in range(ps.m))
    one = ps.one()
    return EulerOperatorExpr(ps.m, [
        EulerTerm(one, (0,) * ps.m, fs1),
        EulerTerm(-one, e_k, fs2),
    ])


def annihilation_residual(ps, J, N):
    """max over k and |n| <= N-1 of |coefficient of l_k Phi_J at x^(mu+n)|.

    Exactly zero in exact mode for valid generic parameters; in float mode
    a tiny roundoff residual. The output shells stop at N-1 because the
    x_k factor in l_k consumes one degree of the truncated input.
    """
    s = phi_series(ps, J, N)
    worst = Fraction(0) if ps.is_exact else 0.0
    for k in range(1, ps.m + 1):
        r = apply(operator_l(ps, k), s)
        worst = max(worst, r.max_abs())
    return worst


def coefficient_recurrence_check(ps, N):
    """Exact check of the coefficient recurrence for all |n| <= N, n_k >= 1:

        n_k * prod_{j<p} (b_{j,k} - 1 + n_k) * A_n
            = prod_i (a_i + |n| - 1) * A_{n - e_k}.

    This is the coefficient-level content of the annihilation identity.
    """
    if not ps.is_exact:
        raise ModeError("coefficient recurrence check requires exact mode")
    table = coefficient_table(ps, N)
    for n in all_indices(ps.m, N):
        total = sum(n)
        for k in range(1, ps.m + 1):
            if n[k - 1] == 0:
                continue
            lhs = Fraction(n[k - 1])
            for j in range(1, ps.p):
                lhs = lhs * (ps.b(j, k) - 1 + n[k - 1])
            lhs = lhs * table[n]
            rhs = table[n[:k - 1] + (n[k - 1] - 1,) + n[k:]]
            for i in range(1, ps.p + 1):
                rhs = rhs * (ps.a_i(i) + total - 1)
            if lhs != rhs:
                return False
    return True
