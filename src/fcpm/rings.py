"""Exact arithmetic kernels: Gaussian rationals, cyclotomic scalars, sparse polynomials.

Everything here is coefficient-level plumbing for the rest of the package.
All arithmetic is exact (fractions.Fraction underneath); nothing in this
module touches floating point except the explicit conversion helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvarianceError, ValidationError


# ---------------------------------------------------------------------------
# rational scalar parsing / formatting ("num/den" wire form)

def parse_rational(text):
    """Parse "3", "-7/4", or an int into a Fraction; ValidationError for a
    malformed string or a zero denominator.

    >>> parse_rational("-7/4")
    Fraction(-7, 4)
    """
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {text!r}") from exc


def format_rational(q):
    """Render a Fraction as "num/den", or "num" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Supports +, -, *, /, ==, hashing. Mixed arithmetic with int/Fraction
    coerces the scalar to a GaussianRational.

    >>> GaussianRational(1, 2) * GaussianRational(1, -2)
    GaussianRational(5, 0)
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return cls(v, 0)
        raise TypeError(f"cannot coerce {type(v).__name__} to GaussianRational")

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_rational(self):
        return self.im == 0

    def norm1(self):
        """|re| + |im|; exact, zero iff the number is zero."""
        return abs(self.re) + abs(self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


def exact_abs(v):
    """Exact nonnegative magnitude proxy: |q| for rationals, 1-norm for Gaussian."""
    if isinstance(v, GaussianRational):
        return v.norm1()
    return abs(Fraction(v))


def to_complex(v):
    """Best-effort conversion of any scalar this package produces to complex."""
    return complex(v)


def is_integer_rational(v):
    """True when v is an exact scalar representing a rational integer."""
    if isinstance(v, int):
        return True
    if isinstance(v, Fraction):
        return v.denominator == 1
    if isinstance(v, GaussianRational):
        return v.im == 0 and v.re.denominator == 1
    return False


# ---------------------------------------------------------------------------
# cyclotomic scalars

def _polydiv_int(num, den):
    """Exact division of dense integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise InvarianceError("non-exact integer polynomial division")
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise InvarianceError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Dense ascending integer coefficients of the n-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]          # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_int(num, cyclotomic_polynomial(d))
    return tuple(num)


def cyclo_reduce(p, coeffs):
    """Reduce ascending coefficients of a poly in zeta_p modulo Phi_p.

    Returns a tuple of Fractions of length deg Phi_p.
    """
    phi = cyclotomic_polynomial(p)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    if len(work) < deg:
        work += [Fraction(0)] * (deg - len(work))
    # Phi_p is monic, so remainder computation stays exact.
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        if q:
            for j, c in enumerate(phi):
                work[i - deg + j] -= q * c
    return tuple(work[:deg])


class CycloScalar:
    """Element of Q(zeta_p), stored as a reduced polynomial in zeta_p.

    Coefficients are Fractions, length deg Phi_p. Arithmetic reduces
    modulo the cyclotomic polynomial so equality is decidable.

    >>> z = CycloScalar.zeta(3)
    >>> z * z * z == CycloScalar.one(3)
    True
    >>> sum([CycloScalar.zeta(5) ** k for k in range(5)], CycloScalar(5, ())) == CycloScalar(5, ())
    True
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "coeffs", cyclo_reduce(p, coeffs))

    def __setattr__(self, *_):
        raise AttributeError("CycloScalar is immutable")

    @classmethod
    def one(cls, p):
        return cls(p, (1,))

    @classmethod
    def from_rational(cls, p, q):
        return cls(p, (Fraction(q),))

    @classmethod
    def zeta(cls, p, k=1):
        """zeta_p^k as a reduced scalar."""
        k %= p
        return cls(p, (0,) * k + (1,))

    def _check(self, other):
        if isinstance(other, CycloScalar):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloScalar.from_rational(self.p, other)
        raise TypeError(f"cannot combine CycloScalar with {type(other).__name__}")

    def __add__(self, other):
        o = self._check(other)
        return CycloScalar(self.p, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        o = self._check(other)
        n = len(self.coeffs)
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    conv[i + j] += a * b
        return CycloScalar(self.p, conv)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = CycloScalar.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            o = self._check(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_part(self):
        """The value as a Fraction; raises if the scalar is irrational."""
        if not self.is_rational():
            raise InvarianceError(f"expected rational cyclotomic scalar, got {self}")
        return self.coeffs[0]

    def __complex__(self):
        w = math.tau / self.p
        return sum(complex(c) * complex(math.cos(w * k), math.sin(w * k))
                   for k, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"CycloScalar(p={self.p}, {self.coeffs})"


# ---------------------------------------------------------------------------
# sparse multivariate polynomials

class MPoly:
    """Sparse polynomial in `nvars` variables: {exponent tuple: coefficient}.

    Coefficients may live in any commutative ring implementing +, -, *:
    Fraction, GaussianRational, CycloScalar, or MPoly itself (for formal
    coefficients in a second variable block). Because nested coefficients
    are themselves MPoly instances, `*` between two MPoly objects always
    means product in the SAME variable space; use .scale(c) to multiply
    by a coefficient.

    >>> x = MPoly.monomial(2, (1, 0)); y = MPoly.monomial(2, (0, 1))
    >>> ((x + y) ** 2).terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}
    True
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        object.__setattr__(self, "nvars", int(nvars))
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong arity for {nvars} vars")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if _nonzero(c):
                clean[exp] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, exp, c=Fraction(1)):
        return cls(nvars, {tuple(exp): c})

    def _check(self, other):
        if not isinstance(other, MPoly):
            raise TypeError("use .scale() for coefficient multiplication")
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        return other

    def __add__(self, other):
        o = self._check(other)
        out = dict(self.terms)
        for exp, c in o.terms.items():
            if exp in out:
                out[exp] = out[exp] + c
            else:
                out[exp] = c
        return MPoly(self.nvars, out)

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        o = self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if exp in out:
                    out[exp] = out[exp] + prod
                else:
                    out[exp] = prod
        return MPoly(self.nvars, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return MPoly.const(self.nvars, Fraction(1))
        # start from self so nested coefficient rings never have to
        # multiply against a plain Fraction one
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def scale(self, c):
        """Multiply every coefficient by the ring element c."""
        return MPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def map_coeffs(self, f):
        return MPoly(self.nvars, {e: f(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MPoly) or other.nvars != self.nvars:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        """Max total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def evaluate(self, point):
        """Substitute scalars for all variables; returns a ring element."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = None
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(point, exp):
                for _ in range(e):
                    term = term * v
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def sorted_terms(self):
        """Terms in graded lexicographic order (total degree, then lex)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))

    def __repr__(self):
        parts = [f"{c!r}*x^{e}" for e, c in self.sorted_terms()]
        return f"MPoly({self.nvars}, {' + '.join(parts) or '0'})"


def _nonzero(c):
    if isinstance(c, (int, Fraction, GaussianRational, CycloScalar, MPoly)):
        return bool(c)
    return c != 0


# ---------------------------------------------------------------------------
# exact linear algebra

def rank_exact(rows, ncols=None):
    """Rank over Q or Q(i) by sparse fraction-free elimination over Z.

    Rows are dense sequences of exact scalars, ragged only if ncols is
    given (missing entries read as 0), or sparse maps {column: scalar}.
    If any entry is a GaussianRational, each row v is replaced by the real
    and imaginary parts of v and of i*v, which span over Q what v spans
    over Q(i), so the rank over Q is twice the rank over Q(i). Each row is
    then scaled by the lcm of its denominators to integers.
    """
    rows = [r if isinstance(r, dict) else dict(enumerate(r[:ncols])) for r in rows]
    gaussian = any(isinstance(v, GaussianRational) for r in rows for v in r.values())
    if gaussian:
        rows = [{2 * j + k: w for j, v in r.items() for uv in (u * v,)
                 for k, w in enumerate((uv.re, uv.im))}
                for r in rows for u in (GaussianRational(1), GaussianRational(0, 1))]
    work = []
    for r in rows:
        lcm = math.lcm(*(v.denominator for v in r.values()))
        work.append({j: v.numerator * (lcm // v.denominator) for j, v in r.items() if v})
    return _rank_integer(work) // (1 + gaussian)


def _rank_integer(rows):
    """Rank of sparse integer rows {column: int}, eliminating columns in order.

    Rows wait in buckets keyed by their leading column. A column's pivot is
    its row with the smallest |entry|, then fewest entries; every other row
    r there becomes (pv/g) r - (v/g) pivot, g = gcd(pv, v), without its
    zero entries and divided by the gcd of its entries.
    """
    buckets = {}
    for r in filter(None, rows):
        buckets.setdefault(min(r), []).append(r)
    rank = 0
    while buckets:
        col = min(buckets)
        group = buckets.pop(col)
        pivot = min(group, key=lambda r: (abs(r[col]), len(r)))
        pv = pivot.pop(col)
        rank += 1
        for r in group:
            if r is not pivot:
                v = r.pop(col)
                g = math.gcd(pv, v)
                a, b = pv // g, v // g
                r = {j: a * x for j, x in r.items()}
                for j, y in pivot.items():
                    r[j] = r.get(j, 0) - b * y
                r = {j: x for j, x in r.items() if x}
                if r:
                    c = math.gcd(*r.values())
                    buckets.setdefault(min(r), []).append(
                        {j: x // c for j, x in r.items()} if c > 1 else r)
    return rank

