"""The singular-locus polynomial: R(z) over Z[zeta_p], R(x), membership tests.

R(z) is the product over all (i_1,...,i_m) in (Z_p)^m of the linear forms
1 - zeta^{i_1} z_1 - ... - zeta^{i_m} z_m, computed exactly with cyclotomic
coefficients reduced modulo Phi_p (valid for every p >= 2, prime or not).
Galois invariance forces rational integer coefficients, and invariance
under z_k -> zeta z_k forces every exponent to be divisible by p, so the
substitution z_k^p -> x_k yields an integer polynomial R(x) of total degree
p^{m-1}. The singular set of the differential system is
x_1 ... x_m R(x) = 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import InvarianceError
from .params import check_shape
from .rings import (CycloScalar, GaussianRational, MPoly, cyclo_reduce,
                    cyclotomic_polynomial, format_rational)

__all__ = ["CycloScalar", "cyclo_reduce", "cyclotomic_polynomial",
           "build_R_z", "build_R_x", "on_singular_locus", "evaluate_R_x",
           "poly_terms_json", "poly_to_string", "unirational_point"]


@lru_cache(maxsize=None)
def build_R_z(p, m):
    """The defining product for R as an MPoly with CycloScalar coefficients.

    Cross-checks before returning (raising InvarianceError on failure):
    every coefficient is a rational integer and every exponent vector has
    all entries divisible by p.
    """
    check_shape(p, m)
    one = CycloScalar.one(p)
    acc = MPoly.const(m, one)
    zero_exp = (0,) * m
    for idx in itertools.product(range(p), repeat=m):
        terms = {zero_exp: one}
        for k, ik in enumerate(idx):
            e = tuple(1 if i == k else 0 for i in range(m))
            terms[e] = -CycloScalar.zeta(p, ik)
        acc = acc * MPoly(m, terms)
    for exp, c in acc.terms.items():
        if not c.is_rational() or c.rational_part().denominator != 1:
            raise InvarianceError(f"non-integer coefficient {c!r} at {exp} in R(z)")
        if any(e % p for e in exp):
            raise InvarianceError(f"exponent {exp} of R(z) not divisible by p={p}")
    return acc


@lru_cache(maxsize=None)
def build_R_x(p, m):
    """R(x): substitute z_k^p -> x_k; integer coefficients, degree p^(m-1)."""
    rz = build_R_z(p, m)
    terms = {tuple(e // p for e in exp): c.rational_part()
             for exp, c in rz.terms.items()}
    rx = MPoly(m, terms)
    if rx.total_degree() != p ** (m - 1):
        raise InvarianceError(
            f"deg R(x) = {rx.total_degree()}, expected p^(m-1) = {p ** (m - 1)}")
    return rx


def evaluate_R_x(p, m, x):
    """R(x) at a point; exact for exact coordinates, complex otherwise."""
    rx = build_R_x(p, m)
    if all(isinstance(v, (int, Fraction, GaussianRational)) for v in x):
        return rx.evaluate(tuple(x))
    total = complex(0)
    for exp, c in rx.terms.items():
        t = complex(c)
        for v, e in zip(x, exp):
            t *= complex(v) ** e
        total += t
    return total


def on_singular_locus(x, p, m):
    """Membership of the singular set x_1...x_m R(x) = 0.

    Exact coordinates decide exactly; float coordinates use the relative
    threshold 1e-12 * scale, where scale accumulates the absolute values
    of the evaluated monomials.
    """
    if len(x) != m:
        raise ValueError(f"point arity {len(x)} != m={m}")
    if all(isinstance(v, (int, Fraction, GaussianRational)) for v in x):
        prod = Fraction(1)
        for v in x:
            prod = prod * v
        val = prod * evaluate_R_x(p, m, x)
        return not bool(val)
    rx = build_R_x(p, m)
    xc = [complex(v) for v in x]
    val = complex(1)
    scale = 1.0
    for v in xc:
        val *= v
        scale *= max(abs(v), 1.0)
    total = complex(0)
    tscale = 0.0
    for exp, c in rx.terms.items():
        t = complex(c)
        for v, e in zip(xc, exp):
            t *= v ** e
        total += t
        tscale += abs(t)
    return abs(val * total) <= 1e-12 * max(scale * tscale, 1e-300)


def unirational_point(p, m, rng):
    """A random exact point z on R(z) = 0 with nonzero coordinates.

    Uses the hyperplane z_m = 1 - z_1 - ... - z_{m-1}, one of the p^m
    linear factors of R(z).
    """
    while True:
        z = [Fraction(rng.randrange(1, 12), rng.choice([2, 3, 5, 7, 11, 13]))
             * rng.choice([1, -1]) for _ in range(m - 1)]
        last = 1 - sum(z)
        if last != 0 and all(z):
            z.append(last)
            return tuple(z)


def poly_terms_json(poly):
    """Graded-lex list of {"exp": [...], "coef": "num/den"} dicts."""
    return [{"exp": list(exp), "coef": format_rational(c)}
            for exp, c in poly.sorted_terms()]


def poly_to_string(poly, var="x"):
    """Expanded human-readable form, graded-lex term order.

    >>> poly_to_string(build_R_x(2, 2))
    '1 - 2*x1 - 2*x2 + x1^2 - 2*x1*x2 + x2^2'
    """
    parts = []
    for exp, c in poly.sorted_terms():
        c = Fraction(c)
        mono = "*".join(f"{var}{i+1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exp) if e)
        mag = abs(c)
        body = (format_rational(mag) if not mono
                else (mono if mag == 1 else f"{format_rational(mag)}*{mono}"))
        if not parts:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(("+ " if c >= 0 else "- ") + body)
    return " ".join(parts) if parts else "0"
