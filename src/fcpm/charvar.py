"""Characteristic-variety machinery: pullback operators, symbols, Hilbert data.

Under the covering z_k^p = x_k the annihilators pull back to operators
whose degree-p symbols, after scaling by p^p, are

    L_k = (z_k xi_k)^p - z_k^p (z_1 xi_1 + ... + z_m xi_m)^p.

Away from the coordinate axes these generate the same ideal as

    M_k = xi_k^p - xi_m^p            (k < m),
    M_m = xi_m^p - (sum_j z_j xi_j)^p,

via L_k = z_k^p (M_k + M_m) for k < m and L_m = z_m^p M_m. The per-degree
dimensions of the quotient by (M_1..M_m) are computed exactly from
Macaulay matrices; at points with z_1...z_m R(z) != 0 they match the
coefficients of ((1+t+...+t^{p-1}))^m with total p^m, and on R(z) = 0 the
quotient keeps a positive dimension in every degree (rank drop).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvarianceError, ModeError, ValidationError
from .diffops import (EulerFactor, EulerOperatorExpr, EulerTerm, apply_poly,
                      operator_l, total_theta_factor)
from .params import check_shape
from .rings import CycloScalar, GaussianRational, MPoly, rank_exact
from .series import shell_indices
from .singular import evaluate_R_x, unirational_point

__all__ = ["SpecializedPoint", "specialize", "pullback_operator",
           "pullback_functional_check", "L_symbol", "symbols",
           "hilbert_function", "partial_quotient_dims", "rank_at", "RankResult",
           "expected_hilbert", "expected_partial", "c_chi",
           "random_generic_point", "random_singular_point"]

INFINITE = "infinite/undetermined"


@dataclass(frozen=True)
class SpecializedPoint:
    """An exact point z with its two locus flags."""

    p: int
    m: int
    z: tuple
    on_coordinate_axes: bool
    on_R_zero: bool


def specialize(p, m, z):
    """Certify flags for an exact point z (rationals or Gaussian rationals)."""
    check_shape(p, m)
    if len(z) != m:
        raise ValidationError(f"point arity {len(z)} != m={m}")
    zt = []
    for v in z:
        if isinstance(v, GaussianRational):
            zt.append(v)
        elif isinstance(v, (int, Fraction)):
            zt.append(Fraction(v))
        else:
            raise ModeError(f"specialize needs exact coordinates, got {type(v).__name__}")
    zt = tuple(zt)
    axes = any(not bool(v) for v in zt)
    x = tuple(_power(v, p) for v in zt)
    on_r = not bool(evaluate_R_x(p, m, x))
    return SpecializedPoint(p, m, zt, axes, on_r)


def _power(v, e):
    out = Fraction(1)
    for _ in range(e):
        out = out * v
    return out


# ---------------------------------------------------------------------------
# pullback of the annihilators through z_k^p = x_k

def pullback_operator(k, ps):
    """The pullback of the k-th annihilator to the covering coordinates:

        prod_i ((1/p) theta~_k + b_{i,k} - 1)
        - z_k^p prod_i ((1/p)(theta~_1+...+theta~_m) + a_i),

    with theta~_k = z_k d/dz_k = p * theta_k under the covering.
    """
    if not 1 <= k <= ps.m:
        raise ValidationError(f"axis {k} out of range 1..{ps.m}")
    inv_p = Fraction(1, ps.p)
    fs1 = []
    for i in range(1, ps.p + 1):
        w = [Fraction(0)] * ps.m
        w[k - 1] = inv_p
        fs1.append(EulerFactor(tuple(w), ps.b(i, k) - 1))
    fs2 = tuple(total_theta_factor(ps.m, ps.a_i(i), scale=inv_p)
                for i in range(1, ps.p + 1))
    mono = tuple(ps.p if i == k - 1 else 0 for i in range(ps.m))
    one = ps.one()
    return EulerOperatorExpr(ps.m, [
        EulerTerm(one, (0,) * ps.m, tuple(fs1)),
        EulerTerm(-one, mono, fs2),
    ])


def pullback_functional_check(ps, k, alpha):
    """Exact identity check on a monomial f = x^alpha:

        (pullback l_k) (f o covering)  ==  (l_k f) o covering.

    Both sides are finite monomial sums in z; compared exactly.
    """
    if not ps.is_exact:
        raise ModeError("functional check requires exact mode")
    alpha = tuple(int(e) for e in alpha)
    lhs = apply_poly(pullback_operator(k, ps), {tuple(ps.p * e for e in alpha): Fraction(1)})
    rhs_x = apply_poly(operator_l(ps, k), {alpha: Fraction(1)})
    rhs = {tuple(ps.p * e for e in exp): c for exp, c in rhs_x.items()}
    return lhs == rhs


# ---------------------------------------------------------------------------
# symbols

def _xi_power_sum(m, z=None):
    """(sum_j z_j xi_j) as an MPoly in xi; formal z when z is None."""
    terms = {}
    for j in range(m):
        e = tuple(1 if i == j else 0 for i in range(m))
        if z is None:
            terms[e] = MPoly.monomial(m, e, Fraction(1))
        else:
            terms[e] = z[j]
    return MPoly(m, terms)


def _const_coef(m, c, formal):
    return MPoly.const(m, c) if formal else c


def L_symbol(p, m, k, z=None):
    """L_k = (z_k xi_k)^p - z_k^p (sum z_j xi_j)^p, formal or specialized."""
    formal = z is None
    s_pow = _xi_power_sum(m, z) ** p
    e_k = tuple(1 if i == k - 1 else 0 for i in range(m))
    if formal:
        zkp = MPoly.monomial(m, tuple(p if i == k - 1 else 0 for i in range(m)), Fraction(1))
    else:
        zkp = _power(z[k - 1], p)
    first = MPoly.monomial(m, tuple(p * e for e in e_k), zkp)
    return first - s_pow.scale(zkp)


def symbols(p, m, z=None):
    """The generators M_1..M_m; asserts their relation to the L_k symbols.

    Specialized form needs every z_k nonzero (the relations divide by
    z_k^p); formal form carries coefficients that are polynomials in z.
    """
    formal = z is None
    if not formal:
        z = tuple(z.z) if isinstance(z, SpecializedPoint) else tuple(z)
        if len(z) != m:
            raise ValidationError(f"point arity {len(z)} != m={m}")
        if any(not bool(v) for v in z):
            raise ValidationError("symbols needs nonzero coordinates "
                                  "(the L_k relations divide by z_k^p)")
    one = _const_coef(m, Fraction(1), formal)
    s_pow = _xi_power_sum(m, z) ** p
    ms = []
    xi_m_p = MPoly.monomial(m, tuple(p if i == m - 1 else 0 for i in range(m)), one)
    for k in range(1, m):
        xi_k_p = MPoly.monomial(m, tuple(p if i == k - 1 else 0 for i in range(m)), one)
        ms.append(xi_k_p - xi_m_p)
    ms.append(xi_m_p - s_pow)
    # cross-check the ideal relations: L_k = z_k^p (M_k + M_m), L_m = z_m^p M_m
    for k in range(1, m + 1):
        lk = L_symbol(p, m, k, z)
        if formal:
            zkp = MPoly.monomial(m, tuple(p if i == k - 1 else 0 for i in range(m)), Fraction(1))
        else:
            zkp = _power(z[k - 1], p)
        comb = ms[m - 1] if k == m else ms[k - 1] + ms[m - 1]
        if lk != comb.scale(zkp):
            raise InvarianceError(f"symbol relation failed at k={k}")
    return ms


# ---------------------------------------------------------------------------
# Hilbert function via Macaulay matrices

def _macaulay_rank(gens, m, d, gen_degree):
    """Rank of the sparse rows {column of exp + beta: coefficient} of the
    shifts xi^beta g, g in gens, |beta| = d - deg, in degree d."""
    # Columns and shifts in descending lex order; rank_exact eliminates
    # column by column from the first.
    index = {exp: i for i, exp in enumerate(list(shell_indices(m, d))[::-1])}
    shifts = list(shell_indices(m, d - gen_degree))[::-1]
    return rank_exact([{index[tuple(a + b for a, b in zip(exp, beta))]: c
                        for exp, c in g.terms.items()}
                       for g in gens for beta in shifts])


def _quotient_dims(gens, p, m, d_max):
    out = []
    for d in range(d_max + 1):
        full = math.comb(d + m - 1, m - 1)
        if d < p:
            out.append(full)
        else:
            out.append(full - _macaulay_rank(gens, m, d, p))
    return tuple(out)


def hilbert_function(p, m, z, d_max):
    """H(d) for d = 0..d_max of the quotient by (M_1..M_m) at the point z.

    H(d) = C(d+m-1, m-1) - rank of the degree-d Macaulay matrix; all linear
    algebra is exact.
    """
    return _quotient_dims(symbols(p, m, z), p, m, d_max)


def partial_quotient_dims(p, m, z, k, d_max):
    """Dimensions of the quotient by the first k generators only."""
    if not 0 <= k <= m:
        raise ValidationError(f"k={k} out of range 0..{m}")
    return _quotient_dims(symbols(p, m, z)[:k], p, m, d_max)


def default_dmax(p, m):
    """One band of width p beyond the last degree a rank-p^m quotient can occupy."""
    return m * (p - 1) + p


@dataclass(frozen=True)
class RankResult:
    z: tuple
    H: tuple
    rank: object   # int or the string INFINITE
    drop: bool


def rank_at(p, m, z):
    """Rank judgment at an exact point z (no zero coordinates).

    The expected Hilbert function vanishes above m(p-1); if H is still
    positive at d_max = m(p-1)+p the quotient contains a positive-
    dimensional piece and the rank is reported as infinite/undetermined.
    Otherwise rank = sum H(d), with drop flagged iff it differs from p^m.
    """
    point = z if isinstance(z, SpecializedPoint) else specialize(p, m, z)
    d_max = default_dmax(p, m)
    H = hilbert_function(p, m, point, d_max)
    if H[d_max] > 0:
        return RankResult(point.z, tuple(H), INFINITE, True)
    total = sum(H)
    return RankResult(point.z, tuple(H), total, total != p ** m)


def expected_hilbert(p, m, d_max):
    """Coefficients of (1 + t + ... + t^{p-1})^m, padded to d_max."""
    poly = [1]
    block = [1] * p
    for _ in range(m):
        out = [0] * (len(poly) + p - 1)
        for i, c in enumerate(poly):
            for j, b in enumerate(block):
                out[i + j] += c * b
        poly = out
    poly += [0] * max(0, d_max + 1 - len(poly))
    return tuple(poly[:d_max + 1])


def expected_partial(p, m, k, d_max):
    """Series coefficients of (1 - t^p)^k / (1 - t)^m up to degree d_max."""
    num = [0] * (p * k + 1)
    for i in range(k + 1):
        num[p * i] = (-1) ** i * math.comb(k, i)
    out = []
    for d in range(d_max + 1):
        s = 0
        for i, c in enumerate(num):
            if c and i <= d:
                s += c * math.comb(d - i + m - 1, m - 1)
        out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# invertible-element witnesses and random points

def c_chi(p, m, z, chat):
    """C for the character vector chat (exponents of zeta, length m-1):

        C = 1 - (zeta^{chat_1} z_1 + ... + zeta^{chat_{m-1}} z_{m-1} + z_m)^p,

    an exact cyclotomic scalar. Zero exactly when z lies on one of the
    linear factors of R(z), hence c_chi = 0 implies singular-locus
    membership of (z_1^p, ..., z_m^p).
    """
    z = tuple(z.z) if isinstance(z, SpecializedPoint) else tuple(z)
    if len(z) != m:
        raise ValidationError(f"point arity {len(z)} != m={m}")
    if len(chat) != m - 1:
        raise ValidationError(f"character vector length {len(chat)} != m-1={m - 1}")
    for v in z:
        if not isinstance(v, (int, Fraction)):
            raise ModeError("c_chi needs rational coordinates")
    lin = CycloScalar.from_rational(p, Fraction(z[-1]))
    for zk, ik in zip(z[:-1], chat):
        lin = lin + CycloScalar.zeta(p, int(ik)) * Fraction(zk)
    return CycloScalar.one(p) - lin ** p


def random_generic_point(p, m, rng=None):
    """Random small rational z certified off the axes and off R(z) = 0."""
    rng = rng if rng is not None else random.Random()
    while True:
        z = tuple(Fraction(rng.randrange(1, 10), rng.choice([2, 3, 5, 7, 11, 13]))
                  * rng.choice([1, -1]) for _ in range(m))
        point = specialize(p, m, z)
        if not point.on_coordinate_axes and not point.on_R_zero:
            return point


def random_singular_point(p, m, rng=None):
    """Random exact z with nonzero coordinates on R(z) = 0.

    Drawn from the hyperplane 1 - z_1 - ... - z_m = 0, one of the linear
    factors of R(z); the flag is still certified by exact evaluation.
    """
    rng = rng if rng is not None else random.Random()
    while True:
        point = specialize(p, m, unirational_point(p, m, rng))
        if not point.on_coordinate_axes and point.on_R_zero:
            return point
