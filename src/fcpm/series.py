"""Series layer: coefficients A_n, Pochhammer symbols, evaluation, domain logic.

The series is sum over n in N^m of A_n x^n with

            (a_1,|n|) ... (a_p,|n|)
  A_n = ------------------------------------ ,      |n| = n_1 + ... + n_m,
        prod_k (b_{1,k},n_k)...(b_{p-1,k},n_k) n_k!

convergent on D = { sum_k |x_k|^{1/p} < 1 }. Evaluation sums by total-degree
shells, where the tail is geometric with ratio r^p, r = sum_k |x_k|^{1/p}.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import BranchError, DomainError, ValidationError
from .params import (EXACT, SolutionLabel, solution_exponents,
                     transform_parameters, validate)
from .rings import GaussianRational, exact_abs, to_complex

DEFAULT_MAX_SHELLS = 500
MAX_SHELLS_ENV = "FCPM_MAX_SHELLS"


def max_shells_cap(explicit=None):
    """Shell cap: explicit argument, else FCPM_MAX_SHELLS, else 500."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_SHELLS_ENV)
    return int(env) if env else DEFAULT_MAX_SHELLS


def shell_indices(m, d):
    """All multi-indices of total degree d in lexicographic order."""
    if m == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in shell_indices(m - 1, d - first):
            yield (first,) + rest


def check_index(n, m):
    """n as a tuple of m naturals; ValidationError on a negative entry or
    the wrong arity.

    >>> check_index([2, 0, 1], 3)
    (2, 0, 1)
    """
    n = tuple(int(e) for e in n)
    if any(e < 0 for e in n):
        raise ValidationError(f"negative entry in multi-index {n}")
    if len(n) != m:
        raise ValidationError(f"multi-index arity {len(n)} != m={m}")
    return n


def all_indices(m, N):
    """All multi-indices with total degree <= N, shell by shell."""
    for d in range(N + 1):
        yield from shell_indices(m, d)


# ---------------------------------------------------------------------------
# Pochhammer symbols

def pochhammer(s, n):
    """Rising factorial s(s+1)...(s+n-1); exact for exact scalars.

    >>> pochhammer(3, 2)
    Fraction(12, 1)
    >>> pochhammer(Fraction(1, 2), 3)
    Fraction(15, 8)
    """
    if n < 0:
        raise ValidationError("pochhammer needs n >= 0")
    if isinstance(s, (int, Fraction)):
        out = Fraction(1)
        s = Fraction(s)
        for i in range(n):
            out *= s + i
        return out
    if isinstance(s, GaussianRational):
        out = GaussianRational(1)
        for i in range(n):
            out = out * (s + i)
        return out
    mant, ex = pochhammer_scaled(s, n)
    return _unscale(mant, ex)


def pochhammer_scaled(s, n):
    """Float Pochhammer as (mantissa, exp2) with |mantissa| kept near 1.

    The value is mantissa * 2**exp2; this survives n large enough that the
    plain product would overflow.
    """
    s = complex(s)
    mant, ex = complex(1), 0
    for i in range(n):
        mant *= s + i
        a = abs(mant)
        if a != 0 and (a > 2.0 ** 64 or a < 2.0 ** -64):
            _, e = math.frexp(a)
            mant = complex(math.ldexp(mant.real, -e), math.ldexp(mant.imag, -e))
            ex += e
    return mant, ex


def _unscale(mant, ex):
    try:
        return complex(math.ldexp(mant.real, ex), math.ldexp(mant.imag, ex))
    except OverflowError:
        return complex(math.inf if mant.real > 0 else -math.inf,
                       math.inf if mant.imag > 0 else -math.inf)


# ---------------------------------------------------------------------------
# coefficients

def _check_valid(ps):
    problems = validate(ps)
    if problems:
        raise ValidationError("; ".join(problems))


def _numerator(ps, d, one):
    """prod_i (a_i + d - 1): the numerator of A_n / A_{n-e_k} for |n| = d."""
    num = one
    for i in range(1, ps.p + 1):
        num = num * (ps.a_i(i) + (d - 1))
    return num


def _denominator(ps, k, nk, one):
    """n_k * prod_{j<p} (b_{j,k} - 1 + n_k): the denominator of A_n / A_{n-e_k}
    (k is 0-based, nk = n_k >= 1)."""
    den = one * nk
    for j in range(1, ps.p):
        den = den * (ps.b(j, k + 1) + (nk - 1))
    return den


def _shells(ps, x=None):
    """The shell walk: yield [A_n x^n for n in shell_indices(m, d)] for
    d = 1, 2, ..., or [A_n ...] when x is None.

    Each entry comes from its predecessor n - e_k, k the first nonzero axis
    of n, through the one-step ratio A_n / A_{n-e_k}. In lexicographic
    order the entries of shell d with first nonzero axis k are the entries
    of shell d-1 with no nonzero axis before k, in order, each stepped
    along e_k: its block with n_k = f-1 becomes the block with n_k = f. So a
    shell is one list comprehension per axis over a prefix of the previous
    shell, and needs no index bookkeeping. The ratio's numerator is shared
    by the whole shell; each denominator is computed once per walk.
    """
    one = ps.one()
    m = ps.m
    dens = [[None] for _ in range(m)]  # dens[k][f]: denominator at n_k = f
    shell = [one]
    d = 0
    while True:
        d += 1
        num = _numerator(ps, d, one)
        new = []
        for k in reversed(range(m)):
            dk = dens[k]
            dk.append(_denominator(ps, k, d, one))
            # With j axes after k, the block of the prefix with n_k = f-1 has
            # comb(d-f+j-1, j-1) entries: one at f = d for j = 0, one per f
            # for j = 1. zip stops where the ratios, and so the prefix, end.
            j = m - k - 1
            if j == 0:
                ratios = [num / dk[d]]
            elif j == 1:
                ratios = [num / den for den in dk[1:]]
            else:
                ratios = []
                for f in range(1, d + 1):
                    ratios += [num / dk[f]] * math.comb(d - f + j - 1, j - 1)
            if x is None:
                new += [t * r for t, r in zip(shell, ratios)]
            else:
                xk = x[k]
                new += [t * xk * r for t, r in zip(shell, ratios)]
        shell = new
        yield shell


def coefficient(ps, n):
    """The series coefficient A_n.

    Exact mode: direct Pochhammer product. Float mode: one-step ratio walk
    from the origin, axis by axis (numerically tamer than naked factorial
    products).
    """
    _check_valid(ps)
    n = check_index(n, ps.m)
    if ps.is_exact:
        num = Fraction(1)
        for i in range(1, ps.p + 1):
            num = num * pochhammer(ps.a_i(i), sum(n))
        den = Fraction(1)
        for k in range(1, ps.m + 1):
            for j in range(1, ps.p):
                den = den * pochhammer(ps.b(j, k), n[k - 1])
            den = den * math.factorial(n[k - 1])
        return num / den
    one = complex(1)
    value = one
    d = 0
    for k, nk in enumerate(n):
        for step in range(1, nk + 1):
            d += 1
            value *= _numerator(ps, d, one) / _denominator(ps, k, step, one)
    return value


def coefficient_table(ps, N):
    """All A_n for |n| <= N via the one-step recurrence, shell by shell.

    Works in either mode; in exact mode this is the recurrence route that
    tests cross-check against the direct product.
    """
    _check_valid(ps)
    table = {(0,) * ps.m: ps.one()}
    for d, shell in zip(range(1, N + 1), _shells(ps)):
        table.update(zip(shell_indices(ps.m, d), shell))
    return table


# ---------------------------------------------------------------------------
# truncated series

@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients on all |n| <= N plus prefactor exponents (mu for Phi_J).

    Indices missing from coeffs are filled with zero; an index beyond N is
    a ValidationError.
    """

    N: int
    m: int
    coeffs: dict
    prefactor_exponents: tuple
    mode: str

    def __post_init__(self):
        zero = Fraction(0) if self.mode == EXACT else complex(0)
        for n in all_indices(self.m, self.N):
            self.coeffs.setdefault(n, zero)
        extra = [n for n in self.coeffs if sum(n) > self.N]
        if extra:
            raise ValidationError(f"coefficient beyond truncation order: {extra[0]}")

    def __getitem__(self, n):
        return self.coeffs[tuple(n)]

    def scale(self, c):
        return TruncatedSeries(self.N, self.m,
                               {n: v * c for n, v in self.coeffs.items()},
                               self.prefactor_exponents, self.mode)

    def add(self, other):
        if (other.N, other.m, other.prefactor_exponents) != (self.N, self.m, self.prefactor_exponents):
            raise ValidationError("series shapes differ")
        return TruncatedSeries(self.N, self.m,
                               {n: v + other.coeffs[n] for n, v in self.coeffs.items()},
                               self.prefactor_exponents, self.mode)

    def max_abs(self):
        if self.mode == EXACT:
            return max((exact_abs(v) for v in self.coeffs.values()), default=Fraction(0))
        return max((abs(v) for v in self.coeffs.values()), default=0.0)


def series_table(ps, N):
    """The plain series as a TruncatedSeries (zero prefactor)."""
    zero = ps.zero()
    pref = tuple(zero for _ in range(ps.m))
    return TruncatedSeries(N, ps.m, coefficient_table(ps, N), pref, ps.mode)


def phi_series(ps, J, N):
    """The J-th fundamental solution as (prefactor exponents, series table).

    Coefficients are those of the eta-transformed parameter set; the
    prefactor exponents are mu_J.
    """
    mu, _ = solution_exponents(ps, J)
    tps = transform_parameters(ps, J)
    return TruncatedSeries(N, ps.m, coefficient_table(tps, N), tuple(mu), ps.mode)


# ---------------------------------------------------------------------------
# evaluation

def in_domain(x, p):
    """True iff sum_k |x_k|^{1/p} < 1 (strict).

    >>> in_domain((0.04, 0.04), 2)
    True
    >>> in_domain((1.0, 0.0), 2)
    False
    """
    return domain_radius(x, p) < 1.0


def domain_radius(x, p):
    return float(sum(abs(complex(v)) ** (1.0 / p) for v in x))


@dataclass(frozen=True)
class EvalResult:
    value: complex
    N_used: int
    tail_bound: float


def evaluate(ps, x, tol=1e-10, max_shells=None):
    """Sum the series at x by total-degree shells.

    Stops at the first shell where shell_abs * q/(1-q) < tol, q = r^p,
    r = sum |x_k|^{1/p}; that estimate is returned as tail_bound. Raises
    DomainError outside D. A hard shell cap (default 500, override with
    max_shells or FCPM_MAX_SHELLS) bounds the work; if the cap is hit the
    result is returned with whatever tail_bound was last computed, so
    callers can reject.
    """
    _check_valid(ps)
    x = tuple(complex(v) for v in x)
    if len(x) != ps.m:
        raise ValidationError(f"point arity {len(x)} != m={ps.m}")
    r = domain_radius(x, ps.p)
    if r >= 1.0:
        raise DomainError(f"sum |x_k|^(1/p) = {r:.6g} >= 1: outside the convergence domain")
    q = r ** ps.p
    geom = q / (1.0 - q)
    cap = max_shells_cap(max_shells)

    walk = _shells(ps.as_float(), x)
    value = complex(1)
    tail = geom
    used = 0
    while tail >= tol and used < cap:
        shell = next(walk)
        used += 1
        value += sum(shell)
        tail = sum(map(abs, shell)) * geom
    return EvalResult(value, used, tail)


def evaluate_phi(ps, J, x, tol=1e-10, max_shells=None):
    """Evaluate the fundamental solution Phi_J at x (principal branches).

    Phi_J = (prod_k x_k^{mu_k}) * F(a + sigma*1, eta-transformed B; x).
    Every coordinate carrying a nonzero exponent must avoid the branch
    cut (-infinity, 0].
    """
    if not isinstance(J, SolutionLabel):
        J = SolutionLabel(ps.p, tuple(J))
    mu, _ = solution_exponents(ps, J)
    x = tuple(complex(v) for v in x)
    pref = complex(1)
    for k, (mk, xk) in enumerate(zip(mu, x), start=1):
        mkc = to_complex(mk)
        if mkc == 0:
            continue
        if xk.imag == 0 and xk.real <= 0:
            raise BranchError(f"x_{k} = {xk} lies on the branch cut (-inf, 0] "
                              f"with exponent mu_{k} = {mkc}")
        pref *= cmath.exp(mkc * cmath.log(xk))
    tps = transform_parameters(ps, J)
    return pref * evaluate(tps, x, tol, max_shells).value


@dataclass(frozen=True)
class ProbeResult:
    max_term: float
    growing: bool


def divergence_probe(ps, x, shells=60):
    """Scan |A_n x^n| for |n| <= shells.

    growing is true iff the largest term on the last shell is at least 10
    times the largest on shell 0 (which is 1). Useful as evidence of
    divergence outside the domain; inside, terms decay geometrically.
    """
    _check_valid(ps)
    x = tuple(complex(v) for v in x)
    overall = 1.0
    last = 1.0
    for shell in itertools.islice(_shells(ps.as_float(), x), shells):
        last = max(map(abs, shell))
        overall = max(overall, last)
    return ProbeResult(overall, last >= 10.0)

