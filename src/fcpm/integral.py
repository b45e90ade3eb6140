"""Gamma, Dirichlet simplex integrals, and the Euler-integral coefficient route.

The series coefficient A_n admits an independent assembly through gamma
values: a constant

  c = prod_{j<p} Gamma(1-a_j) / [ prod_k Gamma(1-b_{j,k})
                                   * Gamma(1 + sum_k b_{j,k} - a_j - m) ]

times, for each j < p, the simplex-integral value

  I_j(n) = prod_k Gamma(1-b_{j,k}-n_k) / Gamma(1-a_j-|n|)
           * Gamma(1 + sum_k b_{j,k} - a_j - m),

times (a_p,|n|) / prod n_k!. Every gamma here is evaluated numerically, so
agreement with the exact Pochhammer-product coefficient is a genuine
two-route check. The reflection identity

  Gamma(1-b-n) = Gamma(1-b) / ((-1)^n (b,n))

that links the routes is also checked on its own, numerically and exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, PoleError, ValidationError
from .params import FLOAT_HEURISTIC_TOL
from .rings import is_integer_rational, to_complex
from .series import check_index, pochhammer

# Godfrey's 15-coefficient Lanczos set, g = 607/128.
LANCZOS_G = 607.0 / 128.0
LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_pole(z):
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def gamma_value(z):
    """Complex gamma by Lanczos, reflection for Re(z) < 1/2."""
    z = complex(z)
    if _is_pole(z):
        raise PoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma_value(1.0 - z))
    zz = z - 1.0
    acc = LANCZOS_COEFFS[0]
    for i, c in enumerate(LANCZOS_COEFFS[1:], start=1):
        acc += c / (zz + i)
    t = zz + LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * acc


# ---------------------------------------------------------------------------
# Dirichlet integral over the simplex

@dataclass(frozen=True)
class DirichletResult:
    quadrature: complex
    closed_form: complex
    order_used: int


def _raised(si, qi):
    """Raise both exponents of an axis integral to Re >= 4.

    Uses the exact recurrences B(s, q) = B(s+1, q) (s+q)/s and
    B(s, q) = B(s, q+1) (s+q)/q, so B(si, qi) = factor * B(si', qi').
    Larger real parts make the Jacobi weight absorb more of the endpoint
    behaviour, which keeps the oscillatory residual of a complex exponent
    quadrature-friendly.
    """
    fac = complex(1)
    while si.real < 4.0:
        fac *= (si + qi) / si
        si += 1
    while qi.real < 4.0:
        fac *= (si + qi) / qi
        qi += 1
    return si, qi, fac


def dirichlet_integral(s0, s, tol=1e-8, max_order=512):
    """int over {t_i >= 0, sum t <= 1} of prod t_i^{s_i-1} (1-sum t)^{s0-1} dt.

    The simplex maps to the unit cube by t_i = u_i prod_{j<i} (1-u_j),
    under which the integrand factorizes as prod_i u_i^{s_i-1}
    (1-u_i)^{q_i-1} with q_i = s0 + sum_{j>i} s_j; the quadrature is the
    tensorized Gauss-Jacobi rule absorbing the real parts of the exponents
    into the weight, with order doubling from 8 until two successive
    estimates agree to tol (relative) or max_order is reached. Axes with
    complex exponents are first raised to Re >= 4 by the exact one-step
    recurrences (see _raised), which is what keeps the oscillatory residual
    convergent. The closed form prod Gamma(s_i) Gamma(s0) / Gamma(s0 +
    sum s_i) uses this module's gamma.

    Requires Re(s_i) > 0 and Re(s0) > 0 (the classical convergence regime).
    """
    # Imported here because nothing else needs them and they dominate the
    # package's import time.
    import numpy as np
    from scipy.special import roots_jacobi

    s = [complex(v) for v in s]
    s0 = complex(s0)
    if s0.real <= 0 or any(v.real <= 0 for v in s):
        raise ConvergenceError("Dirichlet integral needs Re > 0 exponents; "
                               f"got s0={s0}, s={s}")
    qs = [s0 + sum(s[i + 1:], start=complex(0)) for i in range(len(s))]
    axes = []
    for si, qi in zip(s, qs):
        if si.imag == 0.0 and qi.imag == 0.0:
            axes.append((si, qi, complex(1)))
        else:
            axes.append(_raised(si, qi))

    def tensor(order):
        total = complex(1)
        for si, qi, fac in axes:
            nodes, weights = roots_jacobi(order, qi.real - 1.0, si.real - 1.0)
            # residual factor carries the imaginary parts of the exponents
            vals = np.exp(1j * (qi.imag * np.log(1.0 - nodes)
                                + si.imag * np.log(1.0 + nodes)))
            axis = complex(np.sum(weights * vals))
            total *= fac * axis * 2.0 ** (1.0 - si - qi)
        return total

    order = 8
    prev = tensor(order)
    while order < max_order:
        order *= 2
        cur = tensor(order)
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            prev = cur
            break
        prev = cur
    else:
        raise ConvergenceError(f"no agreement to {tol} by order {max_order}")
    closed = gamma_value(s0)
    for v in s:
        closed *= gamma_value(v)
    closed /= gamma_value(s0 + sum(s, start=complex(0)))
    return DirichletResult(prev, closed, order)


# ---------------------------------------------------------------------------
# reflection identities

def reflection_identity_check(b, n, rel_tol=1e-9):
    """Check Gamma(1-b-n) * (-1)^n * (b,n) == Gamma(1-b).

    Numeric route always; for rational b the same identity is also
    verified exactly in Pochhammer form, (1-b-n, n) == (-1)^n (b,n).
    """
    n = int(n)
    bc = complex(b)
    lhs = gamma_value(1 - bc - n) * (-1) ** n * complex(pochhammer(bc, n))
    rhs = gamma_value(1 - bc)
    ok = abs(lhs - rhs) <= rel_tol * abs(rhs)
    if isinstance(b, (int, Fraction)):
        bf = Fraction(b)
        exact = pochhammer(1 - bf - n, n) == (-1) ** n * pochhammer(bf, n)
        ok = ok and exact
    return ok


# ---------------------------------------------------------------------------
# the coefficient route through the integral

def check_integral_hypotheses(ps):
    """Violations of: a_j, b_{j,k}, a_j - sum_k b_{j,k} not in Z (j < p)."""
    out = []
    for j in range(1, ps.p):
        if _integerish(ps.a_i(j), ps):
            out.append(f"a_{j} in Z")
        for k in range(1, ps.m + 1):
            if _integerish(ps.b(j, k), ps):
                out.append(f"b_{{{j},{k}}} in Z")
        diff = ps.a_i(j) - sum(ps.b(j, k) for k in range(1, ps.m + 1))
        if _integerish(diff, ps):
            out.append(f"a_{j} - sum_k b_{{{j},k}} in Z")
    return tuple(out)


def _integerish(v, ps):
    if ps.is_exact:
        return is_integer_rational(v)
    c = complex(v)
    return abs(c.imag) <= FLOAT_HEURISTIC_TOL and \
        abs(c.real - round(c.real)) <= FLOAT_HEURISTIC_TOL


def coefficient_via_integral(ps, n):
    """A_n assembled from numeric gamma values (see module docstring).

    Raises ValidationError when the hypotheses fail (some gamma would sit
    on a pole or the normalizing constant would be ill-defined).
    """
    problems = check_integral_hypotheses(ps)
    if problems:
        raise ValidationError("integral-representation hypotheses violated: "
                              + "; ".join(problems))
    n = check_index(n, ps.m)
    total = sum(n)
    m = ps.m
    value = complex(1)
    for j in range(1, ps.p):
        aj = to_complex(ps.a_i(j))
        bj = [to_complex(ps.b(j, k)) for k in range(1, m + 1)]
        sum_b = sum(bj)
        # constant-factor block for this j
        value *= gamma_value(1 - aj)
        value /= gamma_value(1 + sum_b - aj - m)
        for k in range(m):
            value /= gamma_value(1 - bj[k])
        # simplex-integral value for this j at shift n
        for k in range(m):
            value *= gamma_value(1 - bj[k] - n[k])
        value /= gamma_value(1 - aj - total)
        value *= gamma_value(1 + sum_b - aj - m)
    ap = to_complex(ps.a_i(ps.p))
    value *= complex(pochhammer(ap, total))
    for nk in n:
        value /= math.factorial(nk)
    return value
