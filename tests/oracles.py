"""Independent reference routes that the tests compare the package against.

None of these is used by the package itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from fcpm.errors import ValidationError
from fcpm.integral import gamma_value
from fcpm.series import pochhammer


# ---------------------------------------------------------------------------
# series

def lauricella_fc_coefficient(a1, a2, c_cols, n):
    """Independent p=2 cross-check: (a1,|n|)(a2,|n|) / prod_k (c_k,n_k) n_k!.

    The classical m-variable coefficient with denominators c_k = b_{1,k}.
    Exact for exact inputs.
    """
    total = sum(n)
    num = pochhammer(a1, total) * pochhammer(a2, total)
    den = Fraction(1)
    for ck, nk in zip(c_cols, n):
        den = den * pochhammer(ck, nk) * math.factorial(nk)
    return num / den


# ---------------------------------------------------------------------------
# exact linear algebra

def charpoly_exact(mat):
    """Ascending coefficients of det(lambda I - A) for a small exact matrix.

    Faddeev-LeVerrier over Fractions: exact, O(n^4), fine for the small
    matrices the tests meet.
    """
    n = len(mat)
    A = [[Fraction(v) for v in row] for row in mat]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# column reflections

@dataclass(frozen=True)
class ReflectionData:
    """v = 1_p + e_j - e_p and W = p*id - 1*1^t behind the eta maps."""
    p: int
    j: int
    v: tuple
    W: tuple


def reflection_data(p, j):
    if not 1 <= j <= p:
        raise IndexError(f"reflection index {j} out of range 1..{p}")
    v = [1] * p
    v[j - 1] += 1
    v[p - 1] -= 1
    W = tuple(tuple(p - 1 if r == c else -1 for c in range(p)) for r in range(p))
    return ReflectionData(p, j, tuple(v), W)


def eta_via_reflection(b_col, j):
    """eta computed from its reflection form id - (2/(v^t W v)) v v^t W.

    Agrees with eta() on every column whose last entry is 1 (the linear
    formula reproduces the affine map exactly on that hyperplane).
    """
    p = len(b_col)
    if j == p:
        return tuple(b_col)
    rd = reflection_data(p, j)
    Wb = [sum(rd.W[r][c] * b_col[c] for c in range(p)) for r in range(p)]
    vWb = sum(rd.v[r] * Wb[r] for r in range(p))
    vWv = sum(rd.v[r] * sum(rd.W[r][c] * rd.v[c] for c in range(p)) for r in range(p))
    if vWv == 0:
        raise ValidationError("degenerate reflection vector")
    return tuple(b_col[r] - Fraction(2, vWv) * rd.v[r] * vWb for r in range(p))


# ---------------------------------------------------------------------------
# gamma

GAMMA_REL_ERR = 1e-12  # coarse documented bound on the tested grid


@dataclass(frozen=True)
class GammaValue:
    value: complex
    rel_err: float


def gamma(zc):
    """Gamma with a coarse relative-error estimate attached.

    The Lanczos set behind gamma_value is good to ~1e-13 on the
    reflection-free half-plane; the reported bound 1e-12 keeps margin for
    the reflection path. Raises PoleError at nonpositive integers.
    """
    return GammaValue(gamma_value(zc), GAMMA_REL_ERR)


def gamma_reciprocal_limit(s, N=100000):
    """Independent slow route: 1/Gamma(s) ~ (s,N) / ((N-1)! N^s).

    Entirely log-space sums, no call into the Lanczos code; converges like
    |s(s-1)|/(2N), so it is a cross-check oracle, not a fast evaluator.
    """
    s = complex(s)
    log_num = complex(0)
    for k in range(N):
        log_num += cmath.log(s + k)
    log_den = math.fsum(math.log(k) for k in range(1, N)) + s * math.log(N)
    return cmath.exp(log_num - log_den)
