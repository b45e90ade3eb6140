"""Parameter sets for the F_C^{p,m} family.

A parameter set is a numerator vector `a` of length p together with a p x m
exponent matrix `B` whose last row is identically 1. Scalars live in one of
two modes, fixed per set:

  * "exact": fractions.Fraction or GaussianRational; supports exact equality
    and integrality tests;
  * "float": complex double precision; only tolerance-based comparison.

This module also houses the genericity (non-integrality) conditions, the
column reflection maps used to build the fundamental solutions, and the
solution labels J with their exponent vectors mu_J.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModeError, ValidationError
from .rings import (GaussianRational, format_rational, is_integer_rational,
                    parse_rational, to_complex)

EXACT = "exact"
FLOAT = "float"

FLOAT_INT_TOL = 1e-12       # validate(): distance to a nonpositive integer
FLOAT_HEURISTIC_TOL = 1e-9  # check_nonintegrality() float-mode verdicts

_EXACT_TYPES = (int, Fraction, GaussianRational)


def coerce_exact(v):
    """Coerce v to an exact scalar (Fraction or GaussianRational)."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, float):
        if v == int(v):
            return Fraction(int(v))
        raise ValidationError(f"non-integer float {v!r} not admitted in exact mode; "
                              "pass a rational string like \"3/4\"")
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return GaussianRational(parse_rational(v.get("re", 0)),
                                parse_rational(v.get("im", 0)))
    raise ValidationError(f"cannot read {v!r} as an exact scalar")


def coerce_float(v):
    """Coerce v to a complex double."""
    if isinstance(v, str):
        return complex(parse_rational(v))
    if isinstance(v, GaussianRational):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def _is_integer(v, mode):
    """Integrality test; exact in exact mode, 1e-9 heuristic in float mode."""
    if mode == EXACT:
        return is_integer_rational(v)
    c = complex(v)
    return (abs(c.imag) <= FLOAT_HEURISTIC_TOL
            and abs(c.real - round(c.real)) <= FLOAT_HEURISTIC_TOL)


def check_shape(p, m):
    """Raise ValidationError unless p >= 2 and m >= 1 are integers."""
    if not (isinstance(p, int) and isinstance(m, int) and p >= 2 and m >= 1):
        raise ValidationError(f"need integers p >= 2 and m >= 1, got p={p}, m={m}")


@dataclass(frozen=True)
class ParameterSet:
    """Parameters (a, B) with a fixed scalar mode.

    a: tuple of p scalars; B: tuple of p row-tuples of length m, the last
    row all ones. Indexing helpers are 1-based to match the usual notation
    a_i, b_{j,k}.
    """

    p: int
    m: int
    a: tuple
    B: tuple
    mode: str = EXACT

    def __post_init__(self):
        check_shape(self.p, self.m)
        if len(self.a) != self.p:
            raise ValidationError(f"a has length {len(self.a)}, expected p={self.p}")
        if len(self.B) != self.p or any(len(row) != self.m for row in self.B):
            raise ValidationError(f"B must be {self.p}x{self.m}")
        want = _EXACT_TYPES if self.mode == EXACT else (complex,)
        for s in list(self.a) + [v for row in self.B for v in row]:
            if not isinstance(s, want):
                raise ModeError(f"scalar {s!r} of type {type(s).__name__} "
                                f"not admissible in {self.mode} mode")

    # -- 1-based accessors matching a_i, b_{j,k} -------------------------
    def a_i(self, i):
        return self.a[i - 1]

    def b(self, j, k):
        return self.B[j - 1][k - 1]

    def column(self, k):
        """Column b_k of B as a tuple of p scalars."""
        return tuple(self.B[j][k - 1] for j in range(self.p))

    @property
    def is_exact(self):
        return self.mode == EXACT

    def one(self):
        """The scalar 1 in this set's mode."""
        return Fraction(1) if self.is_exact else complex(1)

    def zero(self):
        return Fraction(0) if self.is_exact else complex(0)

    def as_float(self):
        """A float-mode copy (exact scalars converted to complex)."""
        if not self.is_exact:
            return self
        return ParameterSet(self.p, self.m,
                            tuple(to_complex(v) for v in self.a),
                            tuple(tuple(to_complex(v) for v in row) for row in self.B),
                            FLOAT)

    def to_json_dict(self):
        return {"p": self.p, "m": self.m,
                "a": [scalar_to_json(v, self.mode) for v in self.a],
                "B": [[scalar_to_json(v, self.mode) for v in row] for row in self.B]}


def scalar_to_json(v, mode):
    if mode == EXACT:
        if isinstance(v, GaussianRational):
            if v.im == 0:
                return format_rational(v.re)
            return {"re": format_rational(v.re), "im": format_rational(v.im)}
        return format_rational(v)
    c = complex(v)
    return [c.real, c.imag]


def parameter_set(a, B, mode=None, p=None, m=None):
    """Build a ParameterSet, appending the implied all-ones last row if absent.

    mode=None infers: exact unless some scalar is a float/complex/[re,im] pair.
    """
    rows = [list(row) for row in B]
    if mode is None:
        flat = list(a) + [v for row in rows for v in row]
        floaty = any(isinstance(v, complex)
                     or (isinstance(v, float) and v != int(v))
                     or (isinstance(v, (list, tuple)) and len(v) == 2)
                     for v in flat)
        mode = FLOAT if floaty else EXACT
    if mode not in (EXACT, FLOAT):
        raise ValidationError(f"unknown mode {mode!r}")
    pp = p if p is not None else len(a)
    if len(rows) == pp - 1:
        width = m if m is not None else (len(rows[0]) if rows else None)
        if width is None:
            raise ValidationError("cannot infer m from an empty B")
        rows.append([1] * width)
    conv = coerce_exact if mode == EXACT else coerce_float
    a_t = tuple(conv(v) for v in a)
    B_t = tuple(tuple(conv(v) for v in row) for row in rows)
    mm = m if m is not None else (len(B_t[0]) if B_t else 0)
    return ParameterSet(pp, mm, a_t, B_t, mode)


def parameters_from_json(doc, mode=None):
    """Ingest {"p":int,"m":int,"a":[scalar],"B":[[scalar]]}.

    Scalars: "num/den" strings (exact) or [re,im] pairs (float); bare ints
    count as exact. The last row of B may be omitted. mode forces a mode;
    forcing exact onto float scalars is an error.
    """
    try:
        p = int(doc["p"])
        m = int(doc["m"])
        a = doc["a"]
        B = doc["B"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"parameter document missing field: {exc}") from exc
    return parameter_set(a, B, mode=mode, p=p, m=m)


# ---------------------------------------------------------------------------
# validity and genericity

def _in_minus_n(v, mode):
    """Membership of -N = {0,-1,-2,...}."""
    if mode == EXACT:
        if isinstance(v, GaussianRational):
            return v.im == 0 and v.re.denominator == 1 and v.re <= 0
        f = Fraction(v)
        return f.denominator == 1 and f <= 0
    c = complex(v)
    return (abs(c.imag) <= FLOAT_INT_TOL and c.real <= FLOAT_INT_TOL
            and abs(c.real - round(c.real)) <= FLOAT_INT_TOL)


def _is_one(v, mode):
    if mode == EXACT:
        return v == 1
    return abs(complex(v) - 1) <= FLOAT_INT_TOL


def validate(ps):
    """Structural validity: last row of B all 1, no b_{j,k} in -N (j < p).

    Returns a list of violated-condition descriptors; empty means valid.
    """
    out = []
    for k in range(1, ps.m + 1):
        if not _is_one(ps.b(ps.p, k), ps.mode):
            out.append(f"b_{{{ps.p},{k}}} != 1 (last row of B must be 1)")
    for j in range(1, ps.p):
        for k in range(1, ps.m + 1):
            if _in_minus_n(ps.b(j, k), ps.mode):
                out.append(f"b_{{{j},{k}}} in -N (nonpositive integer)")
    return out


@dataclass(frozen=True)
class GenericityReport:
    genericity_a: bool
    genericity_b: bool
    counts: tuple
    violations: tuple
    heuristic: bool = False


def check_nonintegrality(ps):
    """The two families of non-integrality conditions.

    genericity_a: a_i - sum_k b_{j_k,k} not in Z for every i and every label
    J in (Z_p)^m  (p^{m+1} conditions).
    genericity_b: b_{j,k} - b_{j',k} not in Z for every k and j < j'
    (m*p*(p-1)/2 conditions).

    Exact mode decides exactly; float mode is a 1e-9 heuristic and the
    report says so.
    """
    p, m = ps.p, ps.m
    viol_a, viol_b = [], []
    for J in itertools.product(range(1, p + 1), repeat=m):
        s = None
        for k, jk in enumerate(J, start=1):
            v = ps.b(jk, k)
            s = v if s is None else s + v
        for i in range(1, p + 1):
            if _is_integer(ps.a_i(i) - s, ps.mode):
                viol_a.append(f"a_{i} - sum_k b_{{j_k,k}} in Z at J={label_display(J, p)}")
    for k in range(1, m + 1):
        for j in range(1, p + 1):
            for j2 in range(j + 1, p + 1):
                if _is_integer(ps.b(j, k) - ps.b(j2, k), ps.mode):
                    viol_b.append(f"b_{{{j},{k}}} - b_{{{j2},{k}}} in Z")
    counts = (p ** (m + 1), m * p * (p - 1) // 2)
    return GenericityReport(not viol_a, not viol_b, counts,
                            tuple(viol_a + viol_b), heuristic=not ps.is_exact)


def require_generic(ps):
    """Raise ValidationError naming every failed validity/genericity condition."""
    problems = validate(ps)
    rep = check_nonintegrality(ps)
    problems.extend(rep.violations)
    if problems:
        raise ValidationError("; ".join(problems))
    return rep


# ---------------------------------------------------------------------------
# reflection maps on exponent columns

def eta(b_col, j):
    """Column reflection: b + (1 - b_j) * (1_p + e_j - e_p); identity at j=p.

    The last entry of the column must be 1; it stays 1.

    >>> eta((Fraction(1, 5), Fraction(1)), 1)
    (Fraction(9, 5), Fraction(1, 1))
    """
    p = len(b_col)
    if not 1 <= j <= p:
        raise IndexError(f"reflection index {j} out of range 1..{p}")
    if not (b_col[-1] == 1 or abs(to_complex(b_col[-1]) - 1) <= FLOAT_INT_TOL):
        raise ValidationError("column's last entry must be 1")
    if j == p:
        return tuple(b_col)
    t = 1 - b_col[j - 1]
    out = []
    for i, b in enumerate(b_col, start=1):
        v = 1 + (1 if i == j else 0) - (1 if i == p else 0)
        out.append(b + t * v)
    return tuple(out)


# ---------------------------------------------------------------------------
# solution labels

@dataclass(frozen=True)
class SolutionLabel:
    """Label J in (Z_p)^m with entries in {1..p}; p displays as 0."""

    p: int
    entries: tuple

    def __post_init__(self):
        for j in self.entries:
            if not 1 <= j <= self.p:
                raise ValidationError(f"label entry {j} outside 1..{self.p}")

    @classmethod
    def from_display(cls, p, seq):
        """Read a displayed label where 0 stands for p; ValidationError on a
        non-integral entry."""
        for j in seq:
            if j != int(j):
                raise ValidationError(f"label entry {j} is not an integer")
        return cls(p, tuple(int(j) or p for j in seq))

    def display(self):
        return tuple(0 if j == self.p else j for j in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        return "(" + ",".join(str(d) for d in self.display()) + ")"


def label_display(entries, p):
    return "(" + ",".join("0" if j == p else str(j) for j in entries) + ")"


def all_labels(p, m):
    """All p^m labels, odometer order over entries 1..p."""
    return [SolutionLabel(p, J) for J in itertools.product(range(1, p + 1), repeat=m)]


def solution_exponents(ps, J):
    """(mu, sigma) for the label J: mu_k = 1 - b_{j_k,k}, sigma = sum mu_k.

    At j_k = p the column entry is 1, so mu_k = 0 without a special case.
    """
    entries = J.entries if isinstance(J, SolutionLabel) else tuple(J)
    if len(entries) != ps.m:
        raise ValidationError(f"label length {len(entries)} != m={ps.m}")
    mu = tuple(1 - ps.b(jk, k) for k, jk in enumerate(entries, start=1))
    sigma = sum(mu)
    return mu, sigma


def transform_parameters(ps, J):
    """The parameter set of the J-th fundamental solution's series factor.

    a shifts by sigma_J in every slot; column k is reflected by eta_{j_k}.
    """
    entries = J.entries if isinstance(J, SolutionLabel) else tuple(J)
    _, sigma = solution_exponents(ps, entries)
    new_a = tuple(v + sigma for v in ps.a)
    cols = [eta(ps.column(k), entries[k - 1]) for k in range(1, ps.m + 1)]
    rows = tuple(tuple(cols[k][j] for k in range(ps.m)) for j in range(ps.p))
    return ParameterSet(ps.p, ps.m, new_a, rows, ps.mode)


def mu_table(ps):
    """Map displayed label -> mu vector over all p^m labels."""
    return {J.display(): solution_exponents(ps, J)[0] for J in all_labels(ps.p, ps.m)}


def random_generic_parameters(p, m, rng=None, max_int_shift=2):
    """Random exact-mode parameters certified generic.

    Denominators are pairwise distinct primes (one per slot), which forces
    every tested difference to be non-integral; the certificate is still
    re-checked exactly before returning.
    """
    rng = rng if rng is not None else random.Random()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    need = p + (p - 1) * m
    if need > len(primes):
        raise ValidationError(f"p={p}, m={m} too large for the prime pool")
    picks = rng.sample(primes, need)
    def draw(q):
        return Fraction(rng.randrange(1, q), q) + rng.randrange(0, max_int_shift + 1)
    a = tuple(draw(picks[i]) for i in range(p))
    rows = [tuple(draw(picks[p + j * m + k]) for k in range(m)) for j in range(p - 1)]
    rows.append(tuple(Fraction(1) for _ in range(m)))
    ps = ParameterSet(p, m, a, tuple(rows), EXACT)
    require_generic(ps)
    return ps
