import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcpm.errors import ValidationError
from fcpm.rings import (CycloScalar, GaussianRational, MPoly, cyclo_reduce,
                        cyclotomic_polynomial, exact_abs, format_rational,
                        is_integer_rational, parse_rational, rank_exact,
                        to_complex)
from oracles import charpoly_exact


# ---------------------------------------------------------------------------
# rational helpers

def test_parse_format_roundtrip():
    for text in ["0", "3", "-7", "1/2", "-22/7", "100/9"]:
        q = parse_rational(text)
        assert isinstance(q, Fraction)
        assert parse_rational(format_rational(q)) == q


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_rational("one half")
    with pytest.raises(ValidationError):
        parse_rational("1/0")


def test_is_integer_rational():
    assert is_integer_rational(Fraction(4, 2))
    assert not is_integer_rational(Fraction(1, 2))
    assert is_integer_rational(GaussianRational(3, 0))
    assert not is_integer_rational(GaussianRational(3, 1))


# ---------------------------------------------------------------------------
# Gaussian rationals

def test_gaussian_arithmetic():
    u = GaussianRational(1, 2)
    v = GaussianRational(3, -1)
    assert u * v == GaussianRational(5, 5)
    assert u + v == GaussianRational(4, 1)
    assert (u / v) * v == u
    assert -u == GaussianRational(-1, -2)
    assert complex(u) == 1 + 2j


def test_gaussian_mixes_with_fraction_and_int():
    u = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert u + 1 == GaussianRational(Fraction(3, 2), Fraction(1, 3))
    assert 2 * u == GaussianRational(1, Fraction(2, 3))
    assert Fraction(1, 2) + u == GaussianRational(1, Fraction(1, 3))
    assert u - u == GaussianRational(0, 0)
    assert not GaussianRational(0, 0)


def test_gaussian_field_axioms_random():
    rng = random.Random(7)

    def draw():
        return GaussianRational(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
                                Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)))

    for _ in range(50):
        a, b, c = draw(), draw(), draw()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


def test_exact_abs():
    assert exact_abs(Fraction(-3, 4)) == Fraction(3, 4)
    # 1-norm for Gaussian rationals: cheap, exact, zero iff the value is zero
    assert exact_abs(GaussianRational(-1, 2)) == Fraction(3)
    assert exact_abs(GaussianRational(0, 0)) == 0


def test_to_complex():
    assert to_complex(Fraction(1, 4)) == 0.25
    assert to_complex(GaussianRational(1, -2)) == 1 - 2j
    assert to_complex(1.5) == 1.5


# ---------------------------------------------------------------------------
# cyclotomic reduction

def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclo_reduce_examples():
    # zeta -> -1 mod Phi_2
    assert cyclo_reduce(2, [0, 1]) == (Fraction(-1),)
    # zeta^2 -> -1 - zeta mod Phi_3
    assert cyclo_reduce(3, [0, 0, 1]) == (Fraction(-1), Fraction(-1))
    # zeta^2 -> -1 mod Phi_4
    assert cyclo_reduce(4, [0, 0, 1]) == (Fraction(-1), Fraction(0))


def test_cyclo_reduce_kills_phi_p():
    # 1 + zeta + ... + zeta^(p-1) = 0 for prime p
    for p in (2, 3, 5, 7):
        assert cyclo_reduce(p, [1] * p) == (Fraction(0),) * (p - 1)


def test_cyclo_scalar_ring():
    z = CycloScalar.zeta(3)
    one = CycloScalar.one(3)
    assert z * z * z == one
    assert one + z + z * z == CycloScalar.from_rational(3, 0)
    # norm of 1 - zeta over Q(zeta_p) is p
    for p in (2, 3, 5):
        prod = CycloScalar.one(p)
        for k in range(1, p):
            prod = prod * (CycloScalar.one(p) - CycloScalar.zeta(p, k))
        assert prod.is_rational() and prod.rational_part() == p


def test_cyclo_scalar_complex_embedding():
    import cmath
    for p in (3, 4, 5):
        z = complex(CycloScalar.zeta(p))
        assert abs(z - cmath.exp(2j * cmath.pi / p)) < 1e-12


def test_cyclo_scalar_rationality_flags():
    z = CycloScalar.zeta(5)
    assert not z.is_rational()
    assert CycloScalar.from_rational(5, Fraction(2, 3)).rational_part() == Fraction(2, 3)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials

def test_mpoly_basic_ops():
    x = MPoly.monomial(2, (1, 0))
    y = MPoly.monomial(2, (0, 1))
    one = MPoly.const(2, Fraction(1))
    f = (one + x + y) ** 2
    assert f.coefficient((1, 1)) == 2
    assert f.coefficient((2, 0)) == 1
    assert f.total_degree() == 2
    assert not f.is_homogeneous()
    assert ((x + y) * (x - y)).terms == (x * x - y * y).terms


def test_mpoly_evaluate_matches_direct():
    x = MPoly.monomial(2, (1, 0))
    y = MPoly.monomial(2, (0, 1))
    f = (MPoly.const(2, Fraction(1)) - x) * (MPoly.const(2, Fraction(2)) + y)
    a, b = Fraction(1, 3), Fraction(-1, 5)
    assert f.evaluate((a, b)) == (1 - a) * (2 + b)


def test_mpoly_scale_vs_mul():
    x = MPoly.monomial(3, (1, 0, 0))
    f = x + MPoly.const(3, Fraction(2))
    assert f.scale(Fraction(1, 2)).coefficient((0, 0, 0)) == 1
    assert f.scale(0).terms == {}


def test_mpoly_sorted_terms_graded_lex():
    x = MPoly.monomial(2, (1, 0))
    y = MPoly.monomial(2, (0, 1))
    f = x * y + x + y * y
    exps = [e for e, _ in f.sorted_terms()]
    assert exps == sorted(exps, key=lambda e: (sum(e), tuple(-c for c in e)))


def test_mpoly_zero_and_pow():
    z = MPoly.zero(2)
    x = MPoly.monomial(2, (1, 0))
    assert (z * x).terms == {}
    assert (x ** 0).coefficient((0, 0)) == 1
    assert (x ** 3).coefficient((3, 0)) == 1


# ---------------------------------------------------------------------------
# exact linear algebra

def test_rank_exact_small():
    assert rank_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank_exact([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert rank_exact([]) == 0
    assert rank_exact([[Fraction(0), Fraction(0)]]) == 0


def test_rank_exact_gaussian_entries():
    i = GaussianRational(0, 1)
    one = GaussianRational(1, 0)
    # second row is i times the first: rank 1
    assert rank_exact([[one, i], [i, -one]]) == 1
    assert rank_exact([[one, i], [i, one]]) == 2


def test_rank_exact_random_vs_float():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(5)] for _ in range(4)]
        import numpy as np
        fl = np.linalg.matrix_rank(np.array([[float(v) for v in r] for r in rows]))
        assert rank_exact(rows) == fl


BIG = 10 ** 30
_rationals = st.builds(Fraction,
                       st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG)),
                       st.one_of(st.integers(1, 9), st.integers(1, BIG)))
_zero = st.just(Fraction(0))
RATIONAL = (st.one_of(_zero, _zero, _rationals), st.integers(-5, 5), Fraction(0))
GAUSSIAN = (st.one_of(_zero, _zero, st.builds(GaussianRational, _rationals, _rationals)),
            st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)),
            GaussianRational(0, 0))


@st.composite
def planted_matrices(draw, kind):
    """(ncols, rows): random sparse rows plus planted dependent rows.

    Planted rows are repeats, integer (or Gaussian integer) combinations of
    earlier rows, zero rows and, over Q(i), i times an earlier row, which
    lowers the rank over Q(i) but not the rank of the real and imaginary
    parts over Q. Rows are shuffled so dependents are not always last.
    """
    entries, multipliers, zero = kind
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=5))
    kinds = ["repeat", "combo", "zero"]
    if isinstance(zero, GaussianRational):
        kinds.append("times_i")
    for _ in range(draw(st.integers(0, 4))):
        how = draw(st.sampled_from(kinds))
        if how == "zero" or not rows:
            rows.append([zero] * ncols)
        elif how == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif how == "times_i":
            rows.append([v * GaussianRational(0, 1) for v in draw(st.sampled_from(rows))])
        else:
            cs = draw(st.lists(multipliers, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(cs, rows)), zero)
                         for j in range(ncols)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


def _sympy_rank(rows, ncols):
    def conv(v):
        v = GaussianRational.coerce(v)
        return sympy.Rational(v.re.numerator, v.re.denominator) + \
            sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)
    return sympy.Matrix(len(rows), ncols, [conv(v) for r in rows for v in r]).rank()


def _check_rank_forms(ncols, rows, cut):
    want = _sympy_rank(rows, ncols)
    assert rank_exact(rows, ncols) == want
    # ragged rows: trailing entries dropped, missing entries read as 0
    ragged = [r[:c] if not any(r[c:]) else r for r, c in zip(rows, cut)]
    assert rank_exact(ragged, ncols) == want
    # sparse {column: entry} rows
    assert rank_exact([{j: v for j, v in enumerate(r) if v} for r in rows]) == want


@settings(max_examples=150, deadline=None)
@given(planted_matrices(RATIONAL), st.lists(st.integers(0, 6), min_size=9, max_size=9))
@example((3, []), [0] * 9)
@example((3, [[Fraction(0)] * 3] * 4), [0] * 9)
def test_rank_exact_matches_sympy_rational(matrix, cut):
    _check_rank_forms(*matrix, cut)


@settings(max_examples=100, deadline=None)
@given(planted_matrices(GAUSSIAN), st.lists(st.integers(0, 6), min_size=9, max_size=9))
@example((2, [[GaussianRational(1, 0), GaussianRational(2, 0)],
              [GaussianRational(0, 1), GaussianRational(0, 2)]]), [2] * 9)
def test_rank_exact_matches_sympy_gaussian(matrix, cut):
    _check_rank_forms(*matrix, cut)


def test_charpoly_exact_known():
    # [[0,1],[1,0]] has characteristic polynomial x^2 - 1
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert charpoly_exact(m) == (Fraction(-1), Fraction(0), Fraction(1))
    # identity: (x-1)^2 = 1 - 2x + x^2
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert charpoly_exact(m) == (Fraction(1), Fraction(-2), Fraction(1))
