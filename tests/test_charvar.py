import random
from fractions import Fraction

import pytest

from fcpm.charvar import (INFINITE, L_symbol, c_chi, default_dmax,
                          expected_hilbert, expected_partial, hilbert_function,
                          partial_quotient_dims,
                          pullback_functional_check, pullback_operator,
                          random_generic_point, random_singular_point, rank_at,
                          specialize, symbols)
from fcpm.errors import ModeError, ValidationError
from fcpm.params import parameter_set, random_generic_parameters
from fcpm.rings import GaussianRational as G, MPoly
from fcpm.singular import on_singular_locus

F = Fraction


# ---------------------------------------------------------------------------
# specialization points

def test_specialize_flags():
    pt = specialize(2, 2, (F(1, 3), F(1, 5)))
    assert not pt.on_coordinate_axes and not pt.on_R_zero
    pt = specialize(2, 2, (F(1, 2), F(1, 2)))  # on 1 - z1 - z2 = 0
    assert pt.on_R_zero and not pt.on_coordinate_axes
    pt = specialize(2, 2, (F(0), F(1, 3)))
    assert pt.on_coordinate_axes


def test_specialize_flags_match_singular_module():
    rng = random.Random(30)
    for _ in range(10):
        z = tuple(F(rng.randrange(-5, 6), 7) for _ in range(2))
        pt = specialize(2, 2, z)
        x = tuple(v ** 2 for v in z)
        onloc = on_singular_locus(x, 2, 2)
        assert onloc == (pt.on_coordinate_axes or pt.on_R_zero)


def test_specialize_rejects_float():
    with pytest.raises(ModeError):
        specialize(2, 2, (0.3, 0.5))


# ---------------------------------------------------------------------------
# pullback of the annihilators through z_k^p = x_k

def test_pullback_functional_identity():
    # l~_k (f o phi) = (l_k f) o phi on monomials, exactly
    for (p, m), seed in [((2, 1), 31), ((2, 2), 32), ((3, 2), 33)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        for k in range(1, m + 1):
            for d in range(5):
                for alpha in _monomials(m, d):
                    assert pullback_functional_check(ps, k, alpha), (p, m, k, alpha)


def _monomials(m, d):
    if m == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out += [(first,) + rest for rest in _monomials(m - 1, d - first)]
    return out


def _flatten_symbol(sym, m):
    # MPoly in xi with MPoly-in-z coefficients -> {(z_exp + xi_exp): Fraction}
    flat = {}
    for xi_exp, czpoly in sym.terms.items():
        for z_exp, q in czpoly.terms.items():
            flat[z_exp + xi_exp] = flat.get(z_exp + xi_exp, F(0)) + q
    return {e: v for e, v in flat.items() if v}


def test_pullback_initial_form_is_L_symbol():
    # top theta-degree part of p^p * l~_k, with theta_j -> z_j xi_j,
    # equals L_k = (z_k xi_k)^p - z_k^p (sum z_j xi_j)^p
    for (p, m), seed in [((2, 2), 34), ((3, 2), 35), ((2, 1), 36)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        for k in range(1, m + 1):
            op = pullback_operator(k, ps)
            acc = MPoly.zero(2 * m)
            for t in op.terms:
                part = MPoly.const(2 * m, F(t.coef) * F(p) ** p)
                part = part * MPoly.monomial(2 * m, tuple(t.monomial) + (0,) * m)
                for f in t.factors:
                    lin = MPoly.zero(2 * m)
                    for j, w in enumerate(f.weights):
                        if w:
                            e = [0] * (2 * m)
                            e[j] = 1
                            e[m + j] = 1
                            lin = lin + MPoly.monomial(2 * m, tuple(e), F(w))
                    part = part * lin
                acc = acc + part
            assert dict(acc.terms) == _flatten_symbol(L_symbol(p, m, k), m)


# ---------------------------------------------------------------------------
# symbol generators M_k

def test_symbols_m1_closed_form():
    for p in (2, 3):
        (M,) = symbols(p, 1, (F(1, 3),))
        # (1 - z^p) xi^p
        assert dict(M.terms) == {(p,): 1 - F(1, 3) ** p}


def test_symbols_formal_and_specialized_relations():
    # construction itself asserts L_k = z_k^p (M_k + M_m), L_m = z_m^p M_m
    for (p, m) in [(2, 2), (3, 2), (2, 3)]:
        Ms = symbols(p, m)  # formal
        assert len(Ms) == m
        for M in Ms:
            assert M.is_homogeneous() and M.total_degree() == p
        Ms = symbols(p, m, tuple(F(1, 3 + i) for i in range(m)))
        for M in Ms:
            assert M.is_homogeneous() and M.total_degree() == p


def test_symbols_relation_explicit():
    z = (F(1, 3), F(1, 5))
    p, m = 2, 2
    Ms = symbols(p, m, z)
    for k in range(1, m + 1):
        L = L_symbol(p, m, k, z)
        if k < m:
            want = (Ms[k - 1] + Ms[m - 1]).scale(z[k - 1] ** p)
        else:
            want = Ms[m - 1].scale(z[m - 1] ** p)
        assert dict(L.terms) == dict(want.terms)


def test_symbols_reject_zero_coordinate():
    with pytest.raises(ValidationError):
        symbols(2, 2, (F(0), F(1, 3)))


# ---------------------------------------------------------------------------
# Hilbert functions and rank

def test_hilbert_generic_p2m2():
    H = hilbert_function(2, 2, (F(1, 3), F(1, 5)), 4)
    assert H == (1, 2, 1, 0, 0)
    assert sum(H) == 4


def test_hilbert_m1_band():
    for p in (2, 3):
        d_max = default_dmax(p, 1)
        H = hilbert_function(p, 1, (F(1, 3),), d_max)
        assert H == tuple(1 if d < p else 0 for d in range(d_max + 1))


def test_expected_hilbert_matches_polynomial_expansion():
    import sympy
    t = sympy.symbols("t")
    for (p, m) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        d_max = default_dmax(p, m)
        poly = sympy.Poly(sum(t ** i for i in range(p)) ** m, t)
        want = tuple(int(poly.coeff_monomial(t ** d)) for d in range(d_max + 1))
        assert expected_hilbert(p, m, d_max) == want


def test_hilbert_matches_expected_across_grid():
    for p in (2, 3):
        for m in (1, 2, 3):
            d_max = default_dmax(p, m)
            want = expected_hilbert(p, m, d_max)
            for seed in range(3):
                z = random_generic_point(p, m, random.Random(100 * p + 10 * m + seed))
                H = hilbert_function(p, m, z, d_max)
                assert H == want, (p, m, z)
                assert sum(H) == p ** m
                # once zero, stays zero
                started_zero = False
                for h in H:
                    if started_zero:
                        assert h == 0
                    started_zero = started_zero or h == 0


def test_partial_quotient_ladder():
    import sympy
    t = sympy.symbols("t")
    for (p, m) in [(2, 2), (3, 2), (2, 3)]:
        d_max = default_dmax(p, m)
        z = random_generic_point(p, m, random.Random(40 + p + m))
        for k in range(1, m):
            dims = partial_quotient_dims(p, m, z, k, d_max)
            series = sympy.series((1 - t ** p) ** k / (1 - t) ** m, t, 0, d_max + 1).removeO()
            poly = sympy.Poly(series, t)
            want = tuple(int(poly.coeff_monomial(t ** d)) for d in range(d_max + 1))
            assert dims == want == expected_partial(p, m, k, d_max)


def test_rank_at_examples():
    r = rank_at(2, 2, (F(1, 3), F(1, 5)))
    assert r.rank == 4 and not r.drop
    r = rank_at(2, 2, (F(1, 2), F(1, 2)))
    assert r.drop
    r = rank_at(2, 1, (F(1),))  # 1 - z^2 = 0: ideal vanishes identically
    assert r.rank == INFINITE and r.drop


def test_rank_drop_on_singular_points():
    for (p, m) in [(2, 2), (3, 2)]:
        for seed in range(3):
            z = random_singular_point(p, m, random.Random(50 * p + seed))
            assert rank_at(p, m, z).drop, (p, m, z)


@pytest.mark.parametrize("p, m, z, H", [
    (3, 3, (F(1, 3), F(1, 5), F(1, 7)), (1, 3, 6, 7, 6, 3, 1, 0, 0, 0)),
    (3, 3, (F(1, 2), F(1, 3), F(1, 6)), (1, 3, 6, 7, 6, 3, 1, 1, 1, 1)),
    (2, 4, (F(1, 3), F(1, 5), F(1, 7), F(1, 11)), (1, 4, 6, 4, 1, 0, 0)),
    # on the factor 1 - z1 + z2 - z3 - z4 of R
    (2, 4, (F(1, 2), F(1, 3), F(1, 5), F(19, 30)), (1, 4, 6, 4, 1, 1, 1)),
    # Gaussian points: the Macaulay rows are ranked over Q(i)
    (2, 2, (G(F(1, 3), F(1, 2)), G(F(1, 5), F(-1, 7))), (1, 2, 1, 0, 0)),
    (2, 2, (G(F(1, 2), F(1, 3)), G(F(1, 2), F(-1, 3))), (1, 2, 1, 1, 1)),
    (3, 2, (G(F(1, 3), F(1, 2)), F(1, 5)), (1, 2, 3, 2, 1, 0, 0, 0)),
])
def test_rank_at_pinned_hilbert(p, m, z, H):
    r = rank_at(p, m, z)
    assert r.H == H
    drop = H[-1] > 0
    assert r.drop == drop
    assert r.rank == (INFINITE if drop else p ** m)


# ---------------------------------------------------------------------------
# the invertibility scalars C

def test_c_chi_examples():
    v = c_chi(2, 2, (F(1, 4), F(1, 4)), (0,))
    assert v.is_rational() and v.rational_part() == F(3, 4)
    v = c_chi(2, 2, (F(1, 4), F(1, 4)), (1,))
    assert v.is_rational() and v.rational_part() == 1


def test_c_chi_zero_implies_singular():
    z = (F(1, 3), F(2, 3))  # z1 + z2 = 1
    v = c_chi(2, 2, z, (0,))
    assert not bool(v.rational_part()) and v.is_rational()
    x = tuple(c ** 2 for c in z)
    assert on_singular_locus(x, 2, 2)


def test_c_chi_rejects_float():
    with pytest.raises(ModeError):
        c_chi(2, 2, (0.25, 0.25), (0,))


# ---------------------------------------------------------------------------
# random point draws

def test_random_generic_point_certified():
    rng = random.Random(60)
    for _ in range(5):
        pt = random_generic_point(2, 2, rng)
        assert not pt.on_coordinate_axes and not pt.on_R_zero
        # flags were certified by exact evaluation
        assert specialize(2, 2, pt.z) == pt


def test_random_singular_point_certified():
    rng = random.Random(61)
    for _ in range(5):
        pt = random_singular_point(2, 2, rng)
        assert pt.on_R_zero and not pt.on_coordinate_axes
        assert specialize(2, 2, pt.z) == pt
