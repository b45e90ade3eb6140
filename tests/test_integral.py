import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from fcpm.errors import ConvergenceError, PoleError, ValidationError
from fcpm.integral import (check_integral_hypotheses, coefficient_via_integral,
                           dirichlet_integral, gamma_value,
                           reflection_identity_check)
from fcpm.params import parameter_set, random_generic_parameters
from fcpm.series import all_indices, coefficient
from oracles import gamma, gamma_reciprocal_limit

F = Fraction


# ---------------------------------------------------------------------------
# gamma

def test_gamma_base_values():
    assert abs(gamma_value(1.0) - 1) < 1e-14
    assert abs(gamma_value(5.0) - 24) < 1e-12
    assert abs(gamma_value(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma_value(1.5) - math.sqrt(math.pi) / 2) < 1e-14


def test_gamma_poles():
    for z in (0, -1, -5, -12.0):
        with pytest.raises(PoleError):
            gamma_value(z)


def test_gamma_reflection_identity():
    z = 0.3 + 0.2j
    lhs = gamma_value(z) * gamma_value(1 - z) * cmath.sin(cmath.pi * z) / cmath.pi
    assert abs(lhs - 1) < 1e-10


def test_gamma_recurrence_grid():
    # Gamma(z+1) = z Gamma(z) on a 100-point complex grid
    pts = [0.1 + 0.5 * i + (0.37j * j - 1.1j) for i in range(10) for j in range(10)]
    for z in pts:
        if abs(z.imag) < 1e-9 and abs(z - round(z.real)) < 1e-9 and z.real <= 0:
            continue
        lhs = gamma_value(z + 1)
        rhs = z * gamma_value(z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs), z


def test_gamma_real_axis_accuracy():
    for k in range(1, 120):
        x = 0.1 + k * 0.41
        if x > 50:
            break
        want = math.gamma(x)
        assert abs(gamma_value(x) - want) <= 1e-12 * want


def test_gamma_against_mpmath_complex():
    rng = random.Random(70)
    for _ in range(40):
        z = complex(rng.uniform(-4, 6), rng.uniform(-4, 4))
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue
        want = complex(mpmath.gamma(z))
        assert abs(gamma_value(z) - want) <= 1e-11 * abs(want), z


def test_gamma_value_wrapper():
    gv = gamma(2.5)
    assert abs(gv.value - math.gamma(2.5)) < 1e-12
    assert gv.rel_err <= 1e-10


def test_gamma_limit_formula_cross_check():
    # 1/Gamma(s) = lim (s,N)/((N-1)! N^s): an independent slow oracle
    for s in (0.7, 1.9, 1.7 + 0.3j, 2.4 - 0.8j):
        slow = gamma_reciprocal_limit(s)
        fast = 1 / gamma_value(s)
        # limit truncation error is O(|s(s-1)|/N) with N = 1e5
        assert abs(slow - fast) <= 1e-4 * abs(fast), s


# ---------------------------------------------------------------------------
# Dirichlet integrals over the simplex

def test_dirichlet_trivial_volumes():
    assert abs(dirichlet_integral(1.0, [1.0]).quadrature - 1) < 1e-12
    assert abs(dirichlet_integral(1.0, [1.0, 1.0]).quadrature - 0.5) < 1e-12


def test_dirichlet_known_beta_value():
    res = dirichlet_integral(3.0, [2.0])
    assert abs(res.quadrature - F(1, 12)) < 1e-12
    assert abs(res.closed_form - F(1, 12)) < 1e-12


def test_dirichlet_complex_exponents():
    res = dirichlet_integral(1.3 + 0.2j, [0.7 - 0.1j, 2.1 + 0.4j])
    rel = abs(res.quadrature - res.closed_form) / abs(res.closed_form)
    assert rel < 1e-8


def test_dirichlet_random_draws_match_closed_form():
    rng = random.Random(71)
    for _ in range(15):
        m = rng.choice([1, 2])
        s0 = complex(rng.uniform(0.2, 3), rng.uniform(-0.5, 0.5))
        s = [complex(rng.uniform(0.2, 3), rng.uniform(-0.5, 0.5))
             for _ in range(m)]
        res = dirichlet_integral(s0, s)
        assert abs(res.quadrature - res.closed_form) <= 1e-6 * abs(res.closed_form)


def test_dirichlet_rejects_nonpositive_real_part():
    with pytest.raises(ConvergenceError):
        dirichlet_integral(-0.5, [1.0])
    with pytest.raises(ConvergenceError):
        dirichlet_integral(1.0, [0.0, 1.0])


# ---------------------------------------------------------------------------
# reflection identities

def test_reflection_examples():
    assert reflection_identity_check(F(1, 5), 0)
    assert reflection_identity_check(F(1, 5), 3)
    assert reflection_identity_check(1 / 3 + 1j / 7, 5)


def test_reflection_rational_grid():
    for r in range(2, 14):
        for q in range(1, r):
            if math.gcd(q, r) != 1:
                continue
            for n in (0, 1, 4, 10):
                assert reflection_identity_check(F(q, r), n), (q, r, n)


def test_reflection_random_complex():
    rng = random.Random(72)
    for _ in range(20):
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(b.imag) < 1e-3:
            continue
        assert reflection_identity_check(b, rng.randrange(0, 9))


# ---------------------------------------------------------------------------
# the coefficient route through the Euler integral

def test_hypotheses_accept_generic_draws():
    for seed in range(4):
        ps = random_generic_parameters(2, 2, random.Random(seed))
        assert check_integral_hypotheses(ps) == ()


def test_hypotheses_name_failures():
    # a_1 integral
    ps = parameter_set([F(2), F(1, 3), F(1, 7)], [[F(1, 5)], [F(1, 11)]])
    msgs = check_integral_hypotheses(ps)
    assert any("a_1" in v for v in msgs)
    # b_{1,1} integral
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)], [[F(1)], [F(1, 11)]])
    msgs = check_integral_hypotheses(ps)
    assert any("b_{1,1}" in v for v in msgs)


def test_coefficient_via_integral_rejects_bad_params():
    ps = parameter_set([F(2), F(1, 3), F(1, 7)], [[F(1, 5)], [F(1, 11)]])
    with pytest.raises(ValidationError) as e:
        coefficient_via_integral(ps, (1,))
    assert "a_1" in str(e.value)


@pytest.mark.parametrize("n", [(2, -1), (1,), (0, 0, 0)])
def test_coefficient_via_integral_rejects_bad_index(n):
    ps = random_generic_parameters(2, 2, random.Random(73))
    with pytest.raises(ValidationError):
        coefficient_via_integral(ps, n)


def test_coefficient_via_integral_normalization():
    ps = random_generic_parameters(2, 2, random.Random(73))
    assert abs(coefficient_via_integral(ps, (0, 0)) - 1) < 1e-12


def test_coefficient_via_integral_gauss_case():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5)]])
    got = coefficient_via_integral(ps, (2,))
    want = float(coefficient(ps, (2,)))  # 25/36
    assert want == 25 / 36
    assert abs(got - want) <= 1e-12 * want


def test_coefficient_via_integral_matches_series():
    for (p, m), seed in [((2, 1), 74), ((2, 2), 75), ((3, 2), 76)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        for n in all_indices(m, 4):
            got = coefficient_via_integral(ps, n)
            want = complex(coefficient(ps, n))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (p, m, n)
