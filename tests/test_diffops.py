import random
from fractions import Fraction

import pytest

from fcpm.diffops import (EulerFactor, EulerOperatorExpr, EulerTerm,
                          annihilation_residual, apply, apply_poly,
                          coefficient_recurrence_check, operator_l,
                          theta_factor, total_theta_factor)
from fcpm.errors import ModeError
from fcpm.params import (SolutionLabel, all_labels, parameter_set,
                         random_generic_parameters)
from fcpm.series import series_table

F = Fraction


def gauss_ps():
    return parameter_set([F(1, 2), F(1, 3)], [[F(1, 5)]])


# ---------------------------------------------------------------------------
# factor and operator algebra

def test_theta_factor_eigenvalue():
    th1 = theta_factor(2, 1)
    assert th1.eigenvalue((3, 5), (0, 0)) == 3
    assert th1.eigenvalue((3, 5), (F(1, 2), 0)) == F(7, 2)
    shifted = theta_factor(2, 2, F(1, 3))
    assert shifted.eigenvalue((3, 5), (0, 0)) == F(16, 3)


def test_total_theta_factor():
    tot = total_theta_factor(2, F(1, 7))
    assert tot.eigenvalue((2, 3), (0, 0)) == 5 + F(1, 7)


def test_factor_shift_rule():
    # (w.theta + c) x^alpha = x^alpha (w.theta + c + w.alpha)
    f = theta_factor(2, 1, F(1, 5))
    g = f.shifted((2, 9))
    assert g.eigenvalue((0, 0), (0, 0)) == F(1, 5) + 2


def test_apply_poly_theta_on_monomials():
    th1 = EulerOperatorExpr(2, [EulerTerm(F(1), (0, 0), (theta_factor(2, 1),))])
    assert apply_poly(th1, {(0, 0): F(1)}) == {}
    assert apply_poly(th1, {(1, 0): F(1)}) == {(1, 0): F(1)}
    assert apply_poly(th1, {(0, 3): F(1)}) == {}
    # with a prefactor mu, theta sees alpha + mu
    assert apply_poly(th1, {(0, 0): F(1)}, mu=(F(1, 2), 0)) == {(0, 0): F(1, 2)}


def test_compose_matches_sequential_application():
    rng = random.Random(12)
    for _ in range(10):
        def rand_op():
            terms = []
            for _ in range(rng.randrange(1, 3)):
                fac = tuple(theta_factor(2, rng.randrange(1, 3),
                                         F(rng.randrange(-3, 4), rng.randrange(1, 4)))
                            for _ in range(rng.randrange(0, 3)))
                mono = (rng.randrange(0, 2), rng.randrange(0, 2))
                terms.append(EulerTerm(F(rng.randrange(-2, 3)), mono, fac))
            return EulerOperatorExpr(2, terms)

        A, B = rand_op(), rand_op()
        f = {(1, 0): F(2), (0, 2): F(-1), (1, 1): F(1, 3)}
        assert apply_poly(A.compose(B), f) == apply_poly(A, apply_poly(B, f))


def test_pure_theta_operators_commute():
    A = EulerOperatorExpr(2, [EulerTerm(F(2), (0, 0),
                                        (theta_factor(2, 1, F(1, 3)),))])
    B = EulerOperatorExpr(2, [EulerTerm(F(1), (0, 0),
                                        (theta_factor(2, 2, F(-1, 5)),
                                         theta_factor(2, 1)))])
    assert A.compose(B) == B.compose(A)


def test_operator_sum_and_scale():
    A = EulerOperatorExpr(2, [EulerTerm(F(1), (1, 0), ())])
    B = EulerOperatorExpr(2, [EulerTerm(F(2), (1, 0), ())])
    assert (A + B).terms == B.scale(F(3, 2)).terms
    assert (A + A.scale(F(-1))).terms == ()


# ---------------------------------------------------------------------------
# action on truncated series

def test_apply_theta_examples():
    ps = gauss_ps()
    s = series_table(ps, 4)
    th = EulerOperatorExpr(1, [EulerTerm(F(1), (0,), (theta_factor(1, 1),))])
    out = apply(th, s)
    assert out[(0,)] == 0
    assert out[(1,)] == s[(1,)]
    assert out[(3,)] == 3 * s[(3,)]


def test_apply_truncates_by_monomial_degree():
    ps = gauss_ps()
    s = series_table(ps, 5)
    xk = EulerOperatorExpr(1, [EulerTerm(F(1), (1,), ())])
    out = apply(xk, s)
    assert out.N == 4
    assert out[(1,)] == s[(0,)]


def test_apply_is_linear():
    ps = random_generic_parameters(2, 2, random.Random(13))
    op = operator_l(ps, 1)
    s = series_table(ps, 6)
    t = series_table(ps, 6).scale(F(3, 7))
    lhs = apply(op, s.add(t))
    rhs = apply(op, s).add(apply(op, t))
    assert lhs.coeffs == rhs.coeffs


# ---------------------------------------------------------------------------
# the annihilators

def test_operator_l_structure():
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)],
                       [[F(1, 5), F(2, 5)], [F(1, 11), F(2, 11)]])
    op = operator_l(ps, 1)
    assert len(op.terms) == 2
    degs = sorted(sum(t.monomial) for t in op.terms)
    assert degs == [0, 1]
    for t in op.terms:
        assert len(t.factors) == ps.p  # order p in both summands


def test_gauss_operator_annihilation():
    # p=2, m=1 reduces to the classical second-order operator
    ps = gauss_ps()
    assert annihilation_residual(ps, SolutionLabel.from_display(2, (0,)), 10) == 0
    assert annihilation_residual(ps, SolutionLabel(2, (1,)), 10) == 0


def test_annihilation_principal_p3m2():
    ps = random_generic_parameters(3, 2, random.Random(14))
    J = SolutionLabel.from_display(3, (0, 0))
    assert annihilation_residual(ps, J, 8) == 0


def test_annihilation_all_labels_small():
    ps = random_generic_parameters(2, 2, random.Random(15))
    for J in all_labels(2, 2):
        assert annihilation_residual(ps, J, 6) == 0


def test_annihilation_lowest_order():
    ps = random_generic_parameters(2, 2, random.Random(16))
    for J in all_labels(2, 2):
        assert annihilation_residual(ps, J, 1) == 0


def test_annihilation_m3():
    ps = random_generic_parameters(2, 3, random.Random(17))
    J = SolutionLabel.from_display(2, (0, 1, 0))
    assert annihilation_residual(ps, J, 5) == 0


def test_annihilation_nonzero_for_wrong_operator():
    # sanity: the residual is a real check, not identically zero
    ps = gauss_ps()
    wrong = parameter_set([F(1, 2), F(2, 5)], [[F(1, 5)]])
    op = operator_l(wrong, 1)
    s = series_table(ps, 6)
    out = apply(op, s)
    assert out.max_abs() != 0


# ---------------------------------------------------------------------------
# coefficient recurrence

def test_recurrence_gauss_ratio():
    ps = gauss_ps()
    assert coefficient_recurrence_check(ps, 12)


def test_recurrence_matches_annihilation():
    for (p, m), seed in [((2, 2), 18), ((3, 2), 19)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        ok = coefficient_recurrence_check(ps, 8)
        J = SolutionLabel.from_display(p, (0,) * m)
        assert ok and annihilation_residual(ps, J, 8) == 0


def test_recurrence_requires_exact_mode():
    ps = parameter_set([0.5, 0.3], [[0.2]])
    with pytest.raises(ModeError):
        coefficient_recurrence_check(ps, 5)
