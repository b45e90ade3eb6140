import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from fcpm.errors import BranchError, DomainError, ValidationError
from fcpm.params import (SolutionLabel, all_labels, parameter_set,
                         random_generic_parameters, solution_exponents)
from fcpm.rings import GaussianRational
from fcpm.series import (TruncatedSeries, all_indices, coefficient,
                         coefficient_table, divergence_probe, domain_radius,
                         evaluate, evaluate_phi, in_domain, max_shells_cap,
                         phi_series, pochhammer, pochhammer_scaled,
                         series_table, shell_indices)
from oracles import lauricella_fc_coefficient

F = Fraction


def gauss_ps():
    return parameter_set([F(1, 2), F(1, 3)], [[F(1, 5)]])


# ---------------------------------------------------------------------------
# index enumeration

def test_shell_indices_counts():
    for m in (1, 2, 3):
        for d in range(6):
            assert len(list(shell_indices(m, d))) == math.comb(d + m - 1, m - 1)


def test_all_indices_cover_simplex():
    idx = list(all_indices(2, 3))
    assert len(idx) == math.comb(3 + 2, 2)
    assert all(sum(n) <= 3 for n in idx)


# ---------------------------------------------------------------------------
# pochhammer

def test_pochhammer_examples():
    assert pochhammer(F(1, 2), 0) == 1
    assert pochhammer(1, 4) == 24
    assert pochhammer(3, 2) == 12
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(-2, 3) == 0  # hits zero factor


def test_pochhammer_gaussian():
    s = GaussianRational(F(1, 2), F(1, 3))
    assert pochhammer(s, 2) == s * (s + 1)


def test_pochhammer_float_matches_exact():
    for n in (0, 1, 5, 20):
        exact = pochhammer(F(2, 7), n)
        fl = pochhammer(2 / 7, n)
        assert abs(fl - float(exact)) <= 1e-12 * (1 + abs(float(exact)))


def test_pochhammer_scaled_overflow_safe():
    # (1/3, 400) overflows a float product; scaled form stays finite
    mant, exp2 = pochhammer_scaled(1 / 3, 400)
    assert math.isfinite(abs(mant)) and mant != 0
    lg = math.lgamma(400 + 1 / 3) - math.lgamma(1 / 3)
    assert abs((math.log(abs(mant)) + exp2 * math.log(2)) - lg) < 1e-8


# ---------------------------------------------------------------------------
# coefficients

@pytest.mark.parametrize("n", [(1, -1), (1,), (0, 0, 0)])
def test_coefficient_rejects_bad_index(n):
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    for mode_ps in (ps, ps.as_float()):
        with pytest.raises(ValidationError):
            coefficient(mode_ps, n)


def test_coefficient_at_zero_is_one():
    for (p, m), seed in [((2, 1), 0), ((2, 2), 1), ((3, 2), 2)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        assert coefficient(ps, (0,) * m) == 1


def test_coefficient_first_order():
    ps = gauss_ps()
    # a1*a2/b
    assert coefficient(ps, (1,)) == F(1, 2) * F(1, 3) / F(1, 5)


def test_coefficient_direct_product_case():
    ps = parameter_set([F(1, 2), F(1, 2)], [[F(1), F(1)]])
    assert coefficient(ps, (1, 1)) == F(9, 16)


def test_coefficient_against_sympy():
    import sympy
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)],
                       [[F(1, 5), F(2, 5)], [F(1, 11), F(2, 11)]])
    rf = sympy.rf
    for n in [(0, 0), (1, 0), (2, 1), (3, 2), (0, 4)]:
        t = sum(n)
        num = rf(sympy.Rational(1, 2), t) * rf(sympy.Rational(1, 3), t) * rf(sympy.Rational(1, 7), t)
        den = (rf(sympy.Rational(1, 5), n[0]) * rf(sympy.Rational(1, 11), n[0])
               * rf(sympy.Rational(2, 5), n[1]) * rf(sympy.Rational(2, 11), n[1])
               * sympy.factorial(n[0]) * sympy.factorial(n[1]))
        expected = sympy.nsimplify(num / den, rational=True)
        got = coefficient(ps, n)
        assert sympy.Rational(got.numerator, got.denominator) == expected


def test_coefficient_table_matches_direct():
    # the recurrence walk and the direct Pochhammer product must agree
    for (p, m), seed in [((2, 2), 4), ((3, 2), 5), ((2, 4), 6), ((3, 3), 7)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        table = coefficient_table(ps, 6)
        assert list(table) == list(all_indices(m, 6))
        for n in all_indices(m, 6):
            assert table[n] == coefficient(ps, n)


def test_coefficient_float_vs_exact():
    for (p, m), seed in [((2, 1), 7), ((2, 2), 8)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        pf = ps.as_float()
        for n in all_indices(m, 30):
            exact = coefficient(ps, n)
            fl = coefficient(pf, n)
            ex = float(exact)
            assert abs(fl - ex) <= 1e-10 * (1 + abs(ex))


def test_coefficient_restriction_to_one_variable():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    ps1 = parameter_set([F(1, 2), F(1, 3)], [[F(1, 7)]])
    for n in range(8):
        assert coefficient(ps, (0, n)) == coefficient(ps1, (n,))


def test_coefficient_column_permutation_symmetry():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    swapped = parameter_set([F(1, 2), F(1, 3)], [[F(1, 7), F(1, 5)]])
    for n in all_indices(2, 5):
        assert coefficient(ps, n) == coefficient(swapped, (n[1], n[0]))


def test_lauricella_formula_cross_check():
    ps = random_generic_parameters(2, 2, random.Random(9))
    a1, a2 = ps.a
    cols = (ps.b(1, 1), ps.b(1, 2))
    for n in all_indices(2, 6):
        assert coefficient(ps, n) == lauricella_fc_coefficient(a1, a2, cols, n)


# ---------------------------------------------------------------------------
# truncated series container

def test_series_table_zero_fill_and_freeze():
    ps = gauss_ps()
    s = series_table(ps, 4)
    assert s[(0,)] == 1
    with pytest.raises(KeyError):
        s[(5,)]  # beyond the truncation order


def test_truncated_series_rejects_overflow_entries():
    with pytest.raises(ValidationError):
        TruncatedSeries(2, 1, {(3,): F(1)}, (F(0),), "exact")


def test_truncated_series_add_scale():
    ps = gauss_ps()
    s = series_table(ps, 3)
    twice = s.add(s)
    assert twice[(2,)] == 2 * s[(2,)]
    half = s.scale(F(1, 2))
    assert half[(1,)] == s[(1,)] / 2


# ---------------------------------------------------------------------------
# domain logic

def test_in_domain_examples():
    assert in_domain((0.0,), 2)
    assert in_domain((0.04, 0.04), 2)
    assert not in_domain((1.0, 0.0), 2)
    assert domain_radius((0.04, 0.04), 2) == pytest.approx(0.4)


def test_evaluate_at_zero():
    ps = gauss_ps()
    res = evaluate(ps, (0.0,))
    assert res.value == 1 and res.N_used == 0


def test_evaluate_2f1_log_value():
    ps = parameter_set([F(1), F(1)], [[F(2)]])
    res = evaluate(ps, (0.5,), tol=1e-12)
    assert abs(res.value - 2 * math.log(2)) < 1e-9
    assert res.tail_bound < 1e-12


def test_evaluate_outside_domain_raises():
    ps = gauss_ps()
    with pytest.raises(DomainError):
        evaluate(ps, (1.2,))


def test_evaluate_restriction_matches_m1():
    ps2 = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    ps1 = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5)]])
    v2 = evaluate(ps2, (0.05, 0.0), tol=1e-12).value
    v1 = evaluate(ps1, (0.05,), tol=1e-12).value
    assert abs(v2 - v1) < 1e-11


def test_evaluate_against_mpmath_hyper():
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)], [[F(1, 5)], [F(2, 11)]])
    got = evaluate(ps, (0.3,), tol=1e-13).value
    want = complex(mpmath.hyper([mpmath.mpf(1) / 2, mpmath.mpf(1) / 3, mpmath.mpf(1) / 7],
                                [mpmath.mpf(1) / 5, mpmath.mpf(2) / 11], 0.3))
    assert abs(got - want) < 1e-11


def test_evaluate_against_mpmath_appellf4():
    ps = parameter_set([F(1, 2), F(1, 4)], [[F(1, 5), F(2, 7)]])
    got = evaluate(ps, (0.05, 0.08), tol=1e-13).value
    want = complex(mpmath.appellf4(0.5, 0.25, 0.2, mpmath.mpf(2) / 7, 0.05, 0.08))
    assert abs(got - want) < 1e-11


def test_evaluate_monotone_consistent():
    # looser tolerance stops earlier but along the same prefix sums
    ps = gauss_ps()
    loose = evaluate(ps, (0.2,), tol=1e-4)
    tight = evaluate(ps, (0.2,), tol=1e-13)
    assert loose.N_used <= tight.N_used
    assert abs(loose.value - tight.value) <= loose.tail_bound


def test_evaluate_shell_cap(monkeypatch):
    ps = gauss_ps()
    res = evaluate(ps, (0.5,), tol=1e-30, max_shells=10)
    assert res.N_used == 10
    assert res.tail_bound > 1e-30  # cap hit, caller can reject
    monkeypatch.setenv("FCPM_MAX_SHELLS", "7")
    res = evaluate(ps, (0.5,), tol=1e-30)
    assert res.N_used == 7
    assert max_shells_cap() == 7


# ---------------------------------------------------------------------------
# fundamental solutions

def test_phi_principal_label_equals_series():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    J = SolutionLabel.from_display(2, (0, 0))
    x = (0.03, 0.05)
    assert abs(evaluate_phi(ps, J, x) - evaluate(ps, x).value) < 1e-12


def test_phi_gauss_second_solution():
    # x^(1-b) * 2F1(a1-b+1, a2-b+1; 2-b; x)
    a1, a2, b = 0.5, 1 / 3, 0.2
    ps = gauss_ps()
    x = 0.3
    got = evaluate_phi(ps, SolutionLabel(2, (1,)), (x,), tol=1e-13)
    want = x ** (1 - b) * complex(mpmath.hyp2f1(a1 - b + 1, a2 - b + 1, 2 - b, x))
    assert abs(got - want) < 1e-10


def test_phi_series_prefactor_and_transformed_rows():
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)],
                       [[F(1, 5), F(2, 5)], [F(1, 11), F(2, 11)]])
    for J in all_labels(3, 2):
        s = phi_series(ps, J, 3)
        mu, _ = solution_exponents(ps, J)
        assert s.prefactor_exponents == mu
        assert s[(0, 0)] == 1


def test_phi_branch_cut_rejected():
    ps = gauss_ps()
    with pytest.raises(BranchError):
        evaluate_phi(ps, SolutionLabel(2, (1,)), (-0.2,))
    # principal label has no fractional power: negative axis is fine
    J0 = SolutionLabel.from_display(2, (0,))
    evaluate_phi(ps, J0, (-0.2,))


# ---------------------------------------------------------------------------
# divergence probe

def test_divergence_probe_examples():
    ps = gauss_ps()
    assert divergence_probe(ps, (1.2,), shells=60).growing
    assert not divergence_probe(ps, (0.0,), shells=40).growing
    ps2 = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    assert not divergence_probe(ps2, (0.04, 0.04), shells=40).growing


def test_divergence_probe_just_outside():
    ps2 = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    # r = 2*sqrt(0.3) > 1
    assert divergence_probe(ps2, (0.3, 0.3), shells=60).growing


# ---------------------------------------------------------------------------
# pinned floating-point outputs of the shell walk (float.hex, so any change
# in the order of operations shows)

PARAMS_33 = ([F(1, 3), F(3, 7), F(2, 5)],
             [[F(1, 5), F(2, 7), F(3, 11)], [F(5, 13), F(7, 17), F(9, 19)]])

PINNED_EVALUATIONS = [
    (([F(1, 2), F(1, 3)], [[F(1, 5)]]), (0.9025j,),
     227, "0x1.4e50683d0a4aap-1", "0x1.edadd1f05959fp-2", "0x1.9e6163afda3dep-34"),
    (([F(1, 2), F(1, 3), F(1, 7)], [[F(1, 5)], [F(2, 11)]]), (-0.729,),
     70, "0x1.641d5d492b31cp-1", "0x0.0p+0", "0x1.84a157065fa42p-34"),
    (([F(1, 2), F(1, 4)], [[F(1, 5), F(2, 7)]]), (0.1444, -0.3249),
     226, "0x1.b7fb839467f27p-1", "0x0.0p+0", "0x1.a1939d9ea5db1p-34"),
    (([F(1, 2), F(1, 4)], [[F(1, 5), F(2, 7)]]), (0.05 + 0.02j, 0.01 - 0.03j),
     12, "0x1.0a9f0e34cb5c1p+0", "-0x1.8e2a4abeca3d5p-8", "0x1.b2389ee0bd60dp-36"),
    (([F(3, 4), F(1, 3)], [[F(1, 5), F(2, 7), F(3, 11)]]), (0.0576, 0.0576j, 0.1024),
     55, "0x1.28a4b4141c91cp+0", "0x1.48d966bc455edp-2", "0x1.3a3a6ec3b4e79p-34"),
    (([F(1, 2), F(2, 9)], [[F(1, 5), F(2, 7), F(3, 11), F(4, 13)]]),
     (0.04, -0.0225j, 0.0361, 0.01 + 0.01j),
     26, "0x1.0de3640332efdp+0", "-0x1.cef580b63e4aap-7", "0x1.e10db41d39619p-35"),
    (PARAMS_33, (0.02, -0.008 + 0.012j, 0.015),
     26, "0x1.02f5363d417d2p+0", "0x1.33665c3d3a568p-6", "0x1.47e4540f5111dp-34"),
]


@pytest.mark.parametrize("ab, x, n_used, re, im, tail", PINNED_EVALUATIONS)
def test_evaluate_pinned_bits(ab, x, n_used, re, im, tail):
    res = evaluate(parameter_set(*ab), x)
    assert res.N_used == n_used
    assert (res.value.real.hex(), res.value.imag.hex(), res.tail_bound.hex()) == (re, im, tail)


@pytest.mark.parametrize("ab, x, shells, max_term, growing", [
    (([F(1, 2), F(1, 4)], [[F(1, 5), F(2, 7)]]), (0.3, 0.3), 60, "0x1.594e05988dd56p+10", True),
    (([F(5, 2), F(7, 3)], [[F(1, 5), F(2, 7)]]), (0.1, 0.1j), 30, "0x1.7d1c71c71c71fp+3", False),
    (([F(5, 2), F(7, 3)], [[F(1, 5), F(2, 7)]]), (0.2, -0.15j), 25, "0x1.5922259312b5dp+7", True),
])
def test_divergence_probe_pinned_bits(ab, x, shells, max_term, growing):
    res = divergence_probe(parameter_set(*ab), x, shells=shells)
    assert (res.max_term.hex(), res.growing) == (max_term, growing)


def test_float_coefficient_table_pinned_bits():
    table = coefficient_table(parameter_set(*PARAMS_33).as_float(), 6)
    assert list(table) == list(all_indices(3, 6))
    assert table[(3, 0, 2)].real.hex() == "0x1.b3f4a64ca024bp+11"
    assert table[(6, 0, 0)].real.hex() == "0x1.93c158a42218fp-2"
    bits = "|".join(f"{v.real.hex()},{v.imag.hex()}" for v in table.values())
    assert hashlib.sha256(bits.encode()).hexdigest() == \
        "c0d603cdf3f7790455c46a8430c580c1580121e9c4e57e0672c426aa61a37857"
