import random
from fractions import Fraction

import pytest

from fcpm.errors import ValidationError
from fcpm.params import (GenericityReport, ParameterSet, SolutionLabel,
                         all_labels, check_nonintegrality, coerce_exact,
                         coerce_float, eta, mu_table, parameter_set,
                         parameters_from_json, random_generic_parameters,
                         require_generic, solution_exponents,
                         transform_parameters, validate)
from fcpm.rings import GaussianRational
from oracles import charpoly_exact, eta_via_reflection, reflection_data

F = Fraction


def gauss_ps():
    return parameter_set([F(1, 2), F(1, 3)], [[F(1, 5)]])


# ---------------------------------------------------------------------------
# construction and validation

def test_parameter_set_appends_ones_row():
    ps = gauss_ps()
    assert ps.p == 2 and ps.m == 1
    assert ps.B[-1] == (F(1),)
    assert ps.b(2, 1) == 1
    assert ps.is_exact


def test_parameter_set_shape_inference():
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)],
                       [[F(1, 5), F(2, 5)], [F(1, 11), F(2, 11)]])
    assert (ps.p, ps.m) == (3, 2)
    assert ps.column(2) == (F(2, 5), F(2, 11), F(1))


def test_parameter_set_mode_inference():
    exact = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5)]])
    assert exact.mode == "exact"
    fl = parameter_set([0.5, [0.3, 0.1]], [[0.2]])
    assert fl.mode == "float"
    assert fl.a_i(2) == 0.3 + 0.1j


def test_parameter_set_rejects_mixed_shapes():
    with pytest.raises(ValidationError):
        parameter_set([F(1, 2)], [[F(1, 5)]])  # p=1 too small
    with pytest.raises(ValidationError):
        parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)], [F(1), F(1)]],
                      p=2, m=1)


def test_coerce_exact():
    assert coerce_exact("3/4") == F(3, 4)
    assert coerce_exact(2) == F(2)
    assert coerce_exact(2.0) == F(2)
    g = coerce_exact({"re": "1/2", "im": "-1/3"})
    assert g == GaussianRational(F(1, 2), F(-1, 3))
    with pytest.raises(ValidationError):
        coerce_exact(0.5)  # non-integer float is not exact input


def test_coerce_float():
    assert coerce_float([1.0, 2.0]) == 1 + 2j
    assert coerce_float("1/4") == 0.25
    assert coerce_float(3) == 3.0


def test_validate_examples():
    assert validate(gauss_ps()) == []
    bad = parameter_set([F(1, 2), F(1, 3)], [[F(0)]])
    msgs = validate(bad)
    assert len(msgs) == 1 and "b_{1,1}" in msgs[0] and "-N" in msgs[0]
    # last row must be the 1-row
    worse = ParameterSet(2, 2, (F(1, 2), F(1, 3)),
                         ((F(1, 5), F(1, 7)), (F(1), F(2))), "exact")
    msgs = validate(worse)
    assert len(msgs) == 1 and "b_{2,2}" in msgs[0]


def test_validate_float_tolerance():
    near = parameter_set([0.5, 0.25], [[-2.0 + 1e-15]])
    msgs = validate(near)
    assert len(msgs) == 1 and "-N" in msgs[0]


# ---------------------------------------------------------------------------
# genericity conditions

def test_nonintegrality_counts():
    for (p, m) in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        ps = random_generic_parameters(p, m, random.Random(p * 10 + m))
        rep = check_nonintegrality(ps)
        assert rep.counts == (p ** (m + 1), m * p * (p - 1) // 2)
        assert rep.genericity_a and rep.genericity_b
        assert not rep.violations
        assert not rep.heuristic


def test_nonintegrality_counts_p2_m2():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    rep = check_nonintegrality(ps)
    assert rep.counts == (8, 2)
    assert rep.genericity_a and rep.genericity_b


def test_nonintegrality_detects_a_violation():
    # a_1 - b_{1,1} = 0 is an integer
    ps = parameter_set([F(1, 5), F(1, 3)], [[F(1, 5)]])
    rep = check_nonintegrality(ps)
    assert not rep.genericity_a
    assert any("a_1" in v for v in rep.violations)


def test_nonintegrality_detects_b_violation():
    # b_{1,1} - b_{2,1} = 1/5 - 6/5 = -1 is an integer
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)], [[F(1, 5)], [F(6, 5)]])
    rep = check_nonintegrality(ps)
    assert not rep.genericity_b
    assert any("b_{1,1} - b_{2,1}" in v for v in rep.violations)


def test_gaussian_imag_part_never_integral():
    shift = GaussianRational(F(1, 2), F(1, 3))
    ps = parameter_set([shift, F(1, 3)], [[F(1, 5)]])
    rep = check_nonintegrality(ps)
    assert rep.genericity_a


def test_require_generic_raises_with_named_condition():
    ps = parameter_set([F(1, 5), F(1, 3)], [[F(1, 5)]])
    with pytest.raises(ValidationError) as e:
        require_generic(ps)
    assert "a_1" in str(e.value)


def test_float_mode_heuristic_flag():
    ps = parameter_set([0.5, 0.3], [[0.2]])
    rep = check_nonintegrality(ps)
    assert rep.heuristic


# ---------------------------------------------------------------------------
# reflections eta

def test_eta_identity_at_p():
    col = (F(1, 5), F(1, 7), F(1))
    assert eta(col, 3) == col


def test_eta_p2_closed_form():
    b = F(1, 5)
    assert eta((b, F(1)), 1) == (2 - b, F(1))


def test_eta_involution_and_last_entry():
    rng = random.Random(5)
    for p in (2, 3, 4, 5):
        col = tuple(F(rng.randrange(1, 40), 41) for _ in range(p - 1)) + (F(1),)
        for j in range(1, p):
            once = eta(col, j)
            assert once[-1] == 1
            assert eta(once, j) == col


def test_eta_rejects_bad_column():
    with pytest.raises(ValidationError):
        eta((F(1, 5), F(2)), 1)
    with pytest.raises(IndexError):
        eta((F(1, 5), F(1)), 3)


def test_eta_via_reflection_agrees():
    rng = random.Random(6)
    for p in (2, 3, 4, 5):
        col = tuple(F(rng.randrange(1, 30), 31) for _ in range(p - 1)) + (F(1),)
        for j in range(1, p + 1):
            assert eta_via_reflection(col, j) == eta(col, j)


def poly_mul(u, v):
    out = [F(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def test_reflection_matrix_spectrum():
    # W = p*id - ones has characteristic polynomial lambda*(lambda-p)^(p-1)
    for p in (2, 3, 4, 5):
        rd = reflection_data(p, 1)
        assert all(sum(row) == 0 for row in rd.W)
        expected = [F(0), F(1)]
        for _ in range(p - 1):
            expected = poly_mul(expected, [F(-p), F(1)])
        assert list(charpoly_exact(rd.W)) == expected


def test_reflection_vector():
    rd = reflection_data(3, 1)
    assert tuple(rd.v) == (2, 1, 0)  # 1_p + e_1 - e_p


# ---------------------------------------------------------------------------
# labels and exponents

def test_all_labels_count_and_range():
    for p, m in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        labels = all_labels(p, m)
        assert len(labels) == p ** m
        assert len(set(labels)) == p ** m
        for lab in labels:
            assert all(1 <= e <= p for e in lab.entries)


def test_label_display_roundtrip():
    lab = SolutionLabel.from_display(3, (0, 2))
    assert lab.entries == (3, 2)
    assert lab.display() == (0, 2)
    assert str(lab) == "(0,2)"


def test_solution_exponents_principal():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    principal = SolutionLabel.from_display(2, (0, 0))
    mu, sigma = solution_exponents(ps, principal)
    assert mu == (F(0), F(0)) and sigma == 0


def test_solution_exponents_gauss():
    ps = gauss_ps()
    mu, sigma = solution_exponents(ps, SolutionLabel(2, (1,)))
    assert mu == (F(4, 5),) and sigma == F(4, 5)


def test_solution_exponents_indexing():
    # rows j=1,2,3; mu_k = 1 - b_{j_k,k}
    ps = parameter_set([F(1, 2), F(1, 3), F(1, 7)],
                       [[F(1, 5), F(1, 7)], [F(1, 11), F(1, 13)]])
    mu, sigma = solution_exponents(ps, SolutionLabel(3, (2, 1)))
    assert mu == (F(10, 11), F(6, 7))
    assert sigma == F(10, 11) + F(6, 7)


def test_mu_table_pairwise_distinct_generic():
    for (p, m), seed in [((2, 2), 1), ((3, 2), 2), ((2, 3), 3)]:
        ps = random_generic_parameters(p, m, random.Random(seed))
        mus = list(mu_table(ps).values())
        assert len(mus) == p ** m
        assert len(set(mus)) == p ** m


def test_transform_parameters_gauss_second_solution():
    a1, a2, b = F(1, 2), F(1, 3), F(1, 5)
    ps = parameter_set([a1, a2], [[b]])
    tps = transform_parameters(ps, SolutionLabel(2, (1,)))
    sigma = 1 - b
    assert tps.a == (a1 + sigma, a2 + sigma)
    assert tps.b(1, 1) == 2 - b
    assert tps.b(2, 1) == 1


def test_transform_parameters_principal_is_identity():
    ps = parameter_set([F(1, 2), F(1, 3)], [[F(1, 5), F(1, 7)]])
    tps = transform_parameters(ps, SolutionLabel.from_display(2, (0, 0)))
    assert tps.a == ps.a and tps.B == ps.B


# ---------------------------------------------------------------------------
# random generic draws and JSON round trip

def test_random_generic_parameters_certified():
    for seed in range(8):
        ps = random_generic_parameters(3, 2, random.Random(seed))
        require_generic(ps)  # must not raise
        assert ps.is_exact
        rep = check_nonintegrality(ps)
        assert rep.genericity_a and rep.genericity_b


def test_json_roundtrip_exact():
    ps = parameter_set([F(1, 2), GaussianRational(F(1, 3), F(1, 7))],
                       [[F(1, 5)]])
    doc = ps.to_json_dict()
    back = parameters_from_json(doc)
    assert back == ps


def test_json_roundtrip_float():
    ps = parameter_set([0.5, [0.3, 0.25]], [[0.2]])
    doc = ps.to_json_dict()
    back = parameters_from_json(doc)
    assert back.mode == "float"
    assert back.a_i(2) == 0.3 + 0.25j


def test_json_implied_ones_row():
    doc = {"p": 2, "m": 2, "a": ["1/2", "1/3"], "B": [["1/5", "1/7"]]}
    ps = parameters_from_json(doc)
    assert ps.B[-1] == (F(1), F(1))
