"""Command-line interface: envelopes, exit codes, replay."""

import json
import random
import subprocess
import sys

import pytest

from fcpm import charvar, cli, series, singular
from fcpm.params import random_generic_parameters


def params_file(tmp_path, p, m, seed=7):
    ps = random_generic_parameters(p, m, random.Random(seed))
    path = tmp_path / f"params{p}{m}.json"
    path.write_text(json.dumps(ps.to_json_dict()))
    return str(path), ps


def dispatch(*argv):
    return cli._dispatch(list(argv))


def test_envelope_schema_keys():
    code, env = dispatch("singular-poly", "--p", "2", "--m", "2")
    assert code == 0
    assert set(env) == {"schema_version", "command", "result", "diagnostics"}
    assert env["schema_version"] == "1"
    assert env["command"] == {"name": "singular-poly",
                              "argv": ["singular-poly", "--p", "2", "--m", "2"]}
    assert set(env["diagnostics"]) == {"mode", "tolerances", "warnings"}
    assert env["diagnostics"]["warnings"] == []


def test_singular_poly_matches_library():
    code, env = dispatch("singular-poly", "--p", "2", "--m", "2")
    assert code == 0
    rx = singular.build_R_x(2, 2)
    res = env["result"]
    assert res["degree"] == 2
    assert res["terms"] == singular.poly_terms_json(rx)
    assert res["display"] == "1 - 2*x1 - 2*x2 + x1^2 - 2*x1*x2 + x2^2"
    assert env["diagnostics"]["mode"] == "exact"


def test_rank_check_generic_point():
    code, env = dispatch("rank-check", "--p", "2", "--m", "2",
                         "--z", "[1/3,1/5]")
    assert code == 0
    res = env["result"]
    assert res == {"z": ["1/3", "1/5"], "H": [1, 2, 1, 0, 0],
                   "rank": 4, "drop": False}


def test_rank_check_rejects_axis_point():
    code, env = dispatch("rank-check", "--p", "2", "--m", "2", "--z", "[0,1/5]")
    assert code == 2
    assert env["result"] is None
    assert any("coordinate axis" in w for w in env["diagnostics"]["warnings"])


@pytest.mark.parametrize("argv, message", [
    (["rank-check", "--p", "1", "--m", "2", "--z", "[1/2,1/3]"], "p >= 2"),
    (["rank-check", "--p", "2", "--m", "2", "--z", "[1/2]"], "point arity 1 != m=2"),
    (["singular-poly", "--p", "2"], "m >= 1"),
])
def test_shape_errors_are_validation_errors(argv, message, capsys):
    code = cli.run(argv)
    assert code == 2
    env = json.loads(capsys.readouterr().out)
    assert env["command"]["name"] == argv[0]
    assert env["result"] is None
    assert any(w.startswith("ValidationError") and message in w
               for w in env["diagnostics"]["warnings"])


@pytest.mark.parametrize("argv, message", [
    (["rank-check", "--p", "2", "--m", "2", "--z", "[abc,1]"], "'abc'"),
    (["rank-check", "--p", "2", "--m", "2", "--z", "[1/0,1]"], "'1/0'"),
    (["eval", "--params", "@bad.json", "--x", "[0.1]"], "'1/0'"),
])
def test_bad_rationals_are_validation_errors(argv, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2, "m": 1, "a": ["1/2", "1/0"], "B": [["1/5"]]}))
    code = cli.run([str(bad) if a == "@bad.json" else a for a in argv])
    assert code == 2
    env = json.loads(capsys.readouterr().out)
    assert env["command"]["name"] == argv[0]
    assert env["result"] is None
    assert any(w.startswith("ValidationError") and message in w
               for w in env["diagnostics"]["warnings"])


@pytest.mark.parametrize("argv, message", [
    (["rank-check", "--p", "2", "--m", "2", "--z", "[[1,2],1]"], "[1, 2]"),
    (["domain-check", "--p", "2", "--m", "2", "--x", "[[1,2,3],0.1]"], "[1, 2, 3]"),
    (["phi", "--params", "@params.json", "--label", "[3/2,0]", "--x", "[0.1,0.05]"],
     "label entry 3/2 is not an integer"),
    (["eval", "--params", "@params.json"], "required: --x"),
    (["eval", "--p", "2", "--x", "[0.1,0.05]"], "unrecognized arguments: --p 2"),
    ([], "no subcommand"),
])
def test_malformed_input_is_validation_error(argv, message, tmp_path, capsys):
    path, _ = params_file(tmp_path, 2, 2)
    code = cli.run([path if a == "@params.json" else a for a in argv])
    assert code == 2
    env = json.loads(capsys.readouterr().out)
    assert env["command"]["name"] == (argv[0] if argv else "fcpm")
    assert env["result"] is None
    assert any(w.startswith("ValidationError") and message in w
               for w in env["diagnostics"]["warnings"])


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["eval", "--help"])
    assert exc.value.code == 0
    assert "--max-shells" in capsys.readouterr().out


def test_capped_eval_warns(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"p": 2, "m": 2, "a": ["1/3", "2/5"], "B": [["3/7", "5/11"]]}))
    code, env = dispatch("eval", "--params", str(path), "--x", "[0.3,0.2]")
    assert code == 0
    res = env["result"]
    assert set(res) == {"value", "N_used", "tail_bound"}
    assert res["N_used"] == 500 and res["tail_bound"] >= 1e-10
    [warning] = env["diagnostics"]["warnings"]
    assert "N_used = 500" in warning and f"tail_bound = {res['tail_bound']:.3g}" in warning
    code, env = dispatch("eval", "--params", str(path), "--x", "[0.3,0.2]", "--tol", "0.01")
    assert code == 0 and env["result"]["N_used"] < 500
    assert env["diagnostics"]["warnings"] == []


def test_eval_with_params_file(tmp_path):
    path, ps = params_file(tmp_path, 2, 2)
    code, env = dispatch("eval", "--params", path, "--x", "[0.1,0.05]")
    assert code == 0
    res = env["result"]
    direct = series.evaluate(ps, (0.1, 0.05))
    assert abs(complex(*res["value"]) - direct.value) <= 1e-12
    assert res["N_used"] == direct.N_used
    assert res["tail_bound"] <= 1e-9
    assert env["diagnostics"]["tolerances"] == {"tol": 1e-10}


def test_eval_without_params_is_validation_error():
    code, env = dispatch("eval", "--x", "[0.1]")
    assert code == 2
    assert env["result"] is None
    assert any("need --params" in w for w in env["diagnostics"]["warnings"])


def test_phi_reports_exponents(tmp_path):
    path, ps = params_file(tmp_path, 2, 2)
    code, env = dispatch("phi", "--params", path, "--label", "[1,0]",
                         "--x", "[0.1,0.05]")
    assert code == 0
    res = env["result"]
    assert res["label"] == [1, 0]
    # mu entries are formatted rationals matching the library exponents
    from fcpm.params import SolutionLabel, solution_exponents
    mu, sigma = solution_exponents(ps, SolutionLabel.from_display(2, (1, 0)))
    assert res["mu"] == [str(v) for v in mu]
    assert res["sigma"] == str(sigma)
    direct = series.evaluate_phi(ps, SolutionLabel.from_display(2, (1, 0)),
                                 (0.1, 0.05))
    assert abs(complex(*res["value"]) - direct) <= 1e-12


def test_verify_pde_exact_zero_residuals():
    code, env = dispatch("verify-pde", "--p", "2", "--m", "2",
                         "--seed", "1", "--N", "4")
    assert code == 0
    res = env["result"]
    assert res["pass"] is True
    assert res["max_residual"] == "0"
    assert len(res["labels"]) == 4
    assert all(row["residual"] == "0" for row in res["labels"])


def test_verify_pde_rejects_nongeneric(tmp_path):
    doc = {"p": 2, "m": 1, "a": ["1/5", "1/3"], "B": [["1/5"], ["1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, env = dispatch("verify-pde", "--params", str(path), "--N", "3")
    assert code == 2
    assert any("a_1" in w for w in env["diagnostics"]["warnings"])


def test_verify_integral_passes():
    code, env = dispatch("verify-integral", "--p", "2", "--m", "1",
                         "--seed", "2", "--N", "3")
    assert code == 0
    res = env["result"]
    assert res["pass"] is True
    assert res["max_rel_err"] <= 1e-9
    assert len(res["rows"]) == 4


def test_verify_integral_rejects_bad_hypotheses(tmp_path):
    doc = {"p": 3, "m": 1, "a": ["2", "1/3", "1/7"],
           "B": [["1/5"], ["1/11"], ["1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, env = dispatch("verify-integral", "--params", str(path))
    assert code == 2
    assert any("a_1" in w for w in env["diagnostics"]["warnings"])


def test_domain_check_inside_and_outside():
    code, env = dispatch("domain-check", "--x", "[0.04,0.04]",
                         "--p", "2", "--m", "2")
    assert code == 0
    assert env["result"]["in_domain"] is True
    assert abs(env["result"]["radius"] - 0.4) < 1e-15

    code, env = dispatch("domain-check", "--x", "[0.3,0.3]",
                         "--p", "2", "--m", "2")
    assert code == 0
    assert env["result"]["in_domain"] is False


def test_domain_check_probe_needs_params(tmp_path):
    code, env = dispatch("domain-check", "--x", "[0.04,0.04]",
                         "--p", "2", "--m", "2", "--shells", "40")
    assert code == 0
    assert "probe" not in env["result"]
    assert any("probe skipped" in w for w in env["diagnostics"]["warnings"])

    path, _ = params_file(tmp_path, 2, 2)
    code, env = dispatch("domain-check", "--x", "[0.04,0.04]",
                         "--p", "2", "--m", "2", "--shells", "40",
                         "--params", path)
    assert code == 0
    assert env["result"]["probe"]["growing"] is False


def test_check_replay_round_trip(tmp_path):
    code, env = dispatch("rank-check", "--p", "2", "--m", "2",
                         "--z", "[1/3,1/5]")
    saved = tmp_path / "env.json"
    saved.write_text(json.dumps(env))
    code, out = dispatch("--check", str(saved))
    assert code == 0
    assert out["result"]["check"] == "ok"
    assert out["result"]["replayed"] == env["command"]["argv"]


def test_check_replay_detects_tampering(tmp_path):
    code, env = dispatch("singular-poly", "--p", "2", "--m", "2")
    env["result"]["degree"] = 99
    saved = tmp_path / "env.json"
    saved.write_text(json.dumps(env))
    code, out = dispatch("--check", str(saved))
    assert code == 2
    assert out["result"]["check"] == "mismatch"
    assert any("differs" in w for w in out["diagnostics"]["warnings"])


def test_check_replay_rejects_bad_files(tmp_path):
    code, out = dispatch("--check", str(tmp_path / "missing.json"))
    assert code == 2
    assert any("FileNotFoundError" in w for w in out["diagnostics"]["warnings"])

    junk = tmp_path / "junk.json"
    junk.write_text("{\"hello\": 1}")
    code, out = dispatch("--check", str(junk))
    assert code == 2
    assert any("not an output envelope" in w
               for w in out["diagnostics"]["warnings"])


def test_exact_output_is_byte_identical(capsys):
    cli.run(["singular-poly", "--p", "3", "--m", "2"])
    first = capsys.readouterr().out
    cli.run(["singular-poly", "--p", "3", "--m", "2"])
    second = capsys.readouterr().out
    assert first == second


def test_pretty_flag_changes_layout_not_payload(capsys):
    cli.run(["singular-poly", "--p", "2", "--m", "2"])
    compact = capsys.readouterr().out
    cli.run(["singular-poly", "--p", "2", "--m", "2", "--pretty"])
    pretty = capsys.readouterr().out
    assert "\n " in pretty and "\n " not in compact
    a, b = json.loads(compact), json.loads(pretty)
    b["command"]["argv"].remove("--pretty")
    assert a == b


def test_internal_error_exits_one(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._COMMANDS, "singular-poly", boom)
    code = cli.run(["singular-poly", "--p", "2", "--m", "2"])
    assert code == 1
    env = json.loads(capsys.readouterr().out)
    assert env["command"]["name"] == "internal-error"
    assert any("RuntimeError" in w for w in env["diagnostics"]["warnings"])


def test_module_entry_point():
    r = subprocess.run([sys.executable, "-m", "fcpm", "rank-check",
                        "--p", "2", "--m", "2", "--z", "[1/3,1/5]"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    env = json.loads(r.stdout)
    assert env["result"]["rank"] == 4
    assert env["result"]["drop"] is False
