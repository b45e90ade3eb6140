"""Command-line front end.

Subcommands: eval, phi, singular-poly, rank-check, verify-pde,
verify-integral, domain-check. Output is a JSON envelope

    {"schema_version": "1", "command": {...}, "result": {...},
     "diagnostics": {"mode": ..., "tolerances": {...}, "warnings": [...]}}

printed compactly by default, with indentation under --pretty. Exit codes:
0 success, 2 validation failure (bad input, violated parameter conditions,
failed verification, --check mismatch), 1 internal error. Exact-mode
output is byte-identical across runs; `fcpm --check FILE` replays the
command recorded in a previous envelope and compares payloads.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import charvar, diffops, integral, series, singular
from .errors import FcpmError, ValidationError
from .params import (EXACT, FLOAT, SolutionLabel, all_labels,
                     parameters_from_json, random_generic_parameters,
                     require_generic, scalar_to_json, solution_exponents)
from .rings import format_rational, parse_rational

SCHEMA_VERSION = "1"


def _parse_vector(text, exact=False):
    """Read "[1/3,1/5]" or "[0.04,0.04]" or JSON arrays with [re,im] pairs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        doc = [part.strip() for part in body.split(",") if part.strip()]
    if not isinstance(doc, list):
        raise ValidationError(f"not a vector: {text!r}")
    out = []
    for v in doc:
        try:
            if isinstance(v, str):
                q = parse_rational(v)
                out.append(q if exact else complex(q))
            elif exact:
                out.append(Fraction(v))
            elif isinstance(v, list) and len(v) == 2:
                out.append(complex(float(v[0]), float(v[1])))
            else:
                out.append(complex(v))
        except (TypeError, ValueError, OverflowError):
            kind = "rational" if exact else "number or [re, im] pair"
            raise ValidationError(f"vector entry {v!r} is not a {kind}") from None
    return out


def _load_params(args):
    if getattr(args, "params", None):
        with open(args.params, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return parameters_from_json(doc, mode=getattr(args, "mode", None))
    if getattr(args, "p", None) and getattr(args, "m", None):
        rng = random.Random(getattr(args, "seed", 0) or 0)
        return random_generic_parameters(args.p, args.m, rng)
    raise ValidationError("need --params FILE, or --p and --m for a random draw")


def _complex_json(c):
    c = complex(c)
    return [c.real, c.imag]


def _envelope(name, argv, result, mode=None, tolerances=None, warnings=()):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": name, "argv": list(argv)},
        "result": result,
        "diagnostics": {
            "mode": mode,
            "tolerances": tolerances or {},
            "warnings": list(warnings),
        },
    }


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (result_dict, mode, tolerances, warnings)

def _cmd_eval(args):
    ps = _load_params(args)
    x = _parse_vector(args.x)
    res = series.evaluate(ps, x, tol=args.tol, max_shells=args.max_shells)
    result = {"value": _complex_json(res.value), "N_used": res.N_used,
              "tail_bound": res.tail_bound}
    warnings = []
    if res.N_used >= series.max_shells_cap(args.max_shells) and res.tail_bound >= args.tol:
        warnings.append(f"not converged: stopped at the shell cap N_used = {res.N_used} "
                        f"with tail_bound = {res.tail_bound:.3g} >= tol = {args.tol:g}")
    return result, ps.mode, {"tol": args.tol}, warnings


def _cmd_phi(args):
    ps = _load_params(args)
    require_generic(ps)
    label = SolutionLabel.from_display(ps.p, _parse_vector(args.label, exact=True))
    x = _parse_vector(args.x)
    mu, sigma = solution_exponents(ps, label)
    value = series.evaluate_phi(ps, label, x, tol=args.tol)
    result = {
        "value": _complex_json(value),
        "label": list(label.display()),
        "mu": [scalar_to_json(v, ps.mode) for v in mu],
        "sigma": scalar_to_json(sigma, ps.mode),
    }
    return result, ps.mode, {"tol": args.tol}, []


def _cmd_singular_poly(args):
    rx = singular.build_R_x(args.p, args.m)
    result = {
        "p": args.p,
        "m": args.m,
        "degree": rx.total_degree(),
        "terms": singular.poly_terms_json(rx),
        "display": singular.poly_to_string(rx),
    }
    return result, EXACT, {}, []


def _cmd_rank_check(args):
    z = _parse_vector(args.z, exact=True)
    point = charvar.specialize(args.p, args.m, z)
    if point.on_coordinate_axes:
        raise ValidationError("rank check needs nonzero coordinates: "
                              "z lies on a coordinate axis")
    res = charvar.rank_at(args.p, args.m, point)
    result = {
        "z": [format_rational(v) for v in point.z],
        "H": list(res.H),
        "rank": res.rank,
        "drop": res.drop,
    }
    return result, EXACT, {}, []


def _cmd_verify_pde(args):
    ps = _load_params(args)
    require_generic(ps)
    rows = []
    worst = Fraction(0) if ps.is_exact else 0.0
    for label in all_labels(ps.p, ps.m):
        r = diffops.annihilation_residual(ps, label, args.N)
        worst = max(worst, r)
        rows.append({"label": list(label.display()),
                     "residual": str(r) if ps.is_exact else float(r)})
    passed = (worst == 0) if ps.is_exact else (worst <= args.tol)
    result = {
        "p": ps.p, "m": ps.m, "N": args.N,
        "params": ps.to_json_dict(),
        "labels": rows,
        "max_residual": str(worst) if ps.is_exact else float(worst),
        "pass": bool(passed),
    }
    if not passed:
        raise VerificationFailure(result, "nonzero annihilation residual")
    return result, ps.mode, {"residual_tol": 0 if ps.is_exact else args.tol}, []


def _cmd_verify_integral(args):
    ps = _load_params(args)
    problems = integral.check_integral_hypotheses(ps)
    if problems:
        raise ValidationError("; ".join(problems))
    rows = []
    worst = 0.0
    for n in series.all_indices(ps.m, args.N):
        via_integral = integral.coefficient_via_integral(ps, n)
        direct = series.coefficient(ps, n)
        dv = complex(direct)
        rel = abs(via_integral - dv) / max(abs(dv), 1e-300)
        worst = max(worst, rel)
        rows.append({
            "n": list(n),
            "series": scalar_to_json(direct, ps.mode),
            "integral": _complex_json(via_integral),
            "rel_err": rel,
        })
    passed = worst <= args.tol
    result = {
        "p": ps.p, "m": ps.m, "N": args.N,
        "params": ps.to_json_dict(),
        "rows": rows,
        "max_rel_err": worst,
        "pass": bool(passed),
    }
    if not passed:
        raise VerificationFailure(result, f"max relative error {worst:.3e} > {args.tol}")
    return result, ps.mode, {"rel_tol": args.tol}, []


def _cmd_domain_check(args):
    x = _parse_vector(args.x)
    r = series.domain_radius(x, args.p)
    result = {"p": args.p, "in_domain": series.in_domain(x, args.p), "radius": r}
    warnings = []
    if args.shells:
        if getattr(args, "params", None):
            ps = _load_params(args)
            probe = series.divergence_probe(ps, x, shells=args.shells)
            result["probe"] = {"max_term": probe.max_term, "growing": probe.growing}
        else:
            warnings.append("--shells given without --params: probe skipped")
    return result, None, {}, warnings


class VerificationFailure(FcpmError):
    """A verify-* command produced a failing comparison (exit 2)."""

    def __init__(self, result, message):
        super().__init__(message)
        self.result = result


_COMMANDS = {
    "eval": _cmd_eval,
    "phi": _cmd_phi,
    "singular-poly": _cmd_singular_poly,
    "rank-check": _cmd_rank_check,
    "verify-pde": _cmd_verify_pde,
    "verify-integral": _cmd_verify_integral,
    "domain-check": _cmd_domain_check,
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValidationError (one envelope, exit 2) and
    takes no abbreviated options."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    top = _Parser(
        prog="fcpm",
        description="Series, solutions, singular locus, and verification "
                    "commands for the F_C family of hypergeometric systems.")
    top.add_argument("--check", metavar="FILE",
                     help="replay the command recorded in a previous output "
                          "envelope and compare payloads")
    sub = top.add_subparsers(dest="cmd")

    def common(sp, params=True, point=False, exact_point=False, pm=False):
        sp.add_argument("--pretty", action="store_true", help="indent the JSON output")
        if params:
            sp.add_argument("--params", help="JSON parameter document")
            sp.add_argument("--mode", choices=[EXACT, FLOAT], default=None)
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for random parameter draws")
        if pm:
            sp.add_argument("--p", type=int)
            sp.add_argument("--m", type=int)
        if point:
            sp.add_argument("--x", required=True, help="evaluation point, e.g. \"[0.04,0.04]\"")
        if exact_point:
            sp.add_argument("--z", required=True, help="exact point, e.g. \"[1/3,1/5]\"")

    sp = sub.add_parser("eval", help="evaluate the series")
    common(sp, point=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-shells", type=int, default=None)

    sp = sub.add_parser("phi", help="evaluate a fundamental solution")
    common(sp, point=True)
    sp.add_argument("--label", required=True, help="solution label, e.g. \"[0,1]\" (0 = p)")
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("singular-poly", help="the singular-locus polynomial R(x)")
    common(sp, params=False, pm=True)

    sp = sub.add_parser("rank-check", help="Hilbert function and rank at a point")
    common(sp, params=False, pm=True, exact_point=True)

    sp = sub.add_parser("verify-pde", help="annihilation residuals for all labels")
    common(sp, pm=True)
    sp.add_argument("--N", type=int, default=8, help="truncation order")
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="float-mode residual tolerance")

    sp = sub.add_parser("verify-integral", help="integral vs series coefficients")
    common(sp, pm=True)
    sp.add_argument("--N", type=int, default=4, help="max |n|")
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("domain-check", help="convergence-domain membership")
    common(sp, point=True, pm=True)
    sp.add_argument("--shells", type=int, default=0,
                    help="also run the divergence probe over this many shells")
    return top


def _dispatch(argv):
    """Compute the envelope for argv. Returns (exit_code, envelope)."""
    try:
        args = build_parser().parse_args(argv)
        if not (args.check or args.cmd):
            raise ValidationError("no subcommand given (see fcpm --help)")
    except ValidationError as exc:
        name = next((a for a in argv if a in _COMMANDS), "fcpm")
        return 2, _envelope(name, argv, None, None, {}, [f"ValidationError: {exc}"])
    if args.check:
        return _replay(args.check, argv)
    name = args.cmd
    try:
        result, mode, tolerances, warnings = _COMMANDS[name](args)
        env = _envelope(name, argv, result, mode, tolerances, warnings)
        return 0, env
    except VerificationFailure as exc:
        env = _envelope(name, argv, exc.result, None, {},
                        [f"verification failed: {exc}"])
        return 2, env
    except (FcpmError, OSError, json.JSONDecodeError) as exc:
        env = _envelope(name, argv, None, None, {},
                        [f"{type(exc).__name__}: {exc}"])
        return 2, env


def _replay(path, argv):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        env = _envelope("check", argv, None, None, {},
                        [f"{type(exc).__name__}: {exc}"])
        return 2, env
    try:
        recorded = saved["command"]["argv"]
        old_result = saved["result"]
    except (KeyError, TypeError):
        env = _envelope("check", argv, None, None, {},
                        ["not an output envelope: missing command.argv/result"])
        return 2, env
    code, fresh = _dispatch(list(recorded))
    same = fresh is not None and \
        json.dumps(fresh["result"], sort_keys=True) == json.dumps(old_result, sort_keys=True)
    result = {"check": "ok" if same else "mismatch",
              "replayed": list(recorded)}
    env = _envelope("check", argv, result, None, {}, [] if same else
                    ["payload differs from the recorded envelope"])
    return (0 if same else 2), env


def run(argv):
    """Run one command; prints the envelope, returns the exit code."""
    try:
        code, env = _dispatch(list(argv))
    except Exception as exc:  # internal error: exit 1
        env = _envelope("internal-error", list(argv), None, None, {},
                        [f"{type(exc).__name__}: {exc}"])
        print(json.dumps(env, indent=2))
        return 1
    if env is not None:
        pretty = "--pretty" in argv
        print(json.dumps(env, indent=2 if pretty else None,
                         separators=None if pretty else (",", ":")))
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
