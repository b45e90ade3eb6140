"""Independent oracles for every benchmark op, run after the timed window.

* Series values: `mpmath.hyper` for m = 1, `mpmath.appellf4` for
  (p, m) = (2, 2), and otherwise a 30-digit mpmath sum written here: shells
  over the first m - 1 indices, each times a `mpmath.hyper` sum over the
  last index. Phi_J is built from its definition:
  x^mu times the series at the shifted and reflected parameters.
* Series coefficients: exact Pochhammer products in Fractions.
* Dirichlet integrals: the gamma closed form in mpmath.
* R(x): sympy, by iterated resultants S_0(s) = s,
  S_k(s) = Res_t(S_{k-1}(s - t), t^p - x_k), R(x) = S_m(1) normalised to
  R(0) = 1. Its roots are the points where 1 - sum_k y_k = 0 for some
  y_k^p = x_k, the same locus fcpm builds from cyclotomic products.

`check(op, output)` returns (ok, reason, tail_miss) where tail_miss is
True/False for series.evaluate outputs (true error above the reported
tail_bound) and None otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf

import workloads as wl

DPS = 30
AGREE = 1e-8        # |value - ref| <= AGREE * max(1, |ref|)
COEF_REL = 1e-8     # integral-route coefficients, relative
SUM_EPS = mpf("1e-18")  # _nested_sum stops after 3 shells below this (relative)


def _mpq(q):
    return mpf(q.numerator) / q.denominator


def _params(doc):
    a = [Fraction(v) for v in doc["a"]]
    B = [[Fraction(v) for v in row] for row in doc["B"]]
    return a, B


def _compositions(m, d):
    if m == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(m - 1, d - first):
            yield (first,) + rest


def _nested_sum(a, B, x):
    """F(a, B; x) for m >= 2 at DPS digits (mp context already set).

    With n = (n', n_m) and s = |n'|, (a_i)_{s + n_m} = (a_i)_s (a_i + s)_{n_m},
    so the sum over n_m is G(s) = pFq(a + s; b_{1,m}..b_{p-1,m}; x_m), done
    by `mpmath.hyper`. The remaining sum over n' in N^(m-1) runs here by
    shells |n'| = s, with the one-step ratio
    A_{n'} / A_{n' - e_k} = prod_i (a_i + s - 1) / (n_k prod_j (b_jk + n_k - 1)),
    until three shells in a row add less than SUM_EPS relative to the total.
    """
    m = len(x)
    A = [_mpq(v) for v in a]
    Bm = [[_mpq(v) for v in row] for row in B]
    last = [row[m - 1] for row in Bm]
    shell = {(0,) * (m - 1): mpc(1)}
    total = mpmath.hyper(A, last, x[m - 1])
    quiet = 0
    s = 0
    while quiet < 3:
        s += 1
        num = mpf(1)
        for ai in A:
            num *= ai + (s - 1)
        new = {}
        for n in _compositions(m - 1, s):
            k = next(i for i, e in enumerate(n) if e)
            prev = list(n)
            prev[k] -= 1
            den = mpf(n[k])
            for row in Bm:
                den *= row[k] + (n[k] - 1)
            new[n] = shell[tuple(prev)] * x[k] * (num / den)
        shell = new
        contrib = mpmath.fsum(new.values()) * mpmath.hyper([ai + s for ai in A], last, x[m - 1])
        total += contrib
        quiet = quiet + 1 if abs(contrib) < SUM_EPS * max(1, abs(total)) else 0
    return total


def series_value(a, B, x):
    """F(a, B; x) as an mpc at DPS digits; B has the p - 1 free rows."""
    p, m = len(a), len(x)
    with mp.workdps(DPS):
        X = [mpc(v.real, v.imag) for v in x]
        if m == 1:
            return mpmath.hyper([_mpq(v) for v in a], [_mpq(row[0]) for row in B], X[0])
        if (p, m) == (2, 2):
            return mpmath.appellf4(_mpq(a[0]), _mpq(a[1]), _mpq(B[0][0]), _mpq(B[0][1]),
                                   X[0], X[1])
        return _nested_sum(a, B, X)


def phi_values(a, B, x):
    """Phi_J(x) for every label J in odometer order over {1..p}^m.

    mu_k = 1 - b_{j_k,k}, sigma = sum mu_k; the series factor has
    a + sigma and column k reflected: b + (1 - b_j)(1 + e_j - e_p) for j < p.
    """
    p, m = len(a), len(x)
    full = B + [[Fraction(1)] * m]
    out = []
    for J in itertools.product(range(1, p + 1), repeat=m):
        mu = [1 - full[j - 1][k] for k, j in enumerate(J)]
        sigma = sum(mu)
        cols = []
        for k, j in enumerate(J):
            col = [full[i][k] for i in range(p)]
            if j < p:
                t = 1 - col[j - 1]
                col = [c + t * (1 + (i == j - 1) - (i == p - 1)) for i, c in enumerate(col)]
            cols.append(col)
        a2 = [v + sigma for v in a]
        B2 = [[cols[k][i] for k in range(m)] for i in range(p - 1)]
        with mp.workdps(DPS):
            pref = mpc(1)
            for mk, xk in zip(mu, x):
                if mk:
                    pref *= mpmath.exp(_mpq(mk) * mpmath.log(mpc(xk.real, xk.imag)))
            out.append(pref * series_value(a2, B2, x))
    return out


def coefficient(a, B, n):
    """A_n = prod_i (a_i)_|n| / prod_k [prod_j (b_jk)_{n_k} n_k!], exactly."""
    def poch(s, k):
        out = Fraction(1)
        for i in range(k):
            out *= s + i
        return out
    num = Fraction(1)
    for ai in a:
        num *= poch(ai, sum(n))
    den = Fraction(1)
    for k, nk in enumerate(n):
        for row in B:
            den *= poch(row[k], nk)
        den *= math.factorial(nk)
    return num / den


@lru_cache(maxsize=None)
def R_x(p, m):
    """R(x) as {exponent tuple: int}, by sympy iterated resultants."""
    import sympy
    s, t = sympy.symbols("s t")
    xs = sympy.symbols(f"x1:{m + 1}")
    expr = s
    for k in range(m):
        expr = sympy.expand(sympy.resultant(sympy.expand(expr.subs(s, s - t)),
                                            t ** p - xs[k], t))
    terms = dict(sympy.Poly(sympy.expand(expr.subs(s, 1)), *xs).terms())
    c0 = terms[(0,) * m]
    return {e: int(c / c0) for e, c in terms.items()}


def on_locus(p, m, z):
    """R(z_1^p, ..., z_m^p) == 0, exactly."""
    x = [v ** p for v in z]
    total = Fraction(0)
    for exp, c in R_x(p, m).items():
        term = Fraction(c)
        for v, e in zip(x, exp):
            term *= v ** e
        total += term
    return total == 0


def _agree(value, ref):
    with mp.workdps(DPS):
        err = abs(mpc(value.real, value.imag) - ref)
        return err <= AGREE * max(1, abs(ref)), float(err)


# ---------------------------------------------------------------------------
# per-kind checks; each returns (ok, reason, tail_miss)

def _check_evaluate(op, out):
    a, B = _params(op["params"])
    x = [wl.unpair(v) for v in op["x"]]
    if out["tail_bound"] >= wl.TOL:
        return False, f"hit the shell cap at N={out['N_used']}", None
    ok, err = _agree(wl.unpair(out["value"]), series_value(a, B, x))
    return ok, f"error {err:.3g}", err > out["tail_bound"]


def _check_phi(op, out):
    a, B = _params(op["params"])
    x = [wl.unpair(v) for v in op["x"]]
    refs = phi_values(a, B, x)
    if len(refs) != len(out["values"]):
        return False, "wrong number of labels", None
    for v, ref in zip(out["values"], refs):
        ok, err = _agree(wl.unpair(v), ref)
        if not ok:
            return False, f"Phi error {err:.3g}", None
    return True, "", None


def _check_coef(op, out):
    a, B = _params(op["params"])
    ref = complex(coefficient(a, B, op["n"]))
    err = abs(wl.unpair(out["value"]) - ref) / abs(ref)
    return err <= COEF_REL, f"relative error {err:.3g}", None


def _check_dirichlet(op, out):
    s0 = wl.unpair(op["s0"])
    s = [wl.unpair(v) for v in op["s"]]
    with mp.workdps(DPS):
        S = [mpc(v.real, v.imag) for v in [s0] + s]
        ref = mpmath.gamma(S[0])
        for v in S[1:]:
            ref *= mpmath.gamma(v)
        ref /= mpmath.gamma(sum(S))
    for key in ("quadrature", "closed_form"):
        ok, err = _agree(wl.unpair(out[key]), ref)
        if not ok:
            return False, f"{key} error {err:.3g}", None
    return True, "", None


def _check_residual(op, out):
    return out["residual"] == "0", f"residual {out['residual']}", None


def _check_rank(p, m, z, cls, out):
    z = [Fraction(v) for v in z]
    singular = on_locus(p, m, z)
    if singular != (cls == "singular"):
        return False, f"input drawn as {cls} but R(x) says singular={singular}", None
    if singular:
        return out["drop"] is True, "no rank drop on the singular locus", None
    want = wl.expected_hilbert(p, m)
    ok = out["H"] == want and out["rank"] == p ** m and out["drop"] is False
    return ok, f"H={out['H']} rank={out['rank']}", None


def _check_cli(op, out):
    if out["code"] != 0:
        return False, f"exit code {out['code']}: {out['stdout'][:200]}", None
    try:
        res = json.loads(out["stdout"])["result"]
    except (ValueError, KeyError, TypeError):
        return False, "no JSON envelope on stdout", None
    name = op["name"]
    if name == "eval":
        ok, err = _agree(wl.unpair(res["value"]),
                         series_value(*_params(op["params"]), [wl.unpair(v) for v in op["x"]]))
        return ok, f"error {err:.3g}", None
    if name == "phi":
        a, B = _params(op["params"])
        p, m = len(a), len(op["x"])
        labels = list(itertools.product(range(1, p + 1), repeat=m))
        J = tuple(p if j == 0 else j for j in op["label"])
        ref = phi_values(a, B, [wl.unpair(v) for v in op["x"]])[labels.index(J)]
        ok, err = _agree(wl.unpair(res["value"]), ref)
        return ok, f"error {err:.3g}", None
    if name == "singular-poly":
        got = {tuple(t["exp"]): int(t["coef"]) for t in res["terms"]}
        return got == R_x(op["p"], op["m"]), "R(x) terms differ from sympy", None
    if name in ("rank-check", "rank-check-cold"):
        return _check_rank(op["p"], op["m"], op["z"], op["class"], res)
    if name == "verify-pde":
        ok = res["pass"] is True and all(r["residual"] == "0" for r in res["labels"])
        return ok, "nonzero residual", None
    if name == "verify-integral":
        a, B = _params(op["params"])
        for row in res["rows"]:
            ref = coefficient(a, B, row["n"])
            if Fraction(row["series"]) != ref:
                return False, f"series coefficient at {row['n']}", None
            err = abs(wl.unpair(row["integral"]) - complex(ref)) / abs(complex(ref))
            if err > COEF_REL:
                return False, f"integral coefficient at {row['n']}: {err:.3g}", None
        return res["pass"] is True, "verify-integral did not pass", None
    if name == "domain-check":
        p = 2
        r = sum(abs(wl.unpair(v)) ** (1.0 / p) for v in op["x"])
        ok = (res["in_domain"] is (r < 1) and abs(res["radius"] - r) <= 1e-12
              and res["probe"]["growing"] is False)
        return ok, f"domain-check payload {res}", None
    if name == "check":
        return res["check"] == "ok", "replay mismatch", None
    return False, f"no oracle for cli op {name}", None


def check(op, out):
    if "error" in out:
        return False, out["error"], None
    kind = op["kind"]
    if kind == "rank":
        return _check_rank(op["p"], op["m"], op["z"], op["class"], out)
    return {"evaluate": _check_evaluate, "phi_all": _check_phi,
            "coef_integral": _check_coef, "dirichlet": _check_dirichlet,
            "residual": _check_residual, "cli": _check_cli}[kind](op, out)
