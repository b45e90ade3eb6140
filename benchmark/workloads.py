"""Seeded inputs for the three benchmark workloads.

Everything here uses only the standard library: the harness (which checks
outputs against the oracles) and the worker (which runs the ops) both call
`make_ops(workload, seed, pass_index)` and get the same op list, so the op
sequence is a pure function of the seed. Ops are plain JSON-able dicts; rationals travel
as "num/den" strings and complex numbers as [re, im] pairs, the forms the
`fcpm` parameter files and command line read.

One pass of a workload is its op list in order. Every pass draws its own
inputs from (seed, pass index) with the same shapes, radii and strata, so
no pass repeats an earlier pass's inputs (a cache keyed on the inputs gains
nothing), while the mix of op kinds, and every per-pass count, is the same
in every pass and every run. The parts of an input that set the work of a
numeric evaluation are fixed (see _numeric_ops), so each slot (place in
the list) costs the same work in every pass of every run.
"""

from __future__ import annotations

import cmath
import itertools
import random
from fractions import Fraction

WORKLOADS = ("numeric", "exact", "cli")

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

TOL = 1e-10  # series.evaluate tolerance on the numeric workload

# numeric: shapes (p, m) with the largest radius r = sum |x_k|^(1/p) drawn.
# Every pass evaluates each shape at the same radii, from near 0 up to r_max,
# with a real and with a complex point, REPLICATES parameter draws each and
# each draw with its complement. A draw's drift lies in a narrow band
# (banded_params) fixed by its place in the pass. The base parameters and
# directions are drawn once, the same for every seed; each pass nudges the
# parameters and draws signs and phases from (seed, pass index).
NUMERIC_SHAPES = ((2, 1, 0.95), (3, 1, 0.95), (4, 1, 0.95),
                  (2, 2, 0.95), (3, 2, 0.95), (2, 3, 0.8))
RADII = (0.02, 1 / 7, 2 / 7, 3 / 7, 4 / 7, 5 / 7, 6 / 7, 1.0)  # times r_max
REPLICATES = 1
# |g - c| of a draw, in standard deviations of g: the quartiles of |g - c|
# (normal approximation), taken by the places of a shape in turn
DRIFT_OFFSETS = (0.319, 1.150)
DRIFT_BAND = 0.05  # half-width of the band, in units of g
PHI_SHAPES = ((2, 1), (3, 1), (2, 2))
PHI_RADIUS = 0.3
COEF_SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2))
COEF_DEGREE = 2
DIRICHLET_OPS = 4

# exact: annihilation residuals at RESIDUAL_N and rank checks on raw points.
RESIDUAL_N = 10
RESIDUAL_SHAPES = ((2, 2), (3, 2), (2, 3))
RESIDUALS_PER_SHAPE = 4
RANK_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4))
RANK_POINTS_PER_CLASS = 4

# cli: the shape whose rank check pays the cold R(x) build in every process.
CLI_COLD_SHAPE = (3, 3)


def fmt_q(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def pair(c):
    return [c.real, c.imag]


def unpair(v):
    return complex(v[0], v[1])


def draw_params(rng, p, m, primes=None):
    """Exact parameters {"p","m","a","B"} (B without its all-ones last row).

    Every entry is k/q with its own prime q (the entries of `primes` in
    order, or drawn if None) and 0 < k < q. Distinct prime
    denominators make every difference that the genericity and integral-route
    conditions test non-integral, so each draw is generic and admissible for
    `coefficient_via_integral`.
    """
    picks = primes or rng.sample(PRIMES, p + (p - 1) * m)

    def entry(q):
        return Fraction(rng.randrange(1, q), q)

    a = [entry(q) for q in picks[:p]]
    B = [[entry(picks[p + j * m + k]) for k in range(m)] for j in range(p - 1)]
    return {"p": p, "m": m, "a": [fmt_q(v) for v in a],
            "B": [[fmt_q(v) for v in row] for row in B]}


def drift(params):
    """g = sum a - sum b: the shells of the series decay like N^g r^(pN) up
    to a constant shift, so g sets how many shells an evaluation needs."""
    return float(sum(Fraction(v) for v in params["a"])
                 - sum(Fraction(v) for row in params["B"] for v in row))


def complement(params):
    """The same draw with every entry v replaced by 1 - v (still generic).

    Its drift mirrors the draw's about the centre c = (p - (p-1)m) / 2, so
    a draw and its complement together need about the same work whatever
    the seed.
    """
    def flip(v):
        return fmt_q(1 - Fraction(v))
    return dict(params, a=[flip(v) for v in params["a"]],
                B=[[flip(v) for v in row] for row in params["B"]])


def banded_params(rng, p, m, offset):
    """A draw with drift g in c + offset * sd +- DRIFT_BAND, and its complement.

    g - c is a sum of p + (p-1)m centred uniforms with standard deviation
    sd, and c = (p - (p-1)m) / 2. The complement's drift is c - offset * sd
    +- DRIFT_BAND. At a given radius the shells an evaluation needs vary by
    a few percent within a band, against a factor of two or more over all
    draws.
    """
    centre = (p - (p - 1) * m) / 2
    target = offset * ((p + (p - 1) * m) / 12) ** 0.5
    while True:
        params = draw_params(rng, p, m)
        g = drift(params) - centre
        if abs(abs(g) - target) < DRIFT_BAND:
            return (params, complement(params)) if g > 0 else (complement(params), params)


def draw_point(rng, p, m, r, complex_point, positive=False, w=None):
    """A point with sum_k |x_k|^(1/p) = r (up to rounding).

    |x_k| is split in proportion to the weights `w` (drawn if None). Real
    points take random signs (positive ones if `positive`), complex points
    random phases in (-3, 3), which keeps them off the branch cut (-inf, 0]
    that the fundamental solutions need to avoid.
    """
    if w is None:
        w = [rng.random() + 0.2 for _ in range(m)]
    total = sum(w)
    out = []
    for wk in w:
        mag = (r * wk / total) ** p
        if complex_point:
            out.append(cmath.rect(mag, rng.uniform(-3.0, 3.0)))
        elif positive:
            out.append(complex(mag))
        else:
            out.append(complex(mag * rng.choice((1, -1))))
    return [pair(c) for c in out]


def nudge(rng, params):
    """`params` with every entry moved by less than 1e-6.

    Differences between distinct prime denominators keep every tested
    difference at least 1/(53 * 47) from an integer, so the result is
    generic too. The shells an evaluation needs do not change (short of a
    tie at the stopping test), but no two nudged draws are equal.
    """
    def move(v):
        return fmt_q(Fraction(v) + Fraction(rng.randrange(1, 1000), 10**9))
    return dict(params, a=[move(v) for v in params["a"]],
                B=[[move(v) for v in row] for row in params["B"]])


def _numeric_ops(rng, base_rng):
    """Evaluations take their base parameters and the split of |x| among
    the coordinates from `base_rng`, the same for every seed and pass, so a
    slot costs the same work in every pass and every run; the nudges of
    the parameters, the signs and the phases come from `rng`."""
    ops = []
    for p, m, r_max in NUMERIC_SHAPES:
        for (i, f), cplx, rep in itertools.product(enumerate(RADII), (0, 1),
                                                   range(REPLICATES)):
            offset = DRIFT_OFFSETS[(i + cplx + rep) % len(DRIFT_OFFSETS)]
            w = [base_rng.random() + 0.2 for _ in range(m)]
            x = draw_point(rng, p, m, r_max * f, cplx, w=w)
            for ps in banded_params(base_rng, p, m, offset):
                ps = nudge(rng, ps)
                ops.append({"kind": "evaluate", "group": f"evaluate{p}{m}",
                            "params": ps, "x": x, "r": r_max * f})
    for p, m in PHI_SHAPES:
        r = PHI_RADIUS
        ops.append({"kind": "phi_all", "group": f"phi_all{p}{m}",
                    "params": draw_params(rng, p, m),
                    "x": draw_point(rng, p, m, r, rng.random() < 0.5, positive=True)})
    for p, m in COEF_SHAPES:
        n = [0] * m
        for _ in range(COEF_DEGREE):
            n[rng.randrange(m)] += 1
        ops.append({"kind": "coef_integral", "group": f"coef_integral{p}{m}",
                    "params": draw_params(rng, p, m), "n": n})
    for i in range(DIRICHLET_OPS):
        cplx = i % 2 == 1

        def expo():
            return pair(complex(rng.uniform(0.5, 3.0),
                                rng.uniform(-1.0, 1.0) if cplx else 0.0))

        ops.append({"kind": "dirichlet", "group": "dirichlet",
                    "s0": expo(), "s": [expo(), expo()]})
    return ops


POINT_DENOMINATORS = (2, 3, 5, 7, 11, 13)


def generic_point(rng, m, qs=None):
    """Rational z with nonzero entries and sum |z_k| < 1; entry k has
    denominator qs[k] * m (qs drawn if None).

    Every linear factor 1 - sum zeta^(i_k) z_k of R(z) then has modulus at
    least 1 - sum |z_k| > 0, so the point is off the singular locus.
    """
    qs = qs or [rng.choice(POINT_DENOMINATORS) for _ in range(m)]
    return [Fraction(rng.randrange(1, q), q * m) * rng.choice((1, -1)) for q in qs]


def singular_point(rng, m, qs=None):
    """Rational z with nonzero entries on the factor 1 - z_1 - ... - z_m of
    R(z); entry k < m has denominator qs[k] (qs drawn if None)."""
    while True:
        qk = qs or [rng.choice(POINT_DENOMINATORS) for _ in range(m - 1)]
        z = [Fraction(rng.randrange(1, 12), q) * rng.choice((1, -1)) for q in qk]
        last = 1 - sum(z)
        if last != 0:
            return z + [last]


def _exact_ops(rng, base_rng):
    """The sizes of the rationals (which primes and which denominators) and
    the labels come from `base_rng`, the same for every seed and pass, so a
    slot costs about the same work in every pass and every run; numerators
    and signs come from `rng`."""
    ops = []
    for p, m in RESIDUAL_SHAPES:
        for _ in range(RESIDUALS_PER_SHAPE):
            primes = base_rng.sample(PRIMES, p + (p - 1) * m)
            ops.append({"kind": "residual", "group": f"residual{p}{m}",
                        "params": draw_params(rng, p, m, primes),
                        "label": [base_rng.randrange(1, p + 1) for _ in range(m)],
                        "N": RESIDUAL_N})
    for p, m in RANK_SHAPES:
        for cls in ("generic", "singular"):
            for _ in range(RANK_POINTS_PER_CLASS):
                if cls == "generic":
                    z = generic_point(rng, m, [base_rng.choice(POINT_DENOMINATORS)
                                               for _ in range(m)])
                else:
                    z = singular_point(rng, m, [base_rng.choice(POINT_DENOMINATORS)
                                                for _ in range(m - 1)])
                ops.append({"kind": "rank", "group": f"rank{p}{m}", "class": cls,
                            "p": p, "m": m, "z": [fmt_q(v) for v in z]})
    return ops


def _vector_arg(z):
    return "[" + ",".join(fmt_q(v) for v in z) + "]"


def _cli_ops(rng, _base_rng):
    """One `fcpm` process per op.

    Arguments of the form "@name" are files the worker writes during set-up
    (`cli_files`); "@envelope" is the output of `recorded_argv` saved then.
    """
    p22 = draw_params(rng, 2, 2)
    p21 = draw_params(rng, 2, 1)
    x_eval = draw_point(rng, 2, 2, rng.uniform(0.3, 0.7), True)
    x_phi = draw_point(rng, 2, 2, rng.uniform(0.2, 0.5), False, positive=True)
    x_dom = draw_point(rng, 2, 2, rng.uniform(0.3, 0.7), False)
    label = [rng.randrange(0, 2), rng.randrange(0, 2)]
    z_rank = generic_point(rng, 2)
    cp, cm = CLI_COLD_SHAPE
    z_cold = singular_point(rng, cm)
    ops = [
        ("eval", ["eval", "--params", "@params22.json", "--x", repr(x_eval)],
         {"params": p22, "x": x_eval}),
        ("phi", ["phi", "--params", "@params22.json", "--label", repr(label),
                 "--x", repr(x_phi)], {"params": p22, "x": x_phi, "label": label}),
        ("singular-poly", ["singular-poly", "--p", "2", "--m", "3"], {"p": 2, "m": 3}),
        ("rank-check", ["rank-check", "--p", "2", "--m", "2", "--z", _vector_arg(z_rank)],
         {"p": 2, "m": 2, "z": [fmt_q(v) for v in z_rank], "class": "generic"}),
        ("verify-pde", ["verify-pde", "--params", "@params22.json", "--N", "6"],
         {"params": p22}),
        ("verify-integral", ["verify-integral", "--params", "@params21.json", "--N", "4"],
         {"params": p21}),
        ("domain-check", ["domain-check", "--x", repr(x_dom), "--p", "2", "--m", "2",
                          "--params", "@params22.json", "--shells", "30"],
         {"params": p22, "x": x_dom}),
        ("check", ["--check", "@envelope"], {"class": "singular"}),
        ("rank-check-cold", ["rank-check", "--p", str(cp), "--m", str(cm),
                             "--z", _vector_arg(z_cold)],
         {"p": cp, "m": cm, "z": [fmt_q(v) for v in z_cold], "class": "singular"}),
    ]
    return [dict({"kind": "cli", "group": name, "name": name, "argv": argv}, **ctx)
            for name, argv, ctx in ops]


_BUILD = {"numeric": _numeric_ops, "exact": _exact_ops, "cli": _cli_ops}


def cli_files(seed, pass_index=0):
    """Files the cli workload writes before a pass: name -> JSON document."""
    ops = make_ops("cli", seed, pass_index)
    by_name = {op["name"]: op for op in ops}
    return {"params22.json": by_name["eval"]["params"],
            "params21.json": by_name["verify-integral"]["params"]}


def recorded_argv(seed, pass_index=0):
    """The exact-mode command whose envelope the `check` op of a pass
    replays: a rank check at a singular point of shape (3, 2)."""
    rng = random.Random(f"cli-recorded-{seed}-{pass_index}")
    z = singular_point(rng, 2)
    return ["rank-check", "--p", "3", "--m", "2", "--z", _vector_arg(z)]


def make_ops(workload, seed, pass_index=0, smoke=False):
    """The op list of one pass, drawn and shuffled from (seed, pass index).

    Every op carries its `slot`, its place in the list before the shuffle:
    the ops of one slot in different passes are the same kind of op, with
    inputs of their own that cost about the same work. With `smoke`, only
    the first op of each group is kept.
    """
    rng = random.Random(f"{workload}-{seed}-{pass_index}")
    base_rng = random.Random(f"{workload}-base")
    ops = [dict(op, slot=i) for i, op in enumerate(_BUILD[workload](rng, base_rng))]
    if smoke:
        seen = set()
        ops = [op for op in ops if not (op["group"] in seen or seen.add(op["group"]))]
    rng.shuffle(ops)
    return ops


def warmup_ops(workload):
    """One op per group, the same for every seed: the op at the largest
    radius of each numeric shape (so that per-shape and per-depth state is
    filled up to the deepest walk a pass needs), the first op of every
    other group. Drawn from a fixed draw that no seed's passes use."""
    ops = {}
    for op in _BUILD[workload](random.Random(f"{workload}-warm-up"),
                               random.Random(f"{workload}-warm-up")):
        best = ops.get(op["group"])
        if best is None or op.get("r", 0) > best.get("r", 0):
            ops[op["group"]] = op
    return list(ops.values())


def expected_hilbert(p, m):
    """Coefficients of (1 + t + ... + t^(p-1))^m, padded to d_max = m(p-1) + p."""
    poly = [1]
    for _ in range(m):
        out = [0] * (len(poly) + p - 1)
        for i, c in enumerate(poly):
            for j in range(p):
                out[i + j] += c
        poly = out
    return poly + [0] * (m * (p - 1) + p + 1 - len(poly))
