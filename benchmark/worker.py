"""One benchmark process: set-up, then a timed closed loop of whole passes.

    python3 benchmark/worker.py --workload W --seed S --seconds T --t0 T0 \
        --out FILE [--first-pass K] [--min-passes P] [--trace] [--smoke]

T0 is the harness's time.perf_counter() just before it started this
interpreter (the clock is system-wide on Linux), so set-up time runs from
interpreter start to the first timed op. Set-up imports fcpm, makes the
first pass's ops, converts their arguments and warms up: one untimed op of
each group, the same for every seed (workloads.warmup_ops; for cli, the
`fcpm` run that records the envelope `--check` replays). The loop then
runs passes K, K+1, ..., one op at a time, until T seconds have gone by
and at least P passes are done (one pass with --smoke). Each pass has its own
inputs, made and converted before the pass starts; only the ops are timed.
FILE gets one JSON line of outputs per pass, then one line with the per-op
latencies and the rest of the record. Outputs are checked by the harness
after this process exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _numeric_or_exact_runner(op):
    """(call, serialize) for an in-process op; looks fcpm names up at call
    time so the tracer's wrappers, when installed, are the ones called."""
    from fcpm import charvar, diffops, integral, params, series
    kind = op["kind"]
    if kind in ("evaluate", "phi_all", "coef_integral", "residual"):
        ps = params.parameters_from_json(op["params"])
    if kind == "evaluate":
        x = tuple(wl.unpair(v) for v in op["x"])
        return (lambda: series.evaluate(ps, x, tol=wl.TOL),
                lambda r: {"value": wl.pair(r.value), "N_used": r.N_used,
                           "tail_bound": r.tail_bound})
    if kind == "phi_all":
        x = tuple(wl.unpair(v) for v in op["x"])
        labels = params.all_labels(ps.p, ps.m)
        return (lambda: [series.evaluate_phi(ps, J, x, tol=wl.TOL) for J in labels],
                lambda r: {"values": [wl.pair(v) for v in r]})
    if kind == "coef_integral":
        n = tuple(op["n"])
        return (lambda: integral.coefficient_via_integral(ps, n),
                lambda r: {"value": wl.pair(r)})
    if kind == "dirichlet":
        s0 = wl.unpair(op["s0"])
        s = [wl.unpair(v) for v in op["s"]]
        return (lambda: integral.dirichlet_integral(s0, s),
                lambda r: {"quadrature": wl.pair(r.quadrature),
                           "closed_form": wl.pair(r.closed_form),
                           "order_used": r.order_used})
    if kind == "residual":
        label, N = tuple(op["label"]), op["N"]
        return (lambda: diffops.annihilation_residual(ps, label, N),
                lambda r: {"residual": str(r)})
    if kind == "rank":
        p, m = op["p"], op["m"]
        z = tuple(Fraction(v) for v in op["z"])
        return (lambda: charvar.rank_at(p, m, z),
                lambda r: {"H": list(r.H), "rank": r.rank, "drop": r.drop})
    raise ValueError(f"unknown op kind {kind!r}")


class CliRunner:
    """Runs `fcpm` commands as child processes from the repository root."""

    def __init__(self, run_dir, seed, tracer):
        self.run_dir = run_dir
        self.seed = seed
        self.tracer = tracer
        self.calls = 0

    def prepare_pass(self, pass_index):
        """Write the pass's parameter files and record the envelope its
        `check` op replays."""
        for name, doc in wl.cli_files(self.seed, pass_index).items():
            (self.run_dir / name).write_text(json.dumps(doc), encoding="utf-8")
        code, out = self.run(wl.recorded_argv(self.seed, pass_index))
        if code != 0:
            raise RuntimeError(f"recording the --check envelope failed: {out}")
        (self.run_dir / "envelope").write_text(out, encoding="utf-8")

    def argv(self, argv):
        return [str(self.run_dir / a[1:]) if a.startswith("@") else a for a in argv]

    def run(self, argv, spans_file=None):
        if spans_file is None:
            cmd = [sys.executable, "-m", "fcpm", *self.argv(argv)]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_file),
                   *self.argv(argv)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        return proc.returncode, proc.stdout

    def runner(self, op):
        def call():
            self.calls += 1
            spans = None
            if self.tracer is not None:
                spans = self.run_dir / f"spans{self.calls}.json"
            return (*self.run(op["argv"], spans), spans)
        return call, lambda r: {"code": r[0], "stdout": r[1]}


def prepare(args, pass_index, cli):
    """(call, serialize) for every op of a pass; the untimed work before it."""
    ops = wl.make_ops(args.workload, args.seed, pass_index, smoke=args.smoke)
    if cli is not None:
        cli.prepare_pass(pass_index)
        return [cli.runner(op) for op in ops]
    return [_numeric_or_exact_runner(op) for op in ops]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    out_path = Path(args.out)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        if args.workload != "cli":  # cli commands are traced by launch.py
            tracer.install()
    cli = CliRunner(out_path.parent, args.seed, tracer) if args.workload == "cli" else None
    prepared = prepare(args, args.first_pass, cli)
    if cli is None:
        for op in wl.warmup_ops(args.workload):
            _numeric_or_exact_runner(op)[0]()
    if tracer is not None:
        tracer.reset()

    start = time.perf_counter()
    setup_s = start - args.t0
    latency_ns = []
    passes = 0
    op_id = 0
    clock = time.perf_counter_ns
    with out_path.open("w", encoding="utf-8") as fh:
        while True:
            if passes:
                prepared = prepare(args, args.first_pass + passes, cli)
            raw = []
            for call, _ in prepared:
                if tracer is not None:
                    tracer.begin_op(op_id)
                t = clock()
                try:
                    res, err = call(), None
                except Exception as exc:  # an op that raises is a failed op
                    res, err = None, f"{type(exc).__name__}: {exc}"
                latency_ns.append(clock() - t)
                if tracer is not None:
                    tracer.end_op()
                    if cli is not None and res is not None and res[2] is not None:
                        spans_file = res[2]
                        if spans_file.exists():
                            tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")),
                                         op_id)
                            spans_file.unlink()
                raw.append((res, err))
                op_id += 1
            # one line of outputs per pass, so that memory does not grow with the window
            fh.write(json.dumps([{"error": err} if err is not None else serialize(res)
                                 for (res, err), (_, serialize) in zip(raw, prepared)]) + "\n")
            passes += 1
            if args.smoke or (passes >= args.min_passes
                              and time.perf_counter() - start >= args.seconds):
                break
        elapsed = time.perf_counter() - start

        who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
        doc = {"setup_s": setup_s, "elapsed_s": elapsed, "passes": passes,
               "ops_per_pass": len(prepared), "latency_ns": latency_ns,
               "peak_rss_kb": resource.getrusage(who).ru_maxrss}
        if tracer is not None:
            doc["trace"] = tracer.dump()
        fh.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
