"""fcpm benchmark harness.

    python3 benchmark/run.py --workload {numeric,exact,cli,all} --seed N \
        --seconds T --trace {0,1} [--smoke]

Run from the repository root (any checkout holding src/fcpm). Each workload
runs in fresh interpreters started by this script (benchmark/worker.py):

* --trace 0: SEGMENTS workers in turn, each with its own set-up and T /
  SEGMENTS seconds of the timed closed loop of whole passes, each pass
  with its own inputs; each worker's outputs are checked against the
  oracles in benchmark/oracles.py before the next one starts, so the
  timed passes spread over the whole run. Prints the end-to-end metrics,
  taken over each slot's median latency over the passes (window_stats).
* --trace 1: one untraced and one traced run (wrappers from
  benchmark/tracer.py) of T/2 seconds each, and one traced pass of the
  command lines, all checked. Prints the per-layer metrics, the tracing
  overhead, and the interpreter and import costs of the command line.

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"} (keyed by workload with --workload all); the lines
before it are a readable report with
provenance. The full record is also written to .bench_results/. --smoke
runs one op of each group for one pass, in one worker.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import oracles
import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEGMENTS = 4         # workers per --trace 0 run, each with a set-up; setup_s is their median
TAIL_BEYOND = 10     # latency_tail_ms: highest percentile with >= 10 slots beyond
WORKER_TIMEOUT = 150
ORACLE_PROCS = 2     # processes that check the outputs between segments

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

CLI_OPS = ("eval", "phi", "singular-poly", "rank-check", "verify-pde",
           "verify-integral", "domain-check", "check", "rank-check-cold")


def _per_layer_spec():
    out = []
    for name in tr.LAYER_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_ms", "ms", "lower"),
                (f"{name}.self_ms", "ms", "lower")]
    out.append((f"{tr.ROOT}.self_ms", "ms", "lower"))
    out += [(c, "count", "lower") for c in tr.COUNTERS]
    out += [("series.evaluate.terms_per_ms", "1/ms", "higher"),
            ("charvar.rank_at.generic.busy_ms", "ms", "lower"),
            ("charvar.rank_at.singular.busy_ms", "ms", "lower"),
            ("singular.build_R_x.setup_ms", "ms", "lower"),
            ("singular.build_R_x.setup_misses", "count", "lower"),
            ("tail_bound_miss_frac", "fraction", "lower"),
            ("trace.ops_per_s", "1/s", "higher"),
            ("trace.untraced_ops_per_s", "1/s", "higher"),
            ("trace.slowdown", "ratio", "lower"),
            ("cli.interpreter_ms", "ms", "lower"),
            ("cli.import_fcpm_ms", "ms", "lower"),
            ("cli.import_numpy_scipy_ms", "ms", "lower")]
    out += [(f"cli.{name}.wall_ms", "ms", "lower") for name in CLI_OPS]
    return tuple(out)


PER_LAYER = _per_layer_spec()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


class HarnessError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.pop("FCPM_MAX_SHELLS", None)
    return env


def run_worker(args, run_dir, tag, seconds, first_pass=0, min_passes=3, trace=False,
               workload=None, smoke=None):
    """Run one worker; its record, with `pass_ops`, the op list of each of
    its passes."""
    out = run_dir / f"{tag}.json"
    workload = workload or args.workload
    smoke = args.smoke if smoke is None else smoke
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--out", str(out),
           "--first-pass", str(first_pass), "--min-passes", str(min_passes)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    t0 = time.perf_counter()
    # own session, so that a timeout also ends the `fcpm` processes of a cli worker
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"worker {tag} ran over {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"worker {tag} failed (exit {proc.returncode}):\n{stderr}")
    lines = out.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[-1])
    doc["outputs"] = [json.loads(line) for line in lines[:-1]]  # one list per pass
    doc["pass_ops"] = [wl.make_ops(workload, args.seed, first_pass + k, smoke=smoke)
                       for k in range(doc["passes"])]
    return doc


def check_outputs(pool, docs):
    """Check every output of `docs` against the oracles, in the processes
    of `pool`; returns (failed, failure notes, tail misses, evaluate
    outputs). An output that the untraced and traced workers of --trace 1
    share is checked once."""
    def keyed(doc):
        for ops, outs in zip(doc["pass_ops"], doc["outputs"]):
            for op, out in zip(ops, outs):
                yield json.dumps([op, out], sort_keys=True), op, out

    todo = {}
    for doc in docs:
        for key, op, out in keyed(doc):
            todo.setdefault(key, (op, out))
    verdicts = dict(zip(todo, pool.map(oracles.check, *zip(*todo.values()), chunksize=8)))
    failed, notes, misses, evaluated = 0, [], 0, 0
    for doc in docs:
        for key, op, _ in keyed(doc):
            ok, reason, miss = verdicts[key]
            if not ok:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"op {op['group']} (slot {op['slot']}): {reason}")
            if miss is not None:
                evaluated += 1
                misses += miss
    return failed, notes, misses, evaluated


def pass_latencies_ms(doc):
    """The latencies of each pass, in ms."""
    k, lat = doc["ops_per_pass"], doc["latency_ns"]
    return [[t / 1e6 for t in lat[i:i + k]] for i in range(0, len(lat), k)]


def slot_latencies_ms(docs):
    """slot -> the latencies, in ms, of that slot's op in every pass of
    `docs`."""
    slots = {}
    for doc in docs:
        for ops, lats in zip(doc["pass_ops"], pass_latencies_ms(doc)):
            for op, t in zip(ops, lats):
                slots.setdefault(op["slot"], []).append(t)
    return slots


def window_stats(docs):
    """ops_per_s, latency_p50_ms and latency_tail_ms over the passes of
    `docs`.

    Each slot of the pass (workloads.make_ops) runs once per pass, with
    inputs of its own that cost the same work, so the median of its
    latencies over the passes is its cost at the machine's typical speed
    during the run, whichever inputs it drew. The metrics are taken over
    these per-slot medians: the rate is the slot count over their sum, p50
    their median, and the tail the highest percentile that leaves at least
    TAIL_BEYOND slots beyond it (the slowest slot with TAIL_BEYOND or fewer
    slots).
    """
    typical = sorted(statistics.median(v) for v in slot_latencies_ms(docs).values())
    n = len(typical)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"rate": 1e3 * n / sum(typical), "p50": statistics.median(typical),
            "tail": typical[k - 1], "tail_pct": 100.0 * k / n, "beyond": n - k, "slots": n,
            "n": sum(len(doc["latency_ns"]) for doc in docs),
            "passes": sum(doc["passes"] for doc in docs)}


def _top_cumulative_us(stderr, roots):
    """Sum of cumulative -X importtime microseconds over the outermost
    imports whose top-level package is in `roots`."""
    entries = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        field = parts[2]
        entries.append((len(field) - len(field.lstrip()), field.strip(), cumulative))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(anc.split(".")[0] in roots for _, anc in stack)
        if name.split(".")[0] in roots and not inside:
            total += cumulative
        stack.append((depth, name))
    return total


def import_costs():
    """cli.interpreter_ms, cli.import_fcpm_ms, cli.import_numpy_scipy_ms."""
    interp = []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=worker_env(), check=True)
        interp.append((time.perf_counter() - t) * 1e3)
    fcpm_us, np_us = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fcpm.cli"],
                              cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              check=True)
        fcpm_us.append(_top_cumulative_us(proc.stderr, {"fcpm"}))
        np_us.append(_top_cumulative_us(proc.stderr, {"numpy", "scipy"}))
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_fcpm_ms": statistics.median(fcpm_us) / 1e3,
            "cli.import_numpy_scipy_ms": statistics.median(np_us) / 1e3}


def per_layer(doc, untraced, misses, evaluated, probe):
    """Per-layer metrics of a traced run, per pass of the op list.

    Times are the median over the passes of the window; calls and work
    counters are the mean per pass (every pass has the same op kinds and
    counts, with inputs of its own). `probe` is the record of the one
    traced pass of the command lines, which gives the `cli.*` metrics.
    """
    k, passes, spans = doc["ops_per_pass"], doc["passes"], doc["trace"]["spans"]
    pass_ops = doc["pass_ops"]
    for trace_doc in (doc, probe):
        problems = tr.check_spans(trace_doc["trace"]["spans"])
        if problems:
            raise HarnessError(f"traced spans do not nest: {problems}")
    stats = tr.summary(spans, group=lambda op_id: op_id // k)
    by_class = [{"generic": 0, "singular": 0} for _ in range(passes)]
    for name, start, end, _, op_id in spans:
        if name == "charvar.rank_at":
            by_class[op_id // k][pass_ops[op_id // k][op_id % k]["class"]] += end - start

    def median_ms(values_ns):
        return statistics.median(values_ns) / 1e6

    metrics = {}
    evaluate_busy_ns = sum(stats[i].get("series.evaluate", (0, 0, 0))[1] for i in range(passes))
    for name in tr.LAYER_NAMES + (tr.ROOT,):
        calls, busy, self_ns = zip(*(stats[i].get(name, (0, 0, 0)) for i in range(passes)))
        if name != tr.ROOT:
            metrics[f"{name}.calls"] = sum(calls) / passes
            metrics[f"{name}.busy_ms"] = median_ms(busy)
        metrics[f"{name}.self_ms"] = median_ms(self_ns)
    counters = doc["trace"]["counters"]
    for name in tr.COUNTERS:
        metrics[name] = counters.get(name, 0) / passes
    for name in ("singular.build_R_x.setup_ms", "singular.build_R_x.setup_misses"):
        metrics[name] = doc["trace"]["setup"].get(name, 0)
    metrics["series.evaluate.terms_per_ms"] = (  # over the whole window
        counters.get("series.evaluate.terms", 0) / (evaluate_busy_ns / 1e6)
        if evaluate_busy_ns else 0)
    for cls in ("generic", "singular"):
        metrics[f"charvar.rank_at.{cls}.busy_ms"] = median_ms([c[cls] for c in by_class])
    metrics["tail_bound_miss_frac"] = misses / evaluated if evaluated else 0
    traced_rate = window_stats([doc])["rate"]
    untraced_rate = window_stats([untraced])["rate"]
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.slowdown"] = untraced_rate / traced_rate
    calls, busy, self_ns = tr.summary(probe["trace"]["spans"])[0]["cli.run"]
    metrics.update({"cli.run.calls": calls, "cli.run.busy_ms": busy / 1e6,
                    "cli.run.self_ms": self_ns / 1e6})
    for name in CLI_OPS:
        lat = [t for ops, lats in zip(probe["pass_ops"], pass_latencies_ms(probe))
               for op, t in zip(ops, lats) if op["name"] == name]
        metrics[f"cli.{name}.wall_ms"] = statistics.median(lat)
    return metrics


def provenance(args, ops, passes, load_before, calib_before):
    """Where and how the run was made; `ops` is one pass (every pass has
    the same op count per kind)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"git_sha": sha, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": _loadavg(),
            "calibration_ms_before": calib_before, "calibration_ms_after": calibration_ms(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "ops_per_kind": {k: v * passes for k, v in
                             sorted(Counter(op["group"] for op in ops).items())}}


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").split()[:3]
    except OSError:
        return []


def calibration_ms(reps=20):
    """[fastest, median] ms of a fixed pure-Python loop: the machine's speed
    at this moment, recorded so that runs on a slow machine stand out."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t) * 1e3)
    return [min(times), statistics.median(times)]


def run_workload(args, run_dir, pool):
    load_before, calib_before = _loadavg(), calibration_ms()
    failed = misses = evaluated = 0
    notes = []

    def check(docs):
        nonlocal failed, notes, misses, evaluated
        f, n, m, e = check_outputs(pool, docs)
        failed, notes, misses, evaluated = failed + f, notes + n, misses + m, evaluated + e

    if args.trace:
        # the untraced run only gives the base of the tracing overhead
        half = args.seconds / 2
        docs = [run_worker(args, run_dir, "untraced", half),
                run_worker(args, run_dir, "traced", half, trace=True)]
        # one traced pass of the command lines, for the cli layer
        probe = run_worker(args, run_dir, "cli-probe", 0, trace=True, workload="cli",
                           smoke=True)
        check(docs)
        check([probe])
        extra = import_costs()
    else:
        # SEGMENTS workers, each with its own set-up and a share of the
        # window; each one's outputs are checked before the next starts
        docs = []
        for i in range(1 if args.smoke else SEGMENTS):
            docs.append(run_worker(args, run_dir, f"segment{i}", args.seconds / SEGMENTS,
                                   first_pass=sum(d["passes"] for d in docs), min_passes=1))
            check(docs[-1:])
        setups = [d["setup_s"] for d in docs]
    attempted = sum(len(d["latency_ns"]) for d in docs) + (
        len(probe["latency_ns"]) if args.trace else 0)
    measured = docs[-1:] if args.trace else docs
    window = window_stats(measured)
    window_s = sum(d["elapsed_s"] for d in measured)
    doc = docs[-1]
    if args.trace:
        metrics = per_layer(doc, docs[0], misses, evaluated, probe)
        metrics.update(extra)
        names = [n for n, _, _ in PER_LAYER]
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "ops_per_s": window["rate"],
                   "latency_p50_ms": window["p50"],
                   "latency_tail_ms": window["tail"],
                   "peak_rss_mb": max(d["peak_rss_kb"] for d in docs) / 1024}
        names = [n for n, _, _ in END_TO_END]
    metrics = {n: metrics[n] for n in names}
    record = {
        "workload": args.workload,
        "metrics": metrics,
        "context": {
            "setups_s": None if args.trace else setups,
            "ops": window["n"], "passes": window["passes"],
            "ops_per_pass": doc["ops_per_pass"], "window_s": window_s,
            "window_ops_per_s": window["n"] / window_s,
            "latency": window, "fail_frac": failed / attempted,
            "tail_bound_miss_frac": misses / evaluated if evaluated else None,
            "tail_bound_checked": evaluated, "failures": notes,
            "trace_check": (f"spans nest in each of the {len(doc['latency_ns'])} traced ops, "
                            f"so per-layer self times plus bench.op self time equal its "
                            f"wall time" if args.trace else None)},
        "provenance": provenance(args, doc["pass_ops"][0], window["passes"], load_before,
                                 calib_before),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()}}
    return record, result


def report(record, result):
    ctx, prov = record["context"], record["provenance"]
    lat = ctx["latency"]
    lines = [f"== fcpm benchmark: workload {record['workload']}, seed {prov['seed']}, "
             f"trace {prov['trace']} =="]
    notes = {
        "setup_s": f"median of set-ups {ctx['setups_s']}",
        "ops_per_s": f"{lat['slots']} slots over their median of {lat['passes']} passes "
                     f"({lat['n']} ops); over the whole window ({ctx['window_s']:.3f} s, "
                     f"with the untimed work between passes): "
                     f"{ctx['window_ops_per_s']:.4g}/s",
        "latency_p50_ms": f"median of {lat['slots']} per-slot median latencies",
        "latency_tail_ms": (f"p{lat['tail_pct']:.1f} of {lat['slots']} per-slot median "
                            f"latencies, {lat['beyond']} beyond"),
    }
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<8} {notes.get(name, '')}")
    lines.append(f"  {'fail_frac':<40} {ctx['fail_frac']:>14.6g} {'fraction':<8} "
                 f"{result['failed']} of {result['attempted']} ops")
    if ctx["tail_bound_miss_frac"] is not None:
        lines.append(f"  {'tail_bound_miss_frac':<40} {ctx['tail_bound_miss_frac']:>14.6g} "
                     f"{'fraction':<8} of {ctx['tail_bound_checked']} checked evaluations")
    lines += [f"  failure: {n}" for n in ctx["failures"]]
    if ctx["trace_check"]:
        lines.append(f"  {ctx['trace_check']}")
    lines.append("  provenance: " + json.dumps(prov, sort_keys=True))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fcpm" / "__init__.py").is_file():
        print(f"fcpm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    workloads = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {}
    for name in workloads:
        args.workload = name
        run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_run"))
        # one pool for the whole run, so that the oracles' caches (sympy R(x))
        # are filled once, not once per segment
        pool = ProcessPoolExecutor(ORACLE_PROCS, mp_context=multiprocessing.get_context("fork"))
        try:
            record, result = run_workload(args, run_dir, pool)
        except (HarnessError, subprocess.SubprocessError) as exc:
            print(f"benchmark could not run: {exc}", file=sys.stderr)
            return 1
        finally:
            pool.shutdown(cancel_futures=True)
            shutil.rmtree(run_dir, ignore_errors=True)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(dict(record, result=result), indent=1), encoding="utf-8")
        print(report(record, result))
        combined[name] = result
    print(json.dumps(combined[workloads[0]] if len(workloads) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
