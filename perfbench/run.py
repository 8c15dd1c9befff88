"""Benchmark of ``geomstates run``: one workload, one seed.

    python3 perfbench/run.py --workload qubit-sweep --seed 1 --seconds 30 --trace 0

Each workload runs in fresh interpreters that import only the program and
this benchmark.  ``--trace 0`` starts WORKERS of them one after another.
Each times its own set-up, then drives ``geomstates.cli.run_scenario`` in
process as one closed-loop caller: a run starts when the previous one has
returned.  Runs come in whole rounds of the workload's scenario kinds until
the worker's timed calls add up to its share of ``--seconds``.  Pooling the
runs of several interpreters averages out the speed differences between
processes, which on a small shared machine are as large as those between
runs.

After every call the worker times a fixed calibration kernel (``calibrate``,
no program code) for about a tenth of the call's time.  Each call's time is
divided by the median kernel time around it and multiplied by
``CAL_REF_S``: the time metrics are seconds on a machine where the kernel
takes ``CAL_REF_S``.  A shared 2-vCPU virtual machine was seen to switch
between CPU speeds up to 2x apart for minutes at a time; the raw times carry
that and the rescaled ones cancel it.  The raw figures are printed too.  Set-up time is
not rescaled (imports did not follow the kernel's speed); it is the median
over WORKERS + SETUP_ONLY fresh interpreters.

Every artifact is then checked against the independent references in
``oracle.py``.  A run whose call raised or whose artifacts fail a check
counts as failed.

``--trace 1`` starts one worker.  It runs half the time untraced and half
with spans around every public function of each module (see ``trace.py``),
and prints the per-layer metrics with the tracing overhead.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench-results"
WORKERS = 2
SETUP_ONLY = 1  # an extra interpreter that only sets up, for the setup_s median
CAL_SHARE = 0.1  # kernel time after a call, as a share of the call's time
CAL_REF_S = 0.010  # kernel time on the reference machine
CAL_WINDOW = 2  # calls on each side whose kernel samples rescale a call
ADDRESS_SPACE = 4 << 30  # bytes per worker; qutrit-report peaks near 0.5 GB resident
# One BLAS thread: analyze_contraction already runs its two sectors on a
# two-thread pool, and the machine has two cores.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["qubit-sweep", "qutrit-report", "ququart-fields"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workers", type=int, default=WORKERS, help=argparse.SUPPRESS)
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ worker

def calibrate():
    """Seconds taken by a fixed mix of interpreter, numpy and LAPACK work."""
    import numpy as np  # first called after set-up, which imports it

    a = np.random.default_rng(0).normal(size=(96, 96))
    t0 = perf_counter()
    s = 0.0
    for i in range(40000):
        s += i * 0.5
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(1600):
        x = x + 0.001 * np.sin(x)
    np.linalg.eigvals(a)
    return perf_counter() - t0


def calibrate_for(seconds):
    """Kernel samples until they add up to ``seconds``; at least one."""
    samples = [calibrate()]
    while sum(samples) < seconds:
        samples.append(calibrate())
    return samples


def rescale(ops):
    """Each call's time at reference speed, from the kernel samples near it."""
    for i, op in enumerate(ops):
        near = [c for o in ops[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
                for c in o["cal"]]
        op["ref_seconds"] = op["seconds"] * CAL_REF_S / statistics.median(near)


def run_phase(cli, workloads, args, work_dir, seconds, rounds, ops=None):
    """Whole rounds of runs until the timed calls reach ``seconds``."""
    done, busy = [], 0.0
    while busy < seconds:
        r = next(rounds)
        batch = ops if (ops and not done) else workloads.make_round(
            args.workload, args.seed, r, work_dir)
        for op in batch:
            t0 = perf_counter()
            try:
                arts, _ = cli.run_scenario(str(op["path"]), out_dir=str(op["out"]),
                                           report=op["report"])
                op["error"] = None
            except Exception as exc:  # a failed run is counted, not fatal
                arts, op["error"] = {}, f"{type(exc).__name__}: {exc}"
            op["seconds"] = perf_counter() - t0
            busy += op["seconds"]
            op["cal"] = calibrate_for(CAL_SHARE * op["seconds"])
            op["bytes"] = sum(Path(p).stat().st_size for v in arts.values()
                              for p in (v if isinstance(v, list) else [v]))
            done.append(op)
    return done


def check_all(ops, workloads):
    from geomstates import pushforward_affine

    checked, failures = [], {}
    for op in ops:
        if op["error"]:
            failures[op["index"]] = [op["error"]]
            continue
        fails, tables = workloads.check_op(op, pushforward_affine)
        if fails:
            failures[op["index"]] = fails
        checked.append((op, tables))
    for idx, f in workloads.check_rounds(checked).items():
        failures.setdefault(idx, []).extend(f)
    return failures


def worker(args, work_dir):
    """One fresh interpreter: set-up, timed runs, checks; prints JSON."""
    import itertools

    t0 = perf_counter()
    import geomstates.cli as cli
    import_s = perf_counter() - t0
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    from perfbench import workloads

    first = workloads.setup(args.workload, args.seed, work_dir, args.worker)
    setup_s = perf_counter() - t0
    rounds = itertools.count(args.worker, args.workers)
    out = {"setup_s": setup_s, "import_s": import_s}
    if tracer is None:
        ops = run_phase(cli, workloads, args, work_dir, args.seconds, rounds, first)
    else:
        from perfbench.trace import SpanSet, layer_metrics

        setup_spans = tracer.take()
        tracer.uninstall()
        plain = run_phase(cli, workloads, args, work_dir, args.seconds / 2.0, rounds, first)
        tracer.install()
        traced = run_phase(cli, workloads, args, work_dir, args.seconds / 2.0, rounds)
        tracer.uninstall()
        spans, extra = tracer.take()
        rescale(plain)
        rescale(traced)
        ops = plain + traced
        layer = layer_metrics(spans, extra, len(traced))
        layer["geomstates.import_s"] = (import_s, "s")
        layer["algebra.basis_s"] = (SpanSet(*setup_spans).busy(["algebra.build_basis"]), "s")
        layer["cli.artifact_bytes"] = (statistics.mean(op["bytes"] for op in traced), "bytes")
        e_plain, e_traced = end_to_end(plain), end_to_end(traced)
        layer["trace.run_p50_overhead_s"] = (
            e_traced["run_p50_ref_s"][0] - e_plain["run_p50_ref_s"][0], "s")
        layer["trace.runs_per_s_overhead"] = (
            e_traced["runs_per_ref_s"][0] - e_plain["runs_per_ref_s"][0], "1/s")
        out["layer"] = layer
        out["untraced"], out["traced"] = e_plain, e_traced
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                    setup_spans[0] + spans, {**setup_spans[1], **extra},
                    {"workload": args.workload, "seed": args.seed,
                     "traced_runs": len(traced), "untraced_runs": len(plain)})
    if tracer is None:
        rescale(ops)
    failures = check_all(ops, workloads)
    out["ops"] = [{k: op[k] for k in ("index", "kind", "seconds", "ref_seconds",
                                      "bytes", "error")} for op in ops]
    out["failures"] = {str(k): v for k, v in failures.items()}
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


# ------------------------------------------------------------------ parent


def end_to_end(ops, key="ref_seconds"):
    """Median, rate and (with 40 runs or more) tail of the calls' times."""
    times = sorted(op[key] for op in ops)
    out = {"run_p50_ref_s": (statistics.median(times), "s"),
           "runs_per_ref_s": (len(times) / sum(times), "1/s")}
    if len(times) >= 40:
        # highest percentile with at least ten runs beyond it
        out["run_tail_ref_s"] = (times[len(times) - 11], "s")
    return out


def start_worker(args, index, count, seconds):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(seconds),
         "--trace", str(args.trace), "--workers", str(count), "--worker", str(index)],
        cwd=ROOT, env={**os.environ, **BLAS_ENV},
        capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args):
    count = 1 if args.trace else args.workers
    res = [start_worker(args, i, count, args.seconds / count) for i in range(count)]
    if not args.trace:
        res += [start_worker(args, count + i, count, 0.0) for i in range(SETUP_ONLY)]
    ops = [op for r in res for op in r["ops"]]
    failures = {int(k): v for r in res for k, v in r["failures"].items()}
    if args.trace:
        metrics = res[0]["layer"]
        print(f"untraced {res[0]['untraced']}  traced {res[0]['traced']}")
    else:
        metrics = end_to_end(ops)
        samples = [r["setup_s"] for r in res]
        metrics["setup_s"] = (statistics.median(samples), "s")
        metrics["peak_rss_mb"] = (max(r["rss_mb"] for r in res), "MB")
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in samples))
        print("median run per worker, raw (s): " + ", ".join(
            f"{statistics.median(op['seconds'] for op in r['ops']):.4f}"
            for r in res if r["ops"]))
        for kind in dict.fromkeys(op["kind"] for op in ops):
            times = [op["ref_seconds"] for op in ops if op["kind"] == kind]
            print(f"{kind}: {len(times)} runs, median {statistics.median(times):.4f} s"
                  " at reference speed")
        for name, (value, unit) in end_to_end(ops, "seconds").items():
            print(f"{args.workload} raw {name.replace('_ref', '')} = {value:.6g} {unit}")
    for idx in sorted(failures):
        print(f"run {idx} failed: {'; '.join(failures[idx])}", file=sys.stderr)
    check_fails = sum(1 for op in ops if op["index"] in failures and not op["error"])
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} runs attempted {len(ops)}, failed {len(failures)}")
    result = {
        "correct": check_fails == 0,
        "attempted": len(ops),
        "failed": len(failures),
        # run_tail_ref_s is printed above; not every workload has 40 runs
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
                    if k != "run_tail_ref_s"},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def _stop(signum, frame):
    # unwinds through subprocess.run, which kills the worker, and through
    # the worker's clean-up of its scratch directory
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not (ROOT / "src" / "geomstates" / "__init__.py").is_file():
        print(f"error: no geomstates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the parent's scratch directory holds its workers' ones, so the parent
    # removes them even when it had to kill a worker
    pid = os.getpid() if args.worker is None else os.getppid()
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{pid}"
    if args.worker is None:
        try:
            return parent(args)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    # a run that would exhaust the shared machine's memory fails instead
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work_dir = work_dir / f"worker{args.worker}"
    work_dir.mkdir(parents=True)
    try:
        return worker(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
