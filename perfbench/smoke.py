"""Smoke test of the benchmark on a tiny configuration.

    python3 perfbench/smoke.py

Not collected by pytest, so it stays out of the tier-1 suite; it takes
about two minutes.  It checks that:

1. one round of each workload, also ``qutrit-report``, runs with zero
   failures, untraced and traced, and prints exactly the metrics that
   BENCHMARK.json names;
2. every artifact check rejects a slightly corrupted artifact, so a check
   that can never fail would show here;
3. the benchmark exits non-zero without a result when the program's
   sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_tiny(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "0.001",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads(spec):
    from perfbench import workloads

    # every workload, also qutrit-report, which BENCHMARK.json leaves out
    for w in workloads.ROUNDS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_tiny(w, trace)
            assert res["correct"] and res["failed"] == 0, (w, trace, res)
            want = {(m["name"], m["unit"]) for m in spec[key]}
            got = {(k, v["unit"]) for k, v in res["metrics"].items()}
            assert got == want, (w, trace, got ^ want)
            print(f"ok  {w} trace={trace}: {res['attempted']} runs")


def _bump_number(path, pattern):
    """Add 1e-3 to the first number after ``pattern`` in a file."""
    text = path.read_text()
    m = re.search(pattern + r"(-?[0-9][0-9.e+-]*)", text)
    assert m, (path, pattern)
    new = repr(float(m.group(1)) + 1e-3)
    path.write_text(text[: m.start(1)] + new + text[m.end(1):])


def test_checks_reject_corruption():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import geomstates.cli as cli
    from geomstates import pushforward_affine
    from perfbench import workloads

    work = ROOT / ".perfbench-work" / f"smoke-{os.getpid()}"
    try:
        ops = []
        for w in workloads.ROUNDS:
            (work / w).mkdir(parents=True)
            ops += workloads.make_round(w, 3, 0, work / w)
        for op in ops:
            cli.run_scenario(str(op["path"]), out_dir=str(op["out"]),
                             report=op["report"])
            assert workloads.check_op(op, pushforward_affine)[0] == []
        # (kind, artifact suffix, text before the number to change)
        cases = [
            ("bloch-field", "_field_gradient_descent.csv", r"\n(?:[^,\n]*,){4}"),
            ("phase-damping", "_trajectory.csv", r"\n(?:[^\n]*\n){7}(?:[^,\n]*,){2}"),
            ("gisin", "_trajectory.csv", r"\n(?:[^\n]*\n){9}(?:[^,\n]*,){1}"),
            ("double-bracket", "_tensor_family.json", r'"symmetric".*?"c1": \[\s*'),
            ("qubit-dissipation", "_report.json", r'"tables".*?"c0": '),
            ("bloch-field", "_tables.json", r'"jordan".*?"c1": \[\s*'),
            ("scaled-decay", "_report.json", r'"growth_rate": '),
            ("generic-4", "_field_generator.csv", r"\n(?:[^\n]*\n){3}(?:[^,\n]*,){17}"),
            ("massive-decoherence-4", "_tables.json", r'"poisson".*?"c1": \[\s*'),
        ]
        for kind, suffix, pattern in cases:
            op = next(o for o in ops if o["kind"] == kind)
            path = op["out"] / f"{op['name']}{suffix}"
            saved = path.read_text()
            _bump_number(path, "(?s)" + pattern)
            fails = workloads.check_op(op, pushforward_affine)[0]
            path.write_text(saved)
            assert fails, f"corrupted {path.name} passed the checks"
            print(f"ok  {kind}{suffix} corruption caught: {fails[0][:70]}")
        # the two decoherence models of a round must contract alike
        checked = [(op, workloads.check_op(op, pushforward_affine)[1])
                   for op in ops if op["kind"].endswith("decoherence")]
        assert workloads.check_rounds(checked) == {}
        (om, (P, J)) = checked[0]
        checked[0] = (om, ((P[0], P[1] + 1e-3, P[2]), J))
        assert workloads.check_rounds(checked), "table disagreement passed"
        print("ok  decoherence table disagreement caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_bare_directory():
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "qubit-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc
        print(f"ok  bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_checks_reject_corruption()
    test_bare_directory()
    test_workloads(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
