"""Write every CLI artifact of a checkout into one directory tree.

    python3 tools/artifact_tree.py OUT [CHECKOUT]

Runs, against the ``src/`` and ``perfbench/`` of ``CHECKOUT`` (default:
the checkout that holds this script):

* every builtin scenario at ``--points 60``, with and without ``--report``,
  and at ``--points 0``, ``1`` and ``2`` without it;
* ``--points 60 --report`` of massive and pure decoherence at d = 4, from
  scenario files;
* two seed-401 rounds of the ``qubit-sweep``, ``ququart-fields`` and
  ``qutrit-report`` scenario files of ``perfbench.workloads``, through
  ``geomstates.cli.run_scenario``.

Each run's log (exit code, stdout, stderr) goes to ``OUT/logs`` with the
path of ``OUT`` written as ``OUT``.  Artifacts are deterministic, so two
checkouts that write the same files give an empty ``diff -r`` of their
trees; an artifact change must be declared.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

WORKLOADS = ("qubit-sweep", "ququart-fields", "qutrit-report")
SEED = 401
ROUNDS = 2
# (--points, --report) of each builtin run
BUILTIN_RUNS = ((60, False), (60, True), (0, False), (1, False), (2, False))
# models run at d = 4 with --report
QUQUART_REPORTS = ("massive-decoherence", "pure-decoherence")


def _log(out, label, code, stdout, stderr):
    text = f"exit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"
    (out / "logs" / f"{label}.log").write_text(
        text.replace(str(out), "OUT"), encoding="utf-8"
    )


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    root = Path(argv[1] if len(argv) == 2 else Path(__file__).parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from geomstates import cli
    from geomstates.errors import GeomstatesError
    from perfbench import workloads

    def run_cli(label, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        _log(out, label, code, stdout.getvalue(), stderr.getvalue())

    (out / "logs").mkdir(parents=True, exist_ok=True)
    for name in cli.REGISTRY:
        for points, report in BUILTIN_RUNS:
            label = f"{name}-points{points}" + ("-report" if report else "")
            run_cli(label, ["run", name, "--out", str(out / "builtin" / label),
                            "--points", str(points)] + (["--report"] if report else []))

    (out / "ququart").mkdir(exist_ok=True)
    for name in QUQUART_REPORTS:
        label = f"{name}-d4-points60-report"
        scenario = out / "ququart" / f"{label}.json"
        scenario.write_text(json.dumps({"name": f"{name}-d4", "model": name,
                                        "parameters": {"d": 4, "points": 60}}))
        run_cli(label, ["run", str(scenario), "--out", str(out / "ququart" / label),
                        "--report"])

    for workload in WORKLOADS:
        work_dir = out / "scenarios" / workload
        work_dir.mkdir(parents=True, exist_ok=True)
        for r in range(ROUNDS):
            for op in workloads.make_round(workload, SEED, r, work_dir):
                try:
                    _, lines = cli.run_scenario(
                        str(op["path"]), out_dir=str(op["out"]), report=op["report"]
                    )
                    code, stderr = 0, ""
                except GeomstatesError as exc:
                    lines, code, stderr = [], 1, f"error: {exc}\n"
                stdout = "".join(line + "\n" for line in lines)
                _log(out, f"{workload}-{op['name']}", code, stdout, stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
