"""List the artifact files of two trees that differ by more than round-off.

    python3 tools/artifact_compare.py BASE HEAD

``BASE`` and ``HEAD`` are trees written by ``tools/artifact_tree.py``.  Two
files match when their text is the same apart from numbers, and every
number lies within 1e-9 of the largest magnitude in its array: the
innermost JSON list of numbers (a JSON number outside a list is its own
array), or the line of a CSV file or log.  Each file that does not match,
or that exists in one tree only, is printed with its first differences.
The exit code is 1 when any file is printed, else 0.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

TOL = 1e-9
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a, b):
    scale = max([abs(x) for x in a + b], default=0.0)
    return len(a) == len(b) and all(abs(x - y) <= TOL * scale for x, y in zip(a, b))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_diffs(a, b, where, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{where}.{key}: only in {'head' if key in b else 'base'}")
            else:
                _json_diffs(a[key], b[key], f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        if all(map(_is_number, a + b)):
            if not _close(a, b):
                out.append(f"{where}: numbers differ")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                _json_diffs(x, y, f"{where}[{i}]", out)
    elif _is_number(a) and _is_number(b):
        if not _close([a], [b]):
            out.append(f"{where}: {a!r} -> {b!r}")
    elif a != b:
        out.append(f"{where}: {json.dumps(a)[:60]} -> {json.dumps(b)[:60]}")


def _text_diffs(a, b, out):
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        out.append(f"{len(la)} lines -> {len(lb)} lines")
    for i, (x, y) in enumerate(zip(la, lb), 1):
        nx = [float(t) for t in NUMBER.findall(x)]
        ny = [float(t) for t in NUMBER.findall(y)]
        if NUMBER.sub("#", x) != NUMBER.sub("#", y) or not _close(nx, ny):
            out.append(f"line {i}: {x[:70]!r} -> {y[:70]!r}")


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, head = (Path(p) for p in argv)
    files = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
    files |= {p.relative_to(head) for p in head.rglob("*") if p.is_file()}
    listed = 0
    for rel in sorted(files):
        a, b = base / rel, head / rel
        if not (a.is_file() and b.is_file()):
            diffs = [f"only in {'head' if b.is_file() else 'base'}"]
        elif a.read_bytes() == b.read_bytes():
            continue
        else:
            diffs = []
            ta, tb = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
            if rel.suffix == ".json":
                _json_diffs(json.loads(ta), json.loads(tb), "", diffs)
            else:
                _text_diffs(ta, tb, diffs)
        if diffs:
            listed += 1
            print(f"{rel}: {len(diffs)} difference(s)")
            for d in diffs[:5]:
                print(f"    {d}")
    return 1 if listed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
