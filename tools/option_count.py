"""Count the defaulted parameters of a package's public functions.

    python3 tools/option_count.py SRC_DIR

Reads every ``*.py`` file under ``SRC_DIR`` as source (nothing is
imported) and prints one line per defaulted parameter of a public
function or method, ``module.qualname(parameter)``, then the total.  A
function is public when no part of its qualified name starts with ``_``;
``__init__`` counts as public, so constructor options are counted too.
Every such parameter is a setting a caller can change, so the total is
the number of configurations that tests must cover one by one.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _public(name):
    return name == "__init__" or not name.startswith("_")


def _defaulted(fn):
    """Names of the parameters of ``fn`` that have a default value."""
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return named


def _functions(body, prefix):
    """``(qualname, node)`` of every public function in ``body``, and of
    the methods of its public classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            yield from _functions(node.body, prefix + node.name + ".")


def option_lines(src_dir):
    lines = []
    for path in sorted(Path(src_dir).rglob("*.py")):
        module = path.relative_to(src_dir).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree.body, ""):
            lines += [f"{module}.{qualname}({name})" for name in _defaulted(fn)]
    return lines


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/option_count.py SRC_DIR", file=sys.stderr)
        return 2
    lines = option_lines(argv[0])
    print("\n".join(lines))
    print(f"total: {len(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
