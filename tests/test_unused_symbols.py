"""No function, method or class under ``src/repro`` is defined and then
never mentioned again.

A name counts as used when it occurs as a word anywhere in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` more often than it is
defined — a call, an import, a re-export from an ``__init__``, a string
handed to ``getattr``, a mention in a docstring. That is deliberately
generous: the scan cannot prove a name is live, only that nothing at all
refers to it. Dunder methods are called by the interpreter and skipped.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "examples")


def definitions():
    """name -> ["path:line", ...] for every def/class under ``SRC``."""
    found = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    found[node.name].append(
                        f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def word_counts():
    counts = collections.Counter()
    for directory in SCANNED:
        for path in (ROOT / directory).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return counts


def test_every_definition_is_mentioned_somewhere_else():
    counts = word_counts()
    unused = [f"{site}: {name}"
              for name, sites in sorted(definitions().items())
              if counts[name] <= len(sites) for site in sites]
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
