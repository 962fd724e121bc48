"""No module under ``src/repro`` imports a name it does not use.

A name counts as used when it occurs as an identifier or as a word of a
string constant (quoted annotations under ``TYPE_CHECKING``, ``__all__``).
``__init__`` modules import in order to re-export and are skipped.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return [f"{path.relative_to(SRC.parent)}:{node.lineno}: {name}"
            for name, node in imported.items() if name not in used]


def test_no_unused_imports():
    found = [line for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py" for line in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
