"""Every public name in the package is used by something other than the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_defs(tree):
    """Public top-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item


def test_every_public_name_is_used_outside_the_tests():
    # __init__.py only re-exports, so a name it alone names is still unused; the
    # benchmark's span targets, which name functions by module attribute, are read as text
    modules = {path: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "rulebound").glob("*.py"))}
    del modules[ROOT / "src" / "rulebound" / "__init__.py"]
    readers = [(ROOT / name).read_text(encoding="utf-8") for name in ("README.md", "perfbench/layers.py")]
    corpus = "\n".join([*modules.values(), *readers])
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, text in modules.items()
        for node in _public_defs(ast.parse(text))
        if len(re.findall(rf"\b{node.name}\b", corpus)) < 2  # its def, and nothing else
    ]
    assert unused == []
