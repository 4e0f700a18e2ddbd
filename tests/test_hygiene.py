"""Static checks on the package source that need no installed linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semireg"

# ``__init__.py`` imports only to re-export the public API
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["line 1: math", "line 2: os", "line 3: c"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no module refers to
    outside their own definition, as ``module: name``."""
    nodes = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.alias):
                    names.add(n.name)
            nodes.append((module, node, names))
    return [
        f"{module}: {node.name}"
        for module, node, _ in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not any(other is not node and node.name in names for _, other, names in nodes)
    ]


def test_unreferenced_private_definitions_are_found():
    sources = {
        "a": "def _imported():\n    pass\n\ndef _recursive():\n    _recursive()\n\n"
        "class _Dead:\n    pass\n\ndef _attribute():\n    pass\n\ndef public():\n    pass\n",
        "b": "from .a import _imported\nimport a\na._attribute()\n",
    }
    assert unreferenced_private(sources) == ["a: _recursive", "a: _Dead"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def _named(tree) -> list[str]:
    """Every name a tree reads or imports, and every attribute it takes."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.split(".")[-1])
    return out


def unreferenced_public(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """Public module-level functions and classes of ``package``, and public
    methods of its classes, whose name appears nowhere in ``package`` or
    ``others`` outside their own definition, as ``module: name`` or
    ``module: Class.name``. Dunder methods are exempt."""
    counts: dict[str, int] = {}
    for source in [*package.values(), *others.values()]:
        for name in _named(ast.parse(source)):
            counts[name] = counts.get(name, 0) + 1
    out = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (m, f"{node.name}.{m.name}")
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for d, label in defs:
                if d.name.startswith("_"):
                    continue
                inside = _named(d).count(d.name)
                if counts.get(d.name, 0) - inside == 0:
                    out.append(f"{module}: {label}")
    return out


def test_unreferenced_public_definitions_are_found():
    package = {
        "a": "def used():\n    pass\n\ndef recursive():\n    recursive()\n\n"
        "class Box:\n    def size(self):\n        return 0\n\n"
        "    def dead(self):\n        return self.size()\n\n"
        "    def __len__(self):\n        return 0\n\ndef _private():\n    pass\n",
    }
    others = {"t": "from a import used, Box\nused()\n"}
    assert unreferenced_public(package, others) == ["a: recursive", "a: Box.dead"]


def test_no_unreferenced_public_definitions():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = {
        str(p.relative_to(ROOT)): p.read_text()
        for folder in ("tests", "perfbench")
        for p in sorted((ROOT / folder).glob("*.py"))
    }
    assert unreferenced_public(package, others) == []
