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
    outside their own definition, as ``module: name``. Dunders, such as a
    module's ``__getattr__`` that the interpreter calls, are exempt."""
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
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(other is not node and node.name in names for _, other, names in nodes)
    ]


def test_unreferenced_private_definitions_are_found():
    sources = {
        "a": "def _imported():\n    pass\n\ndef _recursive():\n    _recursive()\n\n"
        "class _Dead:\n    pass\n\ndef _attribute():\n    pass\n\ndef public():\n    pass\n\n"
        "def __getattr__(name):\n    pass\n",
        "b": "from .a import _imported\nimport a\na._attribute()\n",
    }
    assert unreferenced_private(sources) == ["a: _recursive", "a: _Dead"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def numpy_unique_uses(source: str) -> list[str]:
    """Lines that reach ``numpy.unique``, as ``line N``. Its first call
    imports ``numpy.ma``, about 10 ms of a ``semireg find`` process."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if (
            isinstance(n, ast.Attribute)
            and n.attr == "unique"
            and isinstance(n.value, ast.Name)
            and n.value.id in ("np", "numpy")
        ) or (
            isinstance(n, ast.ImportFrom)
            and n.module == "numpy"
            and any(alias.name == "unique" for alias in n.names)
        ):
            lines.append(n.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_numpy_unique_uses_are_found():
    source = (
        "import numpy as np\nimport numpy\nnp.unique(a)\nf = numpy.unique\n"
        "from numpy import unique\nframe.unique()\nnp.sort(a)\n"
    )
    assert numpy_unique_uses(source) == ["line 3", "line 4", "line 5"]


def test_no_numpy_unique():
    found = {
        p.name: numpy_unique_uses(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def numpy_random_uses(source: str) -> list[str]:
    """Where a module reaches ``numpy.random``, as ``owner: line N``, the
    owner being the module-level function or class around it, or
    ``<module>``. Its import loads ``secrets``, ``hashlib`` and ``hmac``,
    15-21 ms of a ``semireg find`` process."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if (
                (
                    isinstance(n, ast.Attribute)
                    and n.attr == "random"
                    and isinstance(n.value, ast.Name)
                    and n.value.id in ("np", "numpy")
                )
                or (isinstance(n, ast.Import) and any(a.name == "numpy.random" for a in n.names))
                or (
                    isinstance(n, ast.ImportFrom)
                    and (
                        n.module == "numpy.random"
                        or (n.module == "numpy" and any(a.name == "random" for a in n.names))
                    )
                )
            ):
                out.append(f"{owner}: line {n.lineno}")
    return out


def test_numpy_random_uses_are_found():
    source = (
        "import numpy as np\nimport numpy.random\n\n"
        "def sample(seed):\n    return np.random.default_rng(seed)\n\n"
        "class Walk:\n    def step(self):\n        from numpy import random\n\n"
        "def draw(rng):\n    from numpy.random import default_rng\n    return rng.random()\n"
    )
    assert numpy_random_uses(source) == [
        "<module>: line 2",
        "sample: line 5",
        "Walk: line 9",
        "draw: line 12",
    ]


# the two places that sample: direct-search above its enumeration bound, and
# the random Sylow builder of the prime-power route
_SAMPLERS = {
    "engine.py": ["_route_direct"],
    "group.py": ["semiregular_of_prime_power_degree"],
}


def test_numpy_random_only_where_the_package_samples():
    found = {
        p.name: [
            use
            for use in numpy_random_uses(p.read_text())
            if use.split(":")[0] not in _SAMPLERS.get(p.name, [])
        ]
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {}
    # and both still do
    for name, owners in _SAMPLERS.items():
        uses = numpy_random_uses((PACKAGE / name).read_text())
        assert sorted({use.split(":")[0] for use in uses}) == owners


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


def _package_and_others() -> tuple[dict[str, str], dict[str, str]]:
    """The package's sources by file name, and the sources of the tests and
    the benchmark by path."""
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = {
        str(p.relative_to(ROOT)): p.read_text()
        for folder in ("tests", "perfbench")
        for p in sorted((ROOT / folder).glob("*.py"))
    }
    return package, others


def test_no_unreferenced_public_definitions():
    assert unreferenced_public(*_package_and_others()) == []


def _calls(sources) -> dict[str, list[tuple[int, set[str], bool, bool]]]:
    """Every call by callee name: (positional count, keywords, whether it
    unpacks ``*args``, whether it unpacks ``**kwargs``)."""
    out: dict[str, list] = {}
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if not isinstance(n, ast.Call):
                continue
            if isinstance(n.func, ast.Name):
                name = n.func.id
            elif isinstance(n.func, ast.Attribute):
                name = n.func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            positional = sum(1 for a in n.args if not isinstance(a, ast.Starred))
            keywords = {k.arg for k in n.keywords if k.arg is not None}
            double = any(k.arg is None for k in n.keywords)
            out.setdefault(name, []).append((positional, keywords, starred, double))
    return out


def unoverridden_defaults(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """Parameter defaults of the functions and methods of ``package`` that
    no call in ``package`` or ``others`` overrides, by keyword or by
    position, as ``module: function(parameter)``. Calls match definitions
    by name, and a call of a class by name is a call of its ``__init__``."""
    calls = _calls([*package.values(), *others.values()])
    out = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for m in cls.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[m] = cls.name
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node.name]
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            if node in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            ):
                params = params[1:]
                if node.name == "__init__":
                    names.append(methods[node])
            # (position, name); keyword-only parameters have no position
            defaulted = list(enumerate(params))[len(params) - len(node.args.defaults):]
            defaulted += [
                (None, a.arg)
                for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None
            ]
            sites = [c for name in names for c in calls.get(name, [])]
            for index, arg in defaulted:
                if not any(
                    arg in keywords
                    or double
                    or index is not None and (starred or count > index)
                    for count, keywords, starred, double in sites
                ):
                    out.append(f"{module}: {node.name}({arg})")
    return out


def test_unoverridden_defaults_are_found():
    package = {
        "a": "def f(x, y=1, *, z=2, w=3):\n    pass\n\n"
        "def g(a, b=0):\n    pass\n\n"
        "class Box:\n    def __init__(self, size=0, tag=''):\n        pass\n\n"
        "    def put(self, item, slot=0):\n        pass\n",
    }
    others = {
        "t": "f(1, z=5)\ng(*args)\nBox(4)\nBox(**options)\nBox().put('x')\n",
    }
    assert unoverridden_defaults(package, others) == [
        "a: f(y)",
        "a: f(w)",
        "a: put(slot)",
    ]


def test_every_parameter_default_is_overridden_somewhere():
    assert unoverridden_defaults(*_package_and_others()) == []


# parameter defaults that only the tests override, each with why it stays a
# parameter; any other such default is a setting no caller changes, and is
# a constant
_TEST_ONLY_DEFAULTS = {
    "engine.py: arc_stabilizer_bound_check(s_values)": (
        "acceptance criterion 09 checks s = 4; the report reads only s <= 3"
    ),
}


def test_every_parameter_default_is_overridden_outside_the_tests():
    package, others = _package_and_others()
    perfbench = {path: source for path, source in others.items() if path.startswith("perfbench")}
    assert unoverridden_defaults(package, perfbench) == list(_TEST_ONLY_DEFAULTS)


def kernels_without_package_caller(kernels: str, others: dict[str, str]) -> list[str]:
    """Public functions of the ``_kernels`` source whose name no other
    package module reads, imports or takes as an attribute. A kernel that
    only the tests, the benchmark or another kernel call has no job in the
    package."""
    named = {name for source in others.values() for name in _named(ast.parse(source))}
    return [
        node.name
        for node in ast.parse(kernels).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in named
    ]


def test_kernels_without_package_caller_are_found():
    kernels = (
        "def walk(a):\n    pass\n\ndef reach(a):\n    pass\n\n"
        "def inner(a):\n    pass\n\ndef spare(a):\n    return inner(a)\n\n"
        "def _helper(a):\n    pass\n"
    )
    others = {
        "graphs.py": "from . import _kernels\n_kernels.walk(x)\n",
        "group.py": "from ._kernels import reach\n",
    }
    assert kernels_without_package_caller(kernels, others) == ["inner", "spare"]


def test_every_kernel_has_a_package_caller():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    kernels = package.pop("_kernels.py")
    assert kernels_without_package_caller(kernels, package) == []


def test_every_guard_of_the_mutation_sweep_is_in_the_source():
    # a rewritten guard must be renamed in tests/mutants.py with it, or the
    # sweep stops before it runs
    import mutants

    sources = {module: (PACKAGE / module).read_text() for module, _, _ in mutants.MUTANTS}
    ids = set()
    for module, function, condition in mutants.MUTANTS:
        assert mutants.mutate(sources[module], function, condition) != sources[module]
        ids.add(mutants.mutant_id(module, function, condition))
    assert len(ids) == len(mutants.MUTANTS)
    assert set(mutants.REASONS) <= ids
