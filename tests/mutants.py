"""Mutation sweep over the guards of the trust boundary.

Each mutant replaces one guard's condition with ``False``, so the guard
never fires, in a copy of the repository; tier-1 then runs on that copy
with ``-x``. A mutant survives when tier-1 still passes: no test needs that
guard. The result goes to ``tests/mutants.json``: each surviving mutant with
its reason (from ``REASONS``, or "no test fails" for a new survivor), and
the first test that failed for each killed one. The working tree is never
edited. Tier-1 does not collect this file. Run it from the repository root:

    python tests/mutants.py

It runs one copy per core, at most 4, in a temporary directory. It exits
1 when the unmutated copy fails tier-1, since no mutant is then measured,
and when a survivor has no entry in ``REASONS``. A tier-1 test in
``tests/test_hygiene.py`` checks that every guard listed here is still in
the source; the sweep leaves that one test out, as no mutant passes it.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "mutants.json"
# tier-1 but for the check that each listed guard is in the source, which
# no mutant passes
TIER1 = [
    "-m",
    "pytest",
    "-x",
    "-q",
    "-p",
    "no:cacheprovider",
    "--continue-on-collection-errors",
    "--deselect",
    "tests/test_hygiene.py::test_every_guard_of_the_mutation_sweep_is_in_the_source",
]
# a surviving mutant costs one whole tier-1 run
TIMEOUT_S = 1200

# (module under src/semireg, function, the guard's condition as written)
MUTANTS = [
    ("engine.py", "verify_certificate", "cert.element is not None"),
    ("engine.py", "verify_certificate", "not grp.is_transitive()"),
    ("engine.py", "verify_certificate", "hit is not None"),
    ("engine.py", "verify_certificate", "el is None"),
    ("engine.py", "verify_certificate", "el.degree != g.n"),
    ("engine.py", "verify_certificate", "grp.degree != g.n"),
    ("engine.py", "verify_certificate", "not g.is_automorphism(el)"),
    ("engine.py", "verify_certificate", "el.is_identity()"),
    ("engine.py", "verify_certificate", "not el.is_semiregular()"),
    ("engine.py", "verify_certificate", "not grp.contains(el)"),
    ("engine.py", "verify_certificate", "order != cert.element_order"),
    ("engine.py", "verify_certificate", "cert.cycle_length != order"),
    ("engine.py", "find_semiregular", "not g.is_connected()"),
    ("engine.py", "find_semiregular", "not grp.is_transitive()"),
    ("graphs.py", "check_automorphisms", "grp.degree != g.n"),
    ("graphs.py", "check_automorphisms", "not g.is_automorphism(gen)"),
    ("graphs.py", "is_arc_transitive", "g.valency() is None"),
    ("graphs.py", "is_arc_transitive", "g.indices.size == 0"),
    (
        "families.py",
        "_validated",
        "val is None or val % 2 != 0 or not is_prime(val // 2) or (val // 2) not in cfg.primes",
    ),
    ("families.py", "_validated", "not g.is_connected()"),
    ("families.py", "_validated", "not is_arc_transitive(g, grp)"),
    ("group.py", "lift_semiregular", "not is_prime(r)"),
    ("group.py", "lift_semiregular", "image_element.order() != r"),
    ("group.py", "lift_semiregular", "not image_element.is_semiregular()"),
    ("group.py", "lift_semiregular", "not bundle.image_group.contains(image_element)"),
    ("group.py", "lift_semiregular", "math.gcd(r, k_order) != 1"),
    ("group.py", "lift_semiregular", "not x.is_semiregular()"),
    ("group.py", "lift_semiregular", "bundle.image_of(x) != image_element ** m"),
    ("group.py", "lift_semiregular", "not source.contains(x)"),
    ("engine.py", "buddy_swap_automorphism", "bs.buddies_per_vertex != 1"),
    ("engine.py", "buddy_swap_automorphism", "z == v or int(img[z]) != v"),
    ("engine.py", "buddy_swap_automorphism", "not np.array_equal(g.neighbors(v), g.neighbors(z))"),
    ("engine.py", "buddy_swap_automorphism", "not g.is_automorphism(perm)"),
    ("cli.py", "_cmd_verify", 'doc["n"] != graph.n'),
    ("cli.py", "_cmd_verify", 'doc["group_order"].lstrip("0") != str(group.order())'),
]

# why a surviving mutant is not a missing test, by mutant id
REASONS = {
    "group.lift_semiregular: not bundle.image_group.contains(image_element)": (
        "never decides alone: ActionBundle.preimage, called next, raises the same "
        "PreconditionError with the same message for an element outside the image group"
    ),
    "group.lift_semiregular: not x.is_semiregular()": (
        "cannot fire: once the preconditions hold, x = g^m has prime order r and maps to a "
        "semiregular element of order r, so it is semiregular by the coprime lifting lemma"
    ),
    "group.lift_semiregular: bundle.image_of(x) != image_element ** m": (
        "cannot fire: ActionBundle.preimage returns a g that maps to the image element, "
        "and the induced action is a homomorphism"
    ),
    "group.lift_semiregular: not source.contains(x)": (
        "cannot fire: ActionBundle.preimage returns a product of reps of a chain of the "
        "source's own action, so g and its power x lie in the source"
    ),
    "engine.buddy_swap_automorphism: z == v or int(img[z]) != v": (
        "cannot fire: c4_buddy_structure records buddies in pairs of two distinct "
        "vertices, so with one buddy per vertex img is a fixed-point-free involution"
    ),
    "engine.buddy_swap_automorphism: not np.array_equal(g.neighbors(v), g.neighbors(z))": (
        "cannot fire: buddies share their two neighbours in every adjacent class, "
        "and c4_buddy_structure refuses a partition with an edge inside a class"
    ),
    "engine.buddy_swap_automorphism: not g.is_automorphism(perm)": (
        "cannot fire: a swap of vertex pairs with equal neighbourhoods is an automorphism"
    ),
}


def mutant_id(module: str, function: str, condition: str) -> str:
    return f"{module.removesuffix('.py')}.{function}: {condition}"


def mutate(source: str, function: str, condition: str) -> str:
    """``source`` with the condition of the one ``if`` or ``elif`` in
    ``function`` whose test reads ``condition`` replaced by ``False``."""
    data = source.encode()
    # ast offsets count UTF-8 bytes within a line
    line_starts = [0]
    for line in data.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))

    def span(node: ast.expr) -> tuple[int, int]:
        return (
            line_starts[node.lineno - 1] + node.col_offset,
            line_starts[node.end_lineno - 1] + node.end_col_offset,
        )

    found = [
        span(node.test)
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == function
        for node in ast.walk(fn)
        if isinstance(node, ast.If)
    ]
    found = [(a, b) for a, b in found if data[a:b] == condition.encode()]
    if len(found) != 1:
        raise LookupError(f"{function}: {len(found)} guards read {condition!r}")
    start, end = found[0]
    return (data[:start] + b"False" + data[end:]).decode()


def copy_repo(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", ".bench_*", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, dest, ignore=ignore)
    return dest


def run_tier1(repo: Path) -> tuple[str, str | None]:
    """("passed", None), ("failed", the first failing test) or ("timeout", None)."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, *TIER1],
            cwd=repo,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", None
    if done.returncode == 0:
        return "passed", None
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "failed", first.group(1) if first else f"exit code {done.returncode}"


def sweep(copies: list[Path]) -> dict[str, tuple[str, str | None]]:
    """Run every mutant, each worker on its own copy, one mutant at a time."""
    results: dict[str, tuple[str, str | None]] = {}

    def worker(k: int) -> None:
        repo = copies[k]
        for module, function, condition in MUTANTS[k :: len(copies)]:
            path = repo / "src" / "semireg" / module
            original = path.read_text()
            path.write_text(mutate(original, function, condition))
            try:
                results[mutant_id(module, function, condition)] = run_tier1(repo)
            finally:
                path.write_text(original)

    with ThreadPoolExecutor(len(copies)) as pool:
        for future in [pool.submit(worker, k) for k in range(len(copies))]:
            future.result()
    return results


def main() -> int:
    # every guard must be found before anything runs
    for module, function, condition in MUTANTS:
        mutate((ROOT / "src" / "semireg" / module).read_text(), function, condition)
    work = Path(tempfile.mkdtemp(prefix="semireg-mutants-"))
    try:
        copies = [copy_repo(work / f"repo{k}") for k in range(min(4, os.cpu_count() or 1))]
        status, first = run_tier1(copies[0])
        if status != "passed":
            print(f"tier-1 fails without a mutant ({status}: {first})", file=sys.stderr)
            return 1
        results = sweep(copies)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ids = [mutant_id(*m) for m in MUTANTS]
    survivors = [i for i in ids if results[i][0] == "passed"]
    record = {
        "command": "python " + " ".join(TIER1),
        "mutants": len(ids),
        "survivors": [
            {"mutant": i, "reason": REASONS.get(i, "no test fails with this guard switched off")}
            for i in survivors
        ],
        "killed": {
            i: results[i][1] if results[i][0] == "failed" else results[i][0]
            for i in ids
            if i not in survivors
        },
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    for i in ids:
        status, first = results[i]
        print(f"{'SURVIVED' if status == 'passed' else 'killed  '} {i}" + (f"  <- {first}" if first else ""))
    print(f"{len(survivors)} of {len(ids)} survived; wrote {OUT.relative_to(ROOT)}")
    return 1 if any(i not in REASONS for i in survivors) else 0


if __name__ == "__main__":
    sys.exit(main())
