"""Command-line interface.

Subcommands: construct, quotient, cover, dense, triangle, find, verify,
corpus, report. Exit codes: 0 success (including a definitive
exhausted-none answer), 1 failed verification, 2 usage, 3 parse error,
4 precondition violation, 5 inconclusive (a bound stopped the search).
The enumeration bound is the constant ``group.DEFAULT_BOUND``, not an option,
so ``verify`` re-enumerates every group that ``find`` enumerated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .engine import (
    ALL_ROUTES,
    EngineConfig,
    InconclusiveError,
    find_semiregular,
    proof_invariant_report,
    verify_certificate,
)
from .formats import (
    MAX_VERTICES,
    ParseError,
    certificate_to_document,
    document_to_certificate,
    document_to_json,
    format_generators,
    parse_certificate_document,
    parse_generators,
    parse_permutation,
    read_graph_auto,
    write_graph6,
)
from .graphs import (
    coset_graph,
    density_closure,
    has_triangle,
    quotient_graph,
    standard_double_cover,
)
from .group import (
    DEFAULT_BOUND,
    BoundExceededError,
    PermGroup,
    PreconditionError,
    is_prime,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_INCONCLUSIVE = 5


class UsageError(Exception):
    """The command line is well-formed but incomplete (exit code 2)."""


def _load_graph(path: str):
    return read_graph_auto(Path(path).read_bytes())


def _load_group(path: str) -> PermGroup:
    return parse_generators(Path(path).read_text())


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise ParseError(f"bad --params entry {piece!r}, expected key=value")
        key, val = (part.strip() for part in piece.split("=", 1))
        if key in out:
            raise UsageError(f"--params key {key} is given twice")
        try:
            out[key] = int(val)
        except ValueError:
            raise ParseError(f"bad --params value {piece!r}, expected an integer") from None
    return out


# the --params keys each construct family takes
_FAMILY_PARAMS = {"px": ("p", "r", "s"), "coset": (), "lemma33": ("p", "s"), "k12m11": ()}


def _check_params(params: dict, family: str) -> None:
    unknown = [k for k in params if k not in _FAMILY_PARAMS[family]]
    if unknown:
        takes = ", ".join(_FAMILY_PARAMS[family]) or "none"
        raise UsageError(
            f"--family {family} does not take --params key(s) {', '.join(unknown)}; "
            f"it takes {takes}"
        )


def _require(params: dict, family: str, *keys: str) -> None:
    missing = [k for k in keys if k not in params]
    if missing:
        raise UsageError(f"--family {family} needs --params key(s): {', '.join(missing)}")


def _routes(text: str) -> tuple[str, ...]:
    routes = tuple(text.split(","))
    unknown = [r for r in routes if r not in ALL_ROUTES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown route(s) {', '.join(unknown)}; choose from {', '.join(ALL_ROUTES)}"
        )
    return routes


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not a nonnegative integer")
    return value


def _cmd_construct(args) -> int:
    # the families are imported where they are used: find and verify, the
    # per-call commands, never load them
    from .families import (
        CorpusInstance,
        k12_m11,
        praeger_xu,
        praeger_xu_group,
        psl2_coset_instance,
    )

    params = _parse_params(args.params or "")
    _check_params(params, args.family)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    extra: dict = {}
    if args.family == "px":
        _require(params, args.family, "p", "r")
        p, r, s = params["p"], params["r"], params.get("s", 1)
        # refuse, before building it, a graph too large for graph6; for
        # p >= 2 the capped exponent alone already gives more vertices,
        # since 2 ** MAX_VERTICES.bit_length() > MAX_VERTICES; a p below 2
        # or an s below 1 is refused by praeger_xu's checks instead
        if p >= 2 and s >= 1 and r * p ** min(s, MAX_VERTICES.bit_length()) > MAX_VERTICES:
            raise PreconditionError(
                f"C({p},{r},{s}) has more than {MAX_VERTICES} vertices, "
                "the graph6 limit"
            )
        graph, rotation = praeger_xu(p, r, s)
        group = praeger_xu_group(p, r, s)
        name = args.id or f"px-p{p}-r{r}-s{s}"
        extra["rotation"] = rotation.cycle_string(one_based=True)
    elif args.family == "lemma33":
        _require(params, args.family, "p", "s")
        p, s = params["p"], params["s"]
        bundle = psl2_coset_instance(p, s)
        graph, group = bundle.graph, bundle.acting_group
        name = args.id or f"psl2-coset-p{p}-s{s}"
        extra["subgroup_order"] = bundle.subgroup_order
        extra["normalizer_order"] = bundle.normalizer_order
    elif args.family == "k12m11":
        graph, group = k12_m11()
        name = args.id or "k12-m11"
    elif args.family == "coset":
        if not (args.group and args.subgroup and args.element):
            raise PreconditionError(
                "--family coset needs --group, --subgroup and --element"
            )
        big = _load_group(args.group)
        sub = _load_group(args.subgroup)
        elem = parse_permutation(args.element, big.degree)
        bundle = coset_graph(big, sub, elem)
        graph, group = bundle.graph, bundle.acting_group
        name = args.id or f"coset-n{graph.n}"
        extra["subgroup_order"] = bundle.subgroup_order
        extra["normalizer_order"] = bundle.normalizer_order
        extra["generates"] = bundle.generates
    else:
        raise PreconditionError(f"unknown family {args.family!r}")

    (outdir / f"{name}.g6").write_bytes(write_graph6(graph) + b"\n")
    (outdir / f"{name}.gens").write_text(format_generators(group))
    instance = CorpusInstance(
        id=name, family=args.family, params=params, graph=graph, group=group
    )
    manifest = {**instance.manifest_row(args.seed), **extra}
    (outdir / f"{name}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {name}.g6, {name}.gens, {name}.json in {outdir}")
    return EXIT_OK


def _cmd_quotient(args) -> int:
    graph = _load_graph(args.graph)
    nsub = _load_group(args.partition_from_group)
    if nsub.degree != graph.n:
        raise PreconditionError("group degree does not match the graph")
    partition = nsub.orbit_partition()
    sys.stdout.buffer.write(write_graph6(quotient_graph(graph, partition)) + b"\n")
    return EXIT_OK


def _cmd_cover(args) -> int:
    graph = _load_graph(args.graph)
    sys.stdout.buffer.write(write_graph6(standard_double_cover(graph)) + b"\n")
    return EXIT_OK


def _cmd_dense(args) -> int:
    graph = _load_graph(args.graph)
    try:
        seed_set = [int(tok) for tok in args.seed_set.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"bad --seed-set {args.seed_set!r}") from None
    closure, dense = density_closure(graph, seed_set)
    print("dense:", "true" if dense else "false")
    print("closure:", " ".join(str(v) for v in sorted(closure)))
    return EXIT_OK


def _cmd_triangle(args) -> int:
    witness = has_triangle(_load_graph(args.graph))
    print("none" if witness is None else " ".join(str(v) for v in witness))
    return EXIT_OK


def _cmd_find(args) -> int:
    graph = _load_graph(args.graph)
    group = _load_group(args.group)
    graph_id = args.id or Path(args.graph).stem
    config = EngineConfig(routes=args.routes, seed=args.seed, graph_id=graph_id)
    # find_semiregular verifies the certificate and raises if it fails
    cert = find_semiregular(graph, group, config)
    doc = certificate_to_document(cert, graph, group, verified=True, seed=args.seed)
    sys.stdout.write(document_to_json(doc))
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    group = _load_group(args.group)
    doc = parse_certificate_document(Path(args.certificate).read_text())
    # the element is parsed at the document's degree, so check it first
    if doc["n"] != graph.n:
        ok = False
        reason = f"certificate is for {doc['n']} vertices, the graph has {graph.n}"
    # compared as digits, since int() refuses a string of over 4,300
    elif doc["group_order"].lstrip("0") != str(group.order()):
        ok = False
        reason = (
            f"certificate is for a group of order {doc['group_order']}, "
            f"the group has order {group.order()}"
        )
    else:
        ok, reason = verify_certificate(graph, group, document_to_certificate(doc))
    if ok:
        print("valid")
        return EXIT_OK
    print(f"invalid: {reason}", file=sys.stderr)
    return EXIT_INVALID


def _corpus_worker(inst, seed):
    config = EngineConfig(seed=seed, graph_id=inst.id)
    cert = find_semiregular(inst.graph, inst.group, config)
    doc = certificate_to_document(cert, inst.graph, inst.group, verified=True, seed=seed)
    return inst.manifest_row(seed), doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key, of which ``json.loads``
    keeps the last without a word, is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise UsageError(f"--config: key {key!r} is given twice")
        out[key] = value
    return out


def _corpus_config(path: str):
    """The ``corpus --config`` file: a JSON object with any of the keys
    ``primes`` (a list of distinct primes), ``max_vertices`` (an integer),
    ``px_grid`` (an object mapping each prime to ``[r_min, r_max, s_max]``),
    ``include_named`` and ``include_coset_search`` (booleans), each setting
    the ``CorpusConfig`` field of its name. Any other key, and a key given
    twice in any object, ends in exit 2."""
    from .families import CorpusConfig

    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"--config must hold a JSON object, not {type(raw).__name__}")
    default = CorpusConfig()
    fields = {}
    for key, value in raw.items():
        if key == "primes":
            ok = isinstance(value, list) and all(type(p) is int for p in value)
            # a graph of valency 2p has at least 2p + 1 vertices; the bound
            # comes before the trial division in is_prime, and a repeated
            # prime would list its named instances twice
            if ok and (
                len(set(value)) < len(value)
                or not all(2 * p + 1 <= MAX_VERTICES and is_prime(p) for p in value)
            ):
                raise UsageError(
                    f"--config: 'primes' must hold distinct primes p with 2p + 1 <= "
                    f"{MAX_VERTICES} only: {value}"
                )
            value = tuple(value) if ok else value
        elif key == "max_vertices":
            ok = type(value) is int
            if ok and not 1 <= value <= MAX_VERTICES:
                raise UsageError(
                    f"--config: 'max_vertices' must lie in 1..{MAX_VERTICES}: {value}"
                )
        elif key == "px_grid":
            ok = isinstance(value, dict) and all(
                p.isdecimal()
                and isinstance(row, list)
                and len(row) == 3
                and all(type(x) is int for x in row)
                for p, row in value.items()
            )
            if ok and not all(3 <= lo <= hi and s >= 1 for lo, hi, s in value.values()):
                raise UsageError("--config: 'px_grid' rows need 3 <= r_min <= r_max, s_max >= 1")
            if ok:
                # "3" and "03" name one prime, and one row would be lost
                grid = {}
                for p, (lo, hi, smax) in value.items():
                    if int(p) in grid:
                        raise UsageError(f"--config: 'px_grid' names the prime {int(p)} twice")
                    grid[int(p)] = (range(lo, hi + 1), smax)
                value = grid
        elif hasattr(default, key):
            ok = type(value) is type(getattr(default, key))
        else:
            raise UsageError(f"--config: unknown key {key!r}")
        if not ok:
            raise UsageError(f"--config: malformed {key!r}: {json.dumps(raw[key])}")
        fields[key] = value
    stray = set(fields.get("px_grid", {})) - set(fields.get("primes", default.primes))
    if stray:
        raise UsageError(f"--config: 'px_grid' rows for primes {sorted(stray)} outside 'primes'")
    return CorpusConfig(**fields)


def _cmd_corpus(args) -> int:
    from .families import CorpusConfig, corpus_generate

    cfg = _corpus_config(args.config) if args.config else CorpusConfig()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    instances = corpus_generate(cfg)
    seeds = [args.seed] * len(instances)
    if args.jobs > 1:
        # imported here: only a parallel run pays for the pool's import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_corpus_worker, instances, seeds))
    else:
        results = list(map(_corpus_worker, instances, seeds))
    manifest_path = outdir / "manifest.jsonl"
    with manifest_path.open("w") as fh:
        for row, doc in results:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            (outdir / f"{row['id']}.cert.json").write_text(document_to_json(doc))
    print(f"{len(results)} instances, {len(results)} verified certificates -> {outdir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    graph = _load_graph(args.graph)
    group = _load_group(args.group)
    report = proof_invariant_report(graph, group)
    sys.stdout.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semireg",
        description="Find and verify nontrivial semiregular automorphisms "
        "of arc-transitive graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family instance")
    p.add_argument("--family", required=True, choices=list(_FAMILY_PARAMS))
    p.add_argument("--params", default="", help="comma-separated key=value")
    p.add_argument("--group", help="group generator file (family=coset)")
    p.add_argument("--subgroup", help="subgroup generator file (family=coset)")
    p.add_argument("--element", help="connecting element, cycle notation (family=coset)")
    p.add_argument("--out", default=".")
    p.add_argument("--id", default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("quotient", help="quotient by the orbits of a group")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition-from-group", required=True)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("cover", help="standard double cover")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("dense", help="density closure from a seed set")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed-set", required=True, help="comma-separated vertices")
    p.set_defaults(func=_cmd_dense)

    p = sub.add_parser("triangle", help="triangle witness or 'none'")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_triangle)

    fixed = f"Groups of order at most {DEFAULT_BOUND} are enumerated in full (a fixed bound)."
    p = sub.add_parser("find", help="search for a semiregular automorphism", description=fixed)
    p.add_argument("--graph", required=True)
    p.add_argument("--group", required=True)
    p.add_argument(
        "--routes",
        type=_routes,
        default=ALL_ROUTES,
        help="comma-separated steps to run; they run in the fixed order "
        f"{','.join(ALL_ROUTES)}, whatever order is given",
    )
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--id", default=None)
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("verify", help="verify a certificate document", description=fixed)
    p.add_argument("--graph", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="generate the corpus and certify it", description=fixed)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default="corpus-out")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("report", help="the proof's structural checks on an instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, OSError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (BoundExceededError, InconclusiveError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
