import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semireg.cli import main
from semireg.formats import (
    certificate_to_document,
    document_to_json,
    format_generators,
    parse_certificate_document,
    read_graph6,
    write_graph6,
)
from semireg.graphs import cycle_graph, standard_double_cover, quotient_graph
from semireg.group import PermGroup
from semireg.perm import Permutation

from forgeries import NAMES, forgeries


@pytest.fixture
def c6_files(tmp_path):
    graph_path = tmp_path / "c6.g6"
    graph_path.write_bytes(write_graph6(cycle_graph(6)) + b"\n")
    d6 = PermGroup(
        [
            Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),
            Permutation.from_cycles(6, [(1, 5), (2, 4)]),
        ]
    )
    group_path = tmp_path / "d6.gens"
    group_path.write_text(format_generators(d6))
    return graph_path, group_path


def test_construct_px(tmp_path, capsys):
    code = main(
        [
            "construct",
            "--family",
            "px",
            "--params",
            "p=2,r=4,s=1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "px-p2-r4-s1.json").read_text())
    assert manifest["n"] == 8 and manifest["valency"] == 4
    graph = read_graph6((tmp_path / "px-p2-r4-s1.g6").read_bytes())
    assert graph.n == 8


def test_construct_lemma33(tmp_path):
    code = main(
        [
            "construct",
            "--family",
            "lemma33",
            "--params",
            "p=5,s=2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "psl2-coset-p5-s2.json").read_text())
    assert manifest["n"] == 6 and manifest["valency"] == 5


def test_construct_above_the_element_bound(tmp_path):
    # |PSL(2,61)| = 113460 and |S10| = 3628800 exceed the element bound;
    # coset_graph never enumerates G, so both build
    code = main(["construct", "--family", "lemma33", "--params", "p=61,s=1", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "psl2-coset-p61-s1.json").read_text())
    assert (manifest["n"], manifest["valency"]) == (1860, 61)
    assert manifest["normalizer_order"] == 1830
    (tmp_path / "s10.gens").write_text("n=10\n(1,2)\n(1,2,3,4,5,6,7,8,9,10)\n")
    (tmp_path / "s9.gens").write_text("n=10\n(1,2)\n(1,2,3,4,5,6,7,8,9)\n")
    coset = ["construct", "--family", "coset", "--group", str(tmp_path / "s10.gens")]
    coset += ["--subgroup", str(tmp_path / "s9.gens"), "--element", "(9,10)"]
    assert main(coset + ["--id", "k10", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "k10.json").read_text())
    assert (manifest["n"], manifest["valency"]) == (10, 9)
    assert manifest["normalizer_order"] == 362880 and manifest["generates"]


# sha256 over the .g6 then .gens file that `semireg construct` writes for
# each of these instances, in this order. Update this hash only with a change
# that means to alter constructed graphs or generators, and say so in
# CHANGES.md.
CONSTRUCT_CASES = (
    ("px-p5-r6-s2", ["--family", "px", "--params", "p=5,r=6,s=2"]),
    ("k12-m11", ["--family", "k12m11"]),
    ("psl2-coset-p29-s1", ["--family", "lemma33", "--params", "p=29,s=1"]),
)
GOLDEN_CONSTRUCT_SHA256 = (
    "fa686662bb9e8968380a0c82d67130ef804faff65cb08c1427dacb762cf0af45"
)


def test_golden_constructed_bytes(tmp_path):
    digest = hashlib.sha256()
    for name, args in CONSTRUCT_CASES:
        assert main(["construct", *args, "--out", str(tmp_path)]) == 0
        digest.update((tmp_path / f"{name}.g6").read_bytes())
        digest.update((tmp_path / f"{name}.gens").read_bytes())
    assert digest.hexdigest() == GOLDEN_CONSTRUCT_SHA256


def test_construct_k12m11(tmp_path):
    assert main(["construct", "--family", "k12m11", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "k12-m11.json").read_text())
    assert manifest["group_order"] == "7920"


def test_quotient_and_cover(tmp_path, capsys, c6_files):
    graph_path, _ = c6_files
    sub = PermGroup([Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)])])
    sub_path = tmp_path / "n.gens"
    sub_path.write_text(format_generators(sub))
    code = main(
        [
            "quotient",
            "--graph",
            str(graph_path),
            "--partition-from-group",
            str(sub_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert read_graph6(out.encode()) == cycle_graph(3)

    code = main(["cover", "--graph", str(graph_path)])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert read_graph6(out.encode()) == standard_double_cover(cycle_graph(6))


def test_dense_and_triangle(tmp_path, capsys, c6_files):
    graph_path, _ = c6_files
    assert main(["dense", "--graph", str(graph_path), "--seed-set", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "dense: false" in out
    assert main(["triangle", "--graph", str(graph_path)]) == 0
    assert "none" in capsys.readouterr().out

    k4 = tmp_path / "k4.g6"
    from semireg.graphs import complete_graph

    k4.write_bytes(write_graph6(complete_graph(4)) + b"\n")
    assert main(["dense", "--graph", str(k4), "--seed-set", "0,1"]) == 0
    assert "dense: true" in capsys.readouterr().out
    assert main(["triangle", "--graph", str(k4)]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2"


def test_find_verify_cycle(tmp_path, capsys, c6_files):
    graph_path, group_path = c6_files
    code = main(
        ["find", "--graph", str(graph_path), "--group", str(group_path), "--seed", "1"]
    )
    assert code == 0
    doc_text = capsys.readouterr().out
    doc = parse_certificate_document(doc_text)
    assert doc["verified"] is True
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(doc_text)
    code = main(
        [
            "verify",
            "--graph",
            str(graph_path),
            "--group",
            str(group_path),
            "--certificate",
            str(cert_path),
        ]
    )
    assert code == 0


def test_verify_tampered_certificate(tmp_path, capsys, c6_files):
    graph_path, group_path = c6_files
    main(["find", "--graph", str(graph_path), "--group", str(group_path)])
    doc = json.loads(capsys.readouterr().out)
    doc["element"] = "(1 2)"  # transposition: not an automorphism of C6
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(doc))
    code = main(
        [
            "verify",
            "--graph",
            str(graph_path),
            "--group",
            str(group_path),
            "--certificate",
            str(cert_path),
        ]
    )
    assert code == 1
    assert "automorphism" in capsys.readouterr().err


def test_every_whole_group_walk_stops_at_the_bound_before_walking(monkeypatch):
    # S9 (order 362,880) is above the enumeration bound: each enumeration
    # refuses it through the one bound check, before its chain's walk starts
    from semireg import engine
    from semireg.families import symmetric_group
    from semireg.graphs import complete_graph
    from semireg.group import BoundExceededError, StabilizerChain, minimal_normal_subgroups

    def refuse(self):
        raise AssertionError("walked a group above the bound")

    monkeypatch.setattr(StabilizerChain, "element_blocks", refuse)
    s9 = symmetric_group(9)
    exhausted = engine.Certificate("k9", None, 0, 0, engine.EXHAUSTED_NONE, ())
    walks = [
        lambda: next(s9.elements()),
        lambda: next(engine._semiregular_elements(s9)),
        lambda: minimal_normal_subgroups(s9),
        lambda: engine.verify_certificate(complete_graph(9), s9, exhausted),
    ]
    for walk in walks:
        with pytest.raises(BoundExceededError, match="^order 362880 exceeds bound 100000$"):
            walk()


def test_verify_exhausted_none_above_the_bound_is_inconclusive(tmp_path, capsys):
    # |S9| = 362,880 is above the enumeration bound: verify cannot decide the
    # claim, so it must say inconclusive (exit 5), not invalid (exit 1)
    from semireg.engine import EXHAUSTED_NONE, Certificate
    from semireg.families import symmetric_group
    from semireg.formats import certificate_to_document, document_to_json
    from semireg.graphs import complete_graph

    k9, s9 = complete_graph(9), symmetric_group(9)
    graph_path = tmp_path / "k9.g6"
    graph_path.write_bytes(write_graph6(k9) + b"\n")
    group_path = tmp_path / "s9.gens"
    group_path.write_text(format_generators(s9))
    cert = Certificate("k9", None, 0, 0, EXHAUSTED_NONE, ())
    cert_path = tmp_path / "none.json"
    cert_path.write_text(
        document_to_json(certificate_to_document(cert, k9, s9, verified=False))
    )
    code = main(
        [
            "verify",
            "--graph",
            str(graph_path),
            "--group",
            str(group_path),
            "--certificate",
            str(cert_path),
        ]
    )
    assert code == 5
    assert "exceeds bound" in capsys.readouterr().err


def test_find_prime_power_above_the_bound_is_inconclusive(tmp_path, capsys):
    # S9 on K9 at seed 0: the 200 samples leave the 3-subgroup intransitive,
    # and |S9| = 362,880 is above the bound, so the scan over S9 cannot run
    from semireg import engine
    from semireg.families import symmetric_group
    from semireg.graphs import complete_graph

    k9, s9 = complete_graph(9), symmetric_group(9)
    graph_path = tmp_path / "k9.g6"
    graph_path.write_bytes(write_graph6(k9) + b"\n")
    group_path = tmp_path / "s9.gens"
    group_path.write_text(format_generators(s9))
    find = ["find", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(find + ["--routes", "prime-power", "--seed", "0"]) == 5
    assert "inconclusive" in capsys.readouterr().err
    trace = []
    config = engine.EngineConfig(routes=(engine.ROUTE_PRIME_POWER,), seed=0)
    assert list(engine._route_prime_power(k9, s9, config, trace)) == []
    assert trace == ["prime-power: order 362880 exceeds bound 100000"]


# a document's element is parsed at the document's n, and verify refuses an
# n that is not the graph's before that, so no document carries an element
# of another degree
@pytest.mark.parametrize("name", [name for name in NAMES if name != "another-degree"])
def test_verify_exits_1_on_each_forgery(tmp_path, capsys, name):
    graph, group, cert, reason = forgeries()[name]
    graph_path, group_path, cert_path = (tmp_path / f for f in ("g.g6", "g.gens", "cert.json"))
    graph_path.write_bytes(write_graph6(graph) + b"\n")
    group_path.write_text(format_generators(group))
    doc = certificate_to_document(cert, graph, group, verified=True)
    cert_path.write_text(document_to_json(doc))
    files = ["--graph", str(graph_path), "--group", str(group_path)]
    assert main(["verify", *files, "--certificate", str(cert_path)]) == 1
    assert capsys.readouterr().err == f"invalid: {reason}\n"


def test_find_then_verify_on_each_benchmark_instance(tmp_path, capsys):
    # verify re-enumerates as far as find enumerates, so it checks every
    # certificate find writes, k12-m11's exhausted-none one included
    methods = {}
    for name, args in CONSTRUCT_CASES:
        assert main(["construct", *args, "--out", str(tmp_path)]) == 0
        files = ["--graph", str(tmp_path / f"{name}.g6"), "--group", str(tmp_path / f"{name}.gens")]
        capsys.readouterr()
        assert main(["find", *files]) == 0, name
        cert_path = tmp_path / f"{name}.cert.json"
        cert_path.write_text(capsys.readouterr().out)
        assert main(["verify", *files, "--certificate", str(cert_path)]) == 0, name
        methods[name] = json.loads(cert_path.read_text())["method"]
    assert methods["k12-m11"] == "exhausted-none"


def test_find_and_corpus_take_no_bound(capsys, c6_files):
    # a find --bound above the constant once wrote exhausted-none
    # certificates that verify, enumerating only to the constant, could not
    # check (exit 5)
    for command in ("find", "corpus"):
        capsys.readouterr()
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--bound" not in out and "enumerated in full (a fixed bound)" in out, command
    graph_path, group_path = c6_files
    find = ["find", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(find + ["--bound", "5"]) == 2


def test_find_exhausted_none_exit_zero(tmp_path, capsys):
    from semireg.families import k12_m11

    k12, m11 = k12_m11()
    graph_path = tmp_path / "k12.g6"
    graph_path.write_bytes(write_graph6(k12) + b"\n")
    group_path = tmp_path / "m11.gens"
    group_path.write_text(format_generators(m11))
    code = main(["find", "--graph", str(graph_path), "--group", str(group_path)])
    assert code == 0  # a definitive answer, not a failure
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "exhausted-none"


@pytest.mark.parametrize("instance", ["k12-m11", "c6"])
@pytest.mark.parametrize("bump", ["big", "plus-one"])
def test_verify_compares_the_certificate_degree_with_the_graph(
    tmp_path, capsys, c6_files, instance, bump
):
    # the element is parsed at the document's n, so an n of 10^11 once ended
    # in an _ArrayMemoryError traceback
    if instance == "c6":
        graph_path, group_path = c6_files
    else:
        assert main(["construct", "--family", "k12m11", "--out", str(tmp_path)]) == 0
        graph_path, group_path = tmp_path / "k12-m11.g6", tmp_path / "k12-m11.gens"
    capsys.readouterr()
    assert main(["find", "--graph", str(graph_path), "--group", str(group_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["n"] = 10**11 if bump == "big" else doc["n"] + 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    verify = ["verify", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(verify + ["--certificate", str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: certificate is for {doc['n']} vertices") and (
        err.count("\n") == 1
    ), err


def test_exit_codes(tmp_path, capsys, monkeypatch, c6_files):
    graph_path, group_path = c6_files
    # usage errors
    assert main(["find"]) == 2
    find = ["find", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(find + ["--routes", "bogus"]) == 2
    negative_seed = [
        find,
        ["corpus", "--out", str(tmp_path / "corpus")],
        ["construct", "--family", "px", "--params", "p=3,r=3", "--out", str(tmp_path)],
    ]
    for cmd in negative_seed:
        assert main(cmd + ["--seed", "-1"]) == 2
    # the report draws nothing at random, so it takes no seed
    assert main(["report"] + find[1:] + ["--seed", "0"]) == 2
    for jobs in ("0", "-2"):
        assert main(["corpus", "--out", str(tmp_path / "corpus"), "--jobs", jobs]) == 2
    capsys.readouterr()
    out = str(tmp_path / "out")
    assert main(["construct", "--family", "px", "--params", "p=2", "--out", out]) == 2
    assert "needs --params key(s): r" in capsys.readouterr().err
    assert main(["construct", "--family", "px", "--params", "p=x", "--out", out]) == 3
    # coset takes its group files as options, and a missing one is a usage
    # error like a missing --params key
    capsys.readouterr()
    assert main(["construct", "--family", "coset", "--out", out]) == 2
    assert "--family coset needs --group, --subgroup and --element" in capsys.readouterr().err
    # a --params key the family does not take
    for family, params in [("k12m11", "p=3"), ("px", "p=3,r=3,s=1,q=2")]:
        capsys.readouterr()
        assert main(["construct", "--family", family, "--params", params, "--out", out]) == 2
        assert "does not take --params key(s)" in capsys.readouterr().err
    # a repeated --params key, which would otherwise keep its last value
    capsys.readouterr()
    assert main(["construct", "--family", "px", "--params", "p=2,r=3,s=1,p=3", "--out", out]) == 2
    assert "--params key p is given twice" in capsys.readouterr().err
    # corpus --config: not JSON is a parse error, a well-formed file that is
    # not a valid configuration is a usage error
    config = tmp_path / "config.json"
    corpus = ["corpus", "--config", str(config), "--out", str(tmp_path / "corpus")]
    for text, code in [
        ("{not json", 3),
        ("[1]", 2),
        ('{"bogus": 1}', 2),
        ('{"px_grid": {"2": [3, 4]}}', 2),
        ('{"px_grid": {"two": [3, 4, 2]}}', 2),
        # a digit that is not a decimal digit, which int() refuses
        ('{"px_grid": {"²": [3, 4, 1]}}', 2),
        ('{"px_grid": [3, 4, 2]}', 2),
        # "3" and "03" name one prime: one of the two rows would be lost
        ('{"px_grid": {"3": [3, 4, 1], "03": [3, 6, 2]}}', 2),
        ('{"primes": 5}', 2),
        ('{"primes": ["2"]}', 2),
        ('{"max_vertices": "many"}', 2),
        ('{"seed": 7}', 2),
        ('{"primes": [0]}', 2),
        ('{"primes": [-1]}', 2),
        ('{"primes": [1]}', 2),
        ('{"primes": [3, 4]}', 2),
        # refused by the bound 2p + 1 <= MAX_VERTICES before any trial division
        ('{"primes": [1000000000000000003]}', 2),
        # a repeated prime would list K5 and K4,4 twice
        ('{"primes": [2, 2], "include_coset_search": false, "px_grid": {}}', 2),
        # px_grid rows that corpus_generate cannot honour: PX(p, r, s) needs
        # r >= 3, and an empty row or a grid prime outside 'primes' (given or
        # default) would build nothing
        ('{"px_grid": {"2": [1, 4, 2]}, "include_named": false, '
         '"include_coset_search": false}', 2),
        ('{"px_grid": {"2": [5, 3, 2]}}', 2),
        ('{"px_grid": {"2": [3, 4, 0]}}', 2),
        ('{"px_grid": {"7": [3, 4, 2]}, "include_named": false, '
         '"include_coset_search": false}', 2),
        ('{"primes": [3], "px_grid": {"2": [3, 4, 2]}}', 2),
        # max_vertices outside 1..MAX_VERTICES
        ('{"max_vertices": 0}', 2),
        ('{"max_vertices": -1}', 2),
        ('{"max_vertices": 1000000}', 2),
    ]:
        config.write_text(text)
        assert main(corpus) == code, text
    # a prime within that bound but with 2p + 1 > max_vertices gives no named
    # instance, and neither K_{2p+1} nor K_{2p,2p} is built for it
    def refuse(*args):
        raise AssertionError("built an instance above max_vertices")

    monkeypatch.setattr("semireg.families.complete_graph", refuse)
    monkeypatch.setattr("semireg.families.complete_bipartite_instance", refuse)
    config.write_text('{"primes": [100003], "include_coset_search": false}')
    capsys.readouterr()
    assert main(corpus) == 0
    assert capsys.readouterr().out.startswith("0 instances")
    monkeypatch.undo()
    config.write_bytes(b"\xff\xfe")
    assert main(corpus) == 3
    # parse error
    bad = tmp_path / "bad.gens"
    for text in ("n=3\n(1,9)\n", "nope=3\n(1,2)\n", "name = 5\n(1,2)\n"):
        bad.write_text(text)
        assert main(["find", "--graph", str(graph_path), "--group", str(bad)]) == 3
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\xc2")
    assert main(["find", "--graph", str(graph_path), "--group", str(binary)]) == 3
    verify = ["verify", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(verify + ["--certificate", str(binary)]) == 3
    # a sparse6 loop (networkx's triangle with a loop at vertex 1) and a
    # size byte below 63
    c3 = tmp_path / "c3.gens"
    c3.write_text("n=3\n(1,2,3)\n")
    loop = tmp_path / "loop.s6"
    loop.write_bytes(b":B``\n")
    assert main(["find", "--graph", str(loop), "--group", str(c3)]) == 3
    short = tmp_path / "short.g6"
    short.write_bytes(b">?\n")
    assert main(["triangle", "--graph", str(short)]) == 3
    # parse error: K3 with a byte after its graph6 payload
    extra = tmp_path / "extra.g6"
    extra.write_bytes(b"Bw~\n")
    assert main(["find", "--graph", str(extra), "--group", str(c3)]) == 3
    # precondition error: group degree mismatch
    small = tmp_path / "small.gens"
    small.write_text("n=3\n(1,2,3)\n")
    code = main(["find", "--graph", str(graph_path), "--group", str(small)])
    assert code == 4
    # precondition error: an input path that cannot be read as a file
    assert main(["find", "--graph", str(tmp_path), "--group", str(group_path)]) == 4
    assert main(["find", "--graph", str(graph_path), "--group", str(tmp_path)]) == 4
    assert main(["corpus", "--config", str(tmp_path), "--out", str(tmp_path / "c")]) == 4
    # precondition error: a --seed-set vertex outside the graph
    capsys.readouterr()
    for vertex in ("999", "-1"):
        assert main(["dense", "--graph", str(graph_path), "--seed-set", vertex]) == 4
        assert f"vertex {vertex} out of range" in capsys.readouterr().err
    # precondition error: p=67 exceeds PSL2_MAX_PRIME
    code = main(["construct", "--family", "lemma33", "--params", "p=67,s=1", "--out", out])
    assert code == 4
    # and so does a prime far beyond it, before any trial division
    huge_p = "p=1000000000000000003,s=1"
    assert main(["construct", "--family", "lemma33", "--params", huge_p, "--out", out]) == 4
    # a generator file whose header claims more points than any graph holds
    # is refused before a permutation of that degree is allocated
    huge = tmp_path / "huge.gens"
    huge.write_text("n=100000000000\n()\n")
    capsys.readouterr()
    assert main(["find", "--graph", str(graph_path), "--group", str(huge)]) == 3
    assert "above the vertex limit" in capsys.readouterr().err
    # precondition error: C(2,129024,1) has one vertex more than graph6
    # holds, and C(2,3,10^12) far more; both are refused before being built
    for params in ("p=2,r=129024,s=1", "p=2,r=3,s=1000000000000"):
        capsys.readouterr()
        assert main(["construct", "--family", "px", "--params", params, "--out", out]) == 4
        assert "graph6 limit" in capsys.readouterr().err
    # precondition error: p and s outside their ranges, refused before the
    # size check raises 0 ** -1 and before a trial division of a huge p
    for params, message in [
        ("p=0,r=3,s=-1", "s=-1 must satisfy"),
        ("p=2,r=3,s=-1", "s=-1 must satisfy"),
        ("p=0,r=3,s=1", "p=0 must be prime"),
        ("p=1000000000000000003,r=0,s=1", "r=0 must be at least 3"),
    ]:
        capsys.readouterr()
        assert main(["construct", "--family", "px", "--params", params, "--out", out]) == 4
        assert message in capsys.readouterr().err
    # a report on a graph whose vertex 0 has no neighbours: K1, and 3K1 with S3
    no_neighbours = [("k1", b"@", "n=1\n()\n"), ("3k1", b"B?", "n=3\n(1,2)\n(1,2,3)\n")]
    for name, graph6, gens in no_neighbours:
        (tmp_path / f"{name}.g6").write_bytes(graph6 + b"\n")
        (tmp_path / f"{name}.gens").write_text(gens)
        report = ["report", "--graph", str(tmp_path / f"{name}.g6")]
        assert main(report + ["--group", str(tmp_path / f"{name}.gens")]) == 0
    # invalid certificate: the k12-m11 exhausted-none claim against a group
    # of another order, with an order too long for int(), and, with the
    # stated order edited to 2, against an intransitive group and a group of
    # degree 5
    assert main(["construct", "--family", "k12m11", "--out", str(tmp_path)]) == 0
    k12 = ["--graph", str(tmp_path / "k12-m11.g6")]
    capsys.readouterr()
    assert main(["find", *k12, "--group", str(tmp_path / "k12-m11.gens")]) == 0
    doc = json.loads(capsys.readouterr().out)
    other = tmp_path / "other.gens"
    none_cert = tmp_path / "none.json"
    m11 = (tmp_path / "k12-m11.gens").read_text()
    for order, gens, reason in [
        ("7920", "n=12\n(1,2)\n", "certificate is for a group of order 7920,"),
        # compared as digits: int() refuses a string of more than 4,300
        ("9" * 5000, m11, "certificate is for a group of order 999"),
        ("2", "n=12\n(1,2)\n", "group is not vertex-transitive"),
        ("2", "n=5\n(1,2)\n", "group degree does not match vertex count"),
    ]:
        none_cert.write_text(json.dumps({**doc, "group_order": order}))
        other.write_text(gens)
        verify_other = ["verify", *k12, "--group", str(other), "--certificate", str(none_cert)]
        assert main(verify_other) == 1
        assert reason in capsys.readouterr().err
    # leading zeros state the same order
    none_cert.write_text(json.dumps({**doc, "group_order": "007920"}))
    verify_m11 = ["verify", *k12, "--group", str(tmp_path / "k12-m11.gens")]
    assert main(verify_m11 + ["--certificate", str(none_cert)]) == 0
    # an element certificate for C6 with D6 against A4 on 5 points, of the
    # same order 12, once ended in a ValueError traceback
    other.write_text("n=5\n(1,2,3)\n(2,3,4)\n")
    capsys.readouterr()
    assert main(find) == 0
    element_cert = tmp_path / "element.json"
    element_cert.write_text(capsys.readouterr().out)
    verify_other = ["verify", "--graph", str(graph_path), "--group", str(other)]
    assert main(verify_other + ["--certificate", str(element_cert)]) == 1
    assert "group degree does not match vertex count" in capsys.readouterr().err
    # inconclusive: buddy-swap alone finds nothing on C6 with its rotations
    rot_only = tmp_path / "rot.gens"
    rot_only.write_text("n=6\n(1,2,3,4,5,6)\n")
    code = main(
        ["find", "--graph", str(graph_path), "--group", str(rot_only), "--routes", "buddy-swap"]
    )
    assert code == 5


@pytest.mark.parametrize(
    "header", [b":~~~~~~~~", b":~~??~~~~", b"~~??@???", b"?", b":?"]
)
def test_size_headers_outside_the_bound_exit_3(tmp_path, capsys, c6_files, header):
    # a sparse6 header claiming 2^36 - 1 or 2^24 - 1 vertices once ended in a
    # MemoryError or a 16,777,215-vertex graph, and n = 0 read as one vertex
    _, group_path = c6_files
    graph_path = tmp_path / "header.g6"
    graph_path.write_bytes(header + b"\n")
    for command in ("find", "report"):
        capsys.readouterr()
        assert main([command, "--graph", str(graph_path), "--group", str(group_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1, err


def test_every_option_is_read_by_its_command():
    # a knob its command stops reading would otherwise be accepted silently
    import inspect

    from semireg.cli import build_parser

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest != "help" and f"args.{action.dest}" not in source:
                unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []


def test_cli_determinism(tmp_path, capsys, c6_files):
    graph_path, group_path = c6_files
    outs = []
    for _ in range(2):
        main(
            [
                "find",
                "--graph",
                str(graph_path),
                "--group",
                str(group_path),
                "--seed",
                "7",
            ]
        )
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_report_cli(capsys, c6_files):
    graph_path, group_path = c6_files
    assert main(["report", "--graph", str(graph_path), "--group", str(group_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in doc["checks"]}
    assert "local-action-prime-divisibility" in names


SMALL_CORPUS_CONFIG = {
    "primes": [2],
    "include_named": False,
    "include_coset_search": False,
    "px_grid": {"2": [3, 4, 2]},
}


def _small_corpus(tmp_path, name: str, jobs: int) -> Path:
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SMALL_CORPUS_CONFIG))
    outdir = tmp_path / name
    code = main(
        ["corpus", "--config", str(config_path), "--out", str(outdir), "--jobs", str(jobs)]
    )
    assert code == 0
    return outdir


@pytest.mark.parametrize(
    "text, message",
    [
        # json.loads keeps the last of a repeated key, and one value is lost
        ('{"primes": [2], "primes": [3]}', "key 'primes' is given twice"),
        ('{"px_grid": {"3": [3, 4, 1], "3": [3, 6, 2]}}', "key '3' is given twice"),
        # gone: "px_grid": {} leaves out the grid, its covers and quotients
        ('{"include_px": false}', "unknown key 'include_px'"),
        ('{"include_covers": false}', "unknown key 'include_covers'"),
        ('{"include_quotients": false}', "unknown key 'include_quotients'"),
    ],
)
def test_corpus_config_usage_errors_name_the_key(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["corpus", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"usage error: --config: {message}\n"


def test_corpus_config_reads_any_decimal_digit(tmp_path):
    # str.isdecimal() admits exactly the digits int() reads, so an
    # Arabic-Indic 3 is the prime 3
    from semireg.cli import UsageError, _corpus_config

    def read(key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"px_grid": {key: [3, 4, 1]}}))
        return _corpus_config(str(path))

    assert read("\u0663") == read("3")
    assert read("3").px_grid == {3: (range(3, 5), 1)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"px_grid": {"3": [3, 4, 1], "\u0663": [3, 6, 2]}}))
    with pytest.raises(UsageError, match="'px_grid' names the prime 3 twice"):
        _corpus_config(str(path))


def test_corpus_cli_small(tmp_path, capsys):
    outdir = _small_corpus(tmp_path, "corpus", jobs=1)
    rows = [
        json.loads(line)
        for line in (outdir / "manifest.jsonl").read_text().splitlines()
    ]
    assert len(rows) >= 3
    for row in rows:
        cert = parse_certificate_document(
            (outdir / f"{row['id']}.cert.json").read_text()
        )
        assert cert["verified"] is True


def test_corpus_cli_parallel_matches_serial(tmp_path, capsys):
    serial = _small_corpus(tmp_path, "serial", jobs=1)
    parallel = _small_corpus(tmp_path, "parallel", jobs=2)
    names = sorted(f.name for f in serial.iterdir())
    assert "manifest.jsonl" in names and len(names) >= 4
    assert sorted(f.name for f in parallel.iterdir()) == names
    for name in names:
        assert (parallel / name).read_bytes() == (serial / name).read_bytes(), name


def test_cli_import_leaves_the_process_pool_out():
    # only corpus --jobs N with N > 1 imports the pool
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import semireg.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_find_and_verify_leave_families_logging_and_numpy_ma_out(tmp_path, c6_files):
    # a find or verify process imports only the code it runs; numpy.ma comes
    # in with the first np.unique call, and numpy.random with the first
    # sample, which C6 with D6 needs only above the bound
    graph_path, group_path = c6_files
    files = ["--graph", str(graph_path), "--group", str(group_path)]
    cert = str(tmp_path / "cert.json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    loaded = "('semireg.families', 'numpy.ma', 'numpy.random', 'logging')"
    code = (
        f"import contextlib, io, json, sys; sys.path.insert(0, {src!r})\n"
        "from semireg.cli import main\n"
        f"with open({cert!r}, 'w') as fh, contextlib.redirect_stdout(fh):\n"
        f"    assert main(['find', *{files!r}]) == 0\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        f"    assert main(['verify', *{files!r}, '--certificate', {cert!r}]) == 0\n"
        f"print([m for m in {loaded} if m in sys.modules])\n"
        # |D6| = 12 is above a bound of 1, so this find samples
        "import semireg.engine\n"
        "semireg.engine.DEFAULT_BOUND = 1\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main(['find', *{files!r}]) == 0\n"
        "print(json.loads(out.getvalue())['trace'])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, trace = done.stdout.splitlines()
    assert loaded == "[]"
    assert "direct-search: sampled element of prime order" in trace


def test_package_loads_the_families_on_first_use():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import semireg; "
        "print('semireg.families' in sys.modules); "
        "import semireg.families; "
        "print(semireg.corpus_generate is semireg.families.corpus_generate); "
        "print(hasattr(semireg, 'no_such_name'))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "False"]


def test_verify_leaves_jsonschema_out(tmp_path, c6_files):
    # certificates are checked against the schema in-house; jsonschema is a
    # test dependency only
    graph_path, group_path = c6_files
    files = ["--graph", str(graph_path), "--group", str(group_path)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    run_main = f"import sys; sys.path.insert(0, {src!r}); from semireg.cli import main; "
    found = subprocess.run(
        [sys.executable, "-c", run_main + f"sys.exit(main(['find', *{files!r}]))"],
        capture_output=True, text=True, timeout=60,
    )
    assert found.returncode == 0, found.stderr
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(found.stdout)
    code = run_main + (
        f"code = main(['verify', *{files!r}, '--certificate', {str(cert_path)!r}]); "
        "print('jsonschema' in sys.modules); sys.exit(code)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["valid", "False"]


def test_cli_exit_codes_on_small_inputs(tmp_path, capsys):
    # find, report, verify, quotient, dense, triangle and cover on graphs with
    # at most 8 vertices (K1 and edgeless ones among them), generator files of
    # the right and the wrong degree, and certificates with a changed n or
    # element: no exception escapes main, and only verify may exit 1
    from semireg.engine import ALL_ROUTES
    from semireg.families import symmetric_group
    from semireg.graphs import Graph, complete_graph

    rng = np.random.default_rng(0)

    def run(*argv):
        code = main([str(a) for a in argv])
        out = capsys.readouterr().out
        allowed = {0, 2, 3, 4, 5} | ({1} if argv[0] == "verify" else set())
        assert code in allowed, argv
        return code, out

    def random_group(n):
        gens = [Permutation(rng.permutation(n)) for _ in range(int(rng.integers(1, 3)))]
        return PermGroup(gens, n)

    def dihedral(n):
        arange = np.arange(n)
        return PermGroup([Permutation((arange + 1) % n), Permutation(-arange % n)], n)

    cases = [(Graph(1, ()), [PermGroup([], 1)]), (Graph(3, ()), [symmetric_group(3)])]
    cases += [(Graph(5, ()), [])]
    cases += [(cycle_graph(n), [dihedral(n)]) for n in range(3, 9)]
    cases += [(complete_graph(n), [symmetric_group(n)]) for n in range(2, 7)]
    for _ in range(6):
        n = int(rng.integers(2, 9))
        edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.5]
        cases.append((Graph(n, edges), []))
    certified = 0
    for i, (graph, groups) in enumerate(cases):
        n = graph.n
        graph_path = tmp_path / f"g{i}.g6"
        graph_path.write_bytes(write_graph6(graph) + b"\n")
        run("triangle", "--graph", graph_path)
        run("cover", "--graph", graph_path)
        seed_set = ",".join(str(v) for v in rng.integers(0, n + 1, size=2))
        run("dense", "--graph", graph_path, "--seed-set", seed_set)
        groups = groups + [PermGroup([], n), random_group(n), random_group(n + 1)]
        for j, group in enumerate(groups):
            group_path = tmp_path / f"g{i}-{j}.gens"
            group_path.write_text(format_generators(group))
            run("report", "--graph", graph_path, "--group", group_path)
            run("quotient", "--graph", graph_path, "--partition-from-group", group_path)
            for routes in (ALL_ROUTES, ("quotient-lift", "buddy-swap")):
                find = ["find", "--graph", graph_path, "--group", group_path]
                code, out = run(*find, "--routes", ",".join(routes))
                if code != 0:
                    continue
                certified += 1
                doc = json.loads(out)
                element = Permutation(rng.permutation(n)).cycle_string(one_based=True)
                changes = [{}, {"n": n + 1}, {"n": 10**11}, {"n": 0}]
                elements = (element or "()", f"(1,{n + 1})", "(")
                changes += [{"element": e} for e in elements]
                for change in changes:
                    cert_path = tmp_path / "cert.json"
                    cert_path.write_text(json.dumps({**doc, **change}))
                    verify = ["verify", "--graph", graph_path, "--group", group_path]
                    code, _ = run(*verify, "--certificate", cert_path)
                    assert code == 0 or change, doc
    assert certified >= 10
