import json
from pathlib import Path

import pytest

from semireg.cli import main
from semireg.formats import (
    format_generators,
    parse_certificate_document,
    read_graph6,
    write_graph6,
)
from semireg.graphs import cycle_graph, standard_double_cover, quotient_graph
from semireg.group import PermGroup
from semireg.perm import Permutation


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


def test_exit_codes(tmp_path, capsys, c6_files):
    graph_path, group_path = c6_files
    # usage errors
    assert main(["find"]) == 2
    find = ["find", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(find + ["--routes", "bogus"]) == 2
    assert main(find + ["--bound", "-5"]) == 2
    negative_seed = [
        find,
        ["corpus", "--out", str(tmp_path / "corpus")],
        ["report"] + find[1:],
        ["construct", "--family", "px", "--params", "p=3,r=3", "--out", str(tmp_path)],
    ]
    for cmd in negative_seed:
        assert main(cmd + ["--seed", "-1"]) == 2
    capsys.readouterr()
    out = str(tmp_path / "out")
    assert main(["construct", "--family", "px", "--params", "p=2", "--out", out]) == 2
    assert "needs --params key(s): r" in capsys.readouterr().err
    assert main(["construct", "--family", "px", "--params", "p=x", "--out", out]) == 3
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
        ('{"px_grid": [3, 4, 2]}', 2),
        ('{"primes": 5}', 2),
        ('{"primes": ["2"]}', 2),
        ('{"max_vertices": "many"}', 2),
    ]:
        config.write_text(text)
        assert main(corpus) == code, text
    config.write_bytes(b"\xff\xfe")
    assert main(corpus) == 3
    # parse error
    bad = tmp_path / "bad.gens"
    bad.write_text("n=3\n(1,9)\n")
    assert main(["find", "--graph", str(graph_path), "--group", str(bad)]) == 3
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\xc2")
    assert main(["find", "--graph", str(graph_path), "--group", str(binary)]) == 3
    verify = ["verify", "--graph", str(graph_path), "--group", str(group_path)]
    assert main(verify + ["--certificate", str(binary)]) == 3
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
    # precondition error: |PSL(2,61)| exceeds the normalizer-scan bound
    code = main(["construct", "--family", "lemma33", "--params", "p=61,s=1", "--out", out])
    assert code == 4
    # inconclusive: sampling cannot conclude on C6 rotations with tiny bound
    rot_only = tmp_path / "rot.gens"
    rot_only.write_text("n=6\n(1,2,3,4,5,6)\n")
    code = main(
        [
            "find",
            "--graph",
            str(graph_path),
            "--group",
            str(rot_only),
            "--bound",
            "1",
            "--routes",
            "buddy-swap",
        ]
    )
    assert code == 5


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


def test_corpus_cli_small(tmp_path, capsys):
    config = {
        "primes": [2],
        "include_covers": False,
        "include_named": False,
        "include_coset_search": False,
        "include_quotients": False,
        "px_grid": {"2": [3, 4, 2]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outdir = tmp_path / "corpus"
    code = main(
        [
            "corpus",
            "--config",
            str(config_path),
            "--out",
            str(outdir),
            "--jobs",
            "1",
        ]
    )
    assert code == 0
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
