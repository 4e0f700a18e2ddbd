import json
import random

import numpy as np
import pytest

from semireg.perm import Permutation
from semireg.group import PermGroup
from semireg.graphs import Graph, complete_graph, cycle_graph
from semireg.engine import Certificate, verify_certificate
from semireg.formats import (
    ParseError,
    _decode_size,
    _encode_size,
    certificate_schema,
    certificate_to_document,
    document_to_certificate,
    document_to_json,
    format_generators,
    parse_certificate_document,
    parse_generators,
    parse_permutation,
    read_graph6,
    read_graph_auto,
    read_sparse6,
    validate_document,
    write_graph6,
    write_sparse6,
)

from oracles import networkx_graph, sparse6_edges_t


def random_graph(rng, n, p) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_parse_generators_s4():
    grp = parse_generators("n=4\n(1,2)\n(1,2,3,4)\n")
    assert grp.degree == 4
    assert grp.order() == 24


def test_parse_generators_comments_and_blanks():
    text = "# a group\n\nn=12\n# M11-style comment\n(1,2,3)\n"
    grp = parse_generators(text)
    assert grp.degree == 12
    assert grp.generators[0] == Permutation.from_cycles(12, [(0, 1, 2)])


def test_parse_generators_duplicate_point():
    with pytest.raises(ParseError, match="duplicate point 2"):
        parse_generators("n=3\n(1,2)(2,3)\n")


def test_parse_generators_point_out_of_range():
    with pytest.raises(ParseError, match="outside"):
        parse_generators("n=3\n(1,4)\n")


def test_parse_generators_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_generators("(1,2)\n")


@pytest.mark.parametrize("header", ["nope=3", "name = 5"])
def test_parse_generators_header_key_is_n(header):
    with pytest.raises(ParseError, match="expected header"):
        parse_generators(f"{header}\n(1,2)\n")


def test_parse_generators_header_spaces():
    assert parse_generators("n = 3\n(1,2)\n").degree == 3
    assert parse_generators("  n=  4 \n").degree == 4


def test_parse_generators_reports_line_and_column():
    try:
        parse_generators("n=4\n(1,2)\nx(1,3)\n")
        assert False
    except ParseError as exc:
        assert "line 3" in str(exc)


def test_generator_round_trip(s4):
    text = format_generators(s4)
    back = parse_generators(text)
    assert back.order() == s4.order()
    assert all(g in set(s4.generators) for g in back.generators)


def test_parse_permutation_identity():
    p = parse_permutation("()", 5)
    assert p.is_identity()


def test_graph6_round_trip_1000_random():
    rng = random.Random(6)
    for _ in range(1000):
        n = rng.randrange(1, 40)
        g = random_graph(rng, n, rng.random())
        assert read_graph6(write_graph6(g)) == g


def test_sparse6_round_trip():
    rng = random.Random(60)
    for _ in range(400):
        n = rng.randrange(1, 40)
        g = random_graph(rng, n, rng.random())
        assert read_sparse6(write_sparse6(g)) == g


def test_graph6_matches_reference_encoder():
    # byte-exact against an independent implementation
    import networkx as nx
    from networkx.readwrite.graph6 import to_graph6_bytes
    from networkx.readwrite.sparse6 import to_sparse6_bytes

    assert write_graph6(complete_graph(4)) == b"C~"
    assert write_graph6(complete_graph(4)) == to_graph6_bytes(
        nx.complete_graph(4), header=False
    ).strip()

    rng = random.Random(77)
    for _ in range(300):
        n = rng.randrange(1, 50)
        g = random_graph(rng, n, rng.random())
        h = networkx_graph(g)
        assert write_graph6(g) == to_graph6_bytes(h, header=False).strip()
        assert write_sparse6(g) == to_sparse6_bytes(h, header=False).strip()


def test_graph6_headers_tolerated():
    g = cycle_graph(5)
    assert read_graph6(b">>graph6<<" + write_graph6(g)) == g
    assert read_sparse6(b">>sparse6<<" + write_sparse6(g)) == g
    assert read_graph_auto(write_sparse6(g)) == g
    assert read_graph_auto(write_graph6(g)) == g


def test_graph6_truncation_errors():
    g = complete_graph(8)
    data = write_graph6(g)
    with pytest.raises(ParseError, match="truncated"):
        read_graph6(data[:-1])
    with pytest.raises(ParseError, match="range"):
        read_graph6(bytes([30, 40]))
    with pytest.raises(ParseError):
        read_graph6(b"")
    # a size byte outside 63..126 once read as a negative vertex count
    for data in (b">?", b":>", b"~?>??", b":~~???>???"):
        with pytest.raises(ParseError, match="outside graph6 range"):
            read_graph_auto(data)
    # a payload is exactly ceil(n(n-1)/12) bytes: K3 and K1 with one more
    for data in (b"Bw~", b"@?"):
        with pytest.raises(ParseError, match="1 bytes after the payload"):
            read_graph6(data)


def test_size_header_bounds():
    # the 8-byte form could claim up to 2^36 - 1 vertices, which the sparse6
    # reader allocated before reading the payload; n = 0 read as one vertex
    for data in (b":~~~~~~~~", b":~~??~~~~", b"~~??@???", b"~~??????", b"?", b":?"):
        with pytest.raises(ParseError, match=r"outside 1\.\.258047"):
            read_graph_auto(data)
    # the largest count the 4-byte form holds, in either header form
    big = _encode_size(258047)
    assert big == b"~}~~" and _decode_size(big, 0) == (258047, 4)
    assert _decode_size(b"~~???}~~", 0) == (258047, 8)
    assert read_sparse6(b":" + big).n == 258047
    assert read_graph6(b"@") == read_sparse6(b":@") == complete_graph(1)
    with pytest.raises(ValueError, match="above the graph6/sparse6 limit 258047"):
        _encode_size(258048)


def test_parser_fuzzing_no_crashes():
    # structured errors only, no unhandled exceptions: 10^4 random blobs,
    # then 5,000 near-valid ones (a size byte in 58..126, then graph6
    # characters), on which loops, bad size bytes and long size headers are
    # common. A graph reader may raise ParseError alone, since the CLI shows
    # any other ValueError as a traceback.
    rng = random.Random(123)
    crashes = []

    def read_all(blob):
        for reader in (read_graph6, read_sparse6, read_graph_auto):
            try:
                reader(blob)
            except ParseError:
                pass
            except Exception as exc:
                crashes.append((blob, reader.__name__, exc))

    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 30)))
        read_all(blob)
        try:
            parse_generators(blob.decode("latin1"))
        except (ParseError, ValueError):
            pass
        except Exception as exc:
            crashes.append((blob, "parse_generators", exc))
    near = random.Random(77)
    for _ in range(5000):
        blob = near.choice([b"", b":"]) + bytes([near.randrange(58, 127)])
        read_all(blob + bytes(near.randrange(58, 127) for _ in range(near.randrange(0, 12))))
    assert crashes == []


def test_certificate_document_round_trip(d6):
    c6 = cycle_graph(6)
    rot = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    cert = Certificate("c6", rot, 6, 6, "direct-search", ("step",))
    doc = certificate_to_document(cert, c6, d6, verified=True, seed=0)
    text = document_to_json(doc)
    parsed = parse_certificate_document(text)
    back = document_to_certificate(parsed)
    assert back.element == cert.element
    assert back.method == cert.method
    ok1, _ = verify_certificate(c6, d6, cert)
    ok2, _ = verify_certificate(c6, d6, back)
    assert ok1 == ok2 == True


def test_certificate_document_schema_rejects_junk():
    with pytest.raises(ParseError):
        parse_certificate_document("{}")
    with pytest.raises(ParseError):
        parse_certificate_document("not json")
    with pytest.raises(ParseError, match="is not one of"):
        parse_certificate_document(
            json.dumps(
                {
                    "graph_id": "x",
                    "n": 3,
                    "valency": 2,
                    "group_order": "6",
                    "method": "wishful-thinking",
                    "element": "()",
                    "element_order": 1,
                    "cycle_length": 1,
                    "trace": [],
                    "verified": False,
                    "tool_version": "0",
                    "seed": None,
                }
            )
        )


def test_exhausted_none_document(d6):
    from semireg.families import k12_m11

    k12, m11 = k12_m11()
    cert = Certificate("k12", None, 0, 0, "exhausted-none", ())
    doc = certificate_to_document(cert, k12, m11, verified=True, seed=0)
    assert doc["element"] is None
    back = document_to_certificate(parse_certificate_document(document_to_json(doc)))
    ok, reason = verify_certificate(k12, m11, back)
    assert ok, reason


def test_group_order_serialized_as_string(s4):
    doc = certificate_to_document(
        Certificate("x", Permutation.from_cycles(4, [(0, 1), (2, 3)]), 2, 2, "direct-search", ()),
        complete_graph(4),
        s4,
        verified=True,
    )
    assert doc["group_order"] == "24"
    assert isinstance(doc["group_order"], str)


def _valid_document() -> dict:
    c6 = cycle_graph(6)
    d6 = PermGroup([Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    cert = Certificate("c6", Permutation.from_cycles(6, [(0, 2, 4)]), 3, 3,
                       "direct-search", ("a", "b"))
    return certificate_to_document(cert, c6, d6, verified=True, seed=4)


def _jsonschema_validator(schema):
    """The validator ``jsonschema.validate(doc, schema)`` would use."""
    from jsonschema.validators import validator_for

    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _accepts(doc, schema) -> bool:
    try:
        validate_document(doc, schema)
    except ParseError:
        return False
    return True


def test_validator_agrees_with_jsonschema():
    schema = certificate_schema()
    base = _valid_document()
    docs = [base, [base], "doc", 3, None]
    docs += [{k: v for k, v in base.items() if k != key} for key in base]
    docs.append({**base, "extra": 1})
    for key, value in [
        ("n", True), ("n", 1.0), ("n", 6.0), ("n", 6.5), ("n", "6"), ("n", 0),
        ("element_order", True), ("element_order", 1.0), ("element_order", -1),
        ("element_order", -1.0), ("element_order", 0), ("cycle_length", -2),
        ("valency", None), ("valency", -1), ("valency", "2"), ("seed", None),
        ("seed", 1.0), ("seed", False), ("graph_id", 3), ("tool_version", 1.5),
        ("verified", 1), ("verified", None), ("method", "wishful-thinking"),
        ("method", 1), ("method", True), ("group_order", "12\n"),
        ("group_order", "x"), ("group_order", ""), ("group_order", "12a"),
        ("group_order", 12), ("trace", [1]), ("trace", ["a", None]),
        ("trace", "abc"), ("trace", []), ("element", 5), ("element", None),
    ]:
        docs.append({**base, key: value})
    # random values in random fields
    rng = random.Random(5)
    pool = [None, True, False, 0, 1, -1, 1.0, -1.0, 0.5, "", "7", "7\n", "x",
            "prime-power", [], ["s"], [0], {}, {"n": 1}]
    for _ in range(400):
        doc = dict(base)
        for key in rng.sample(sorted(base), rng.randrange(1, 4)):
            doc[key] = rng.choice(pool)
        docs.append(doc)
    verdicts = [_accepts(doc, schema) for doc in docs]
    reference = _jsonschema_validator(schema)
    assert verdicts == [reference.is_valid(doc) for doc in docs]
    assert 10 < sum(verdicts) < len(docs) - 10
    # JSON equality in enum: true is not 1, but 1.0 is
    small = {"enum": [1, "a", None]}
    for value in (True, False, 1, 1.0, 0, "a", None, [1]):
        assert _accepts(value, small) == _jsonschema_validator(small).is_valid(value)
    # the cases where a lax reading and a strict one part ways
    for key, value, ok in [("n", 1.0, True), ("n", True, False),
                           ("group_order", "12\n", True), ("group_order", "x", False),
                           ("element_order", -1, False)]:
        assert _accepts({**base, key: value}, schema) is ok


def test_validator_names_where_a_document_fails():
    doc = {**_valid_document(), "trace": ["a", 7]}
    with pytest.raises(ParseError, match=r"at trace\[1\]: 7 is not of type 'string'"):
        validate_document(doc, certificate_schema())
    with pytest.raises(ParseError, match="'seed' is a required property"):
        validate_document({k: v for k, v in doc.items() if k != "seed"}, certificate_schema())


def test_validator_rejects_an_unsupported_schema_keyword():
    schema = certificate_schema()
    doc = _valid_document()
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        validate_document(doc, {**schema, "maxProperties": 20})
    with pytest.raises(ValueError, match="additionalProperties must be true or false"):
        validate_document(doc, {**schema, "additionalProperties": {"type": "string"}})
    # also inside a property the document lacks
    nested = json.loads(json.dumps(schema))
    nested["properties"]["spare"] = {"type": "string", "maxLength": 3}
    with pytest.raises(ValueError, match=r"\['maxLength'\]"):
        validate_document(doc, nested)


def _edge_set(edges) -> set:
    return {(min(u, w), max(u, w)) for u, w in edges}


@pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 420])
def test_graph6_and_sparse6_readers_match_networkx(n):
    # 62/63 straddle the one-byte and four-byte size headers
    from networkx.readwrite.graph6 import from_graph6_bytes, to_graph6_bytes
    from networkx.readwrite.sparse6 import from_sparse6_bytes, to_sparse6_bytes

    rng = random.Random(n)
    # the complete graph on 420 vertices would take networkx seconds
    for p in (0.0, 0.03, 0.3) + ((1.0,) if n <= 64 else ()):
        g = random_graph(rng, n, p)
        h = networkx_graph(g)
        for data in (write_graph6(g), to_graph6_bytes(h, header=False).strip()):
            assert data == write_graph6(g)
            ref = from_graph6_bytes(data)
            back = read_graph6(data)
            assert back.n == ref.number_of_nodes() == n
            assert _edge_set(back.edges()) == _edge_set(ref.edges())
        data = to_sparse6_bytes(h, header=False).strip()
        ref = from_sparse6_bytes(data)
        back = read_sparse6(data)
        assert back.n == ref.number_of_nodes() == n
        assert _edge_set(back.edges()) == _edge_set(ref.edges())


def test_sparse6_reader_matches_record_by_record_decoding():
    # random payloads end in every way: padding, an x >= n stop, a v >= n stop
    rng = random.Random(9)
    for _ in range(3000):
        n = rng.choice([1, 2, 3, 4, 5, 8, 16, 17, 33, 64, 100])
        payload = bytes(rng.randrange(63, 127) for _ in range(rng.randrange(0, 12)))
        edges = sparse6_edges_t(n, payload)
        # one size byte up to n = 62, else 126 and three 6-bit digits
        size = [n + 63] if n <= 62 else [126, 63, (n >> 6) + 63, (n & 63) + 63]
        data = b":" + bytes(size) + payload
        loops = [u for u, w in edges if u == w]
        if loops:
            with pytest.raises(ParseError, match=f"loop at vertex {loops[0]}$"):
                read_sparse6(data)
            continue
        assert sorted(read_sparse6(data).edges()) == sorted(_edge_set(edges))
