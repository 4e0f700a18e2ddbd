"""Parsers and serializers: graph6/sparse6 graphs, generator files in
disjoint-cycle notation, and certificate JSON documents.

External cycle notation is 1-based (matching the mathematical convention and
census data); everything internal is 0-based. Conversion happens here and
only here. Group orders are serialized as decimal strings.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .engine import Certificate
from .graphs import Graph
from .group import PermGroup
from .perm import Permutation

_INT = np.int64


class ParseError(ValueError):
    """Malformed input; carries a human-readable location."""


# -- generator files ----------------------------------------------------------


def _parse_cycles_token(text: str, degree: int, line_no: int) -> Permutation:
    """One line of disjoint cycles like ``(1,2)(3,4,5)`` (1-based points)."""
    cycles = []
    used = set()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"line {line_no}, column {i + 1}: expected '('")
        j = text.find(")", i)
        if j < 0:
            raise ParseError(f"line {line_no}, column {i + 1}: unclosed cycle")
        body = text[i + 1 : j].strip()
        i = j + 1
        if not body:
            continue  # "()" denotes the identity contribution
        points = []
        for tok in body.replace(",", " ").split():
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(
                    f"line {line_no}: invalid point {tok!r}"
                ) from None
            if not 1 <= val <= degree:
                raise ParseError(
                    f"line {line_no}: point {val} outside 1..{degree}"
                )
            if val - 1 in used:
                raise ParseError(
                    f"line {line_no}: duplicate point {val} within a line"
                )
            used.add(val - 1)
            points.append(val - 1)
        if len(points) < 1:
            raise ParseError(f"line {line_no}: empty cycle")
        cycles.append(tuple(points))
    return Permutation.from_cycles(degree, cycles)


def parse_generators(text: str) -> PermGroup:
    """Parse a generator file: header ``n=<degree>``, one permutation per
    line in 1-based disjoint-cycle notation; blank lines and # comments are
    ignored."""
    degree = None
    perms = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            if not line.startswith("n") or "=" not in line:
                raise ParseError(
                    f"line {line_no}: expected header 'n=<degree>', got {line!r}"
                )
            try:
                degree = int(line.split("=", 1)[1].strip())
            except ValueError:
                raise ParseError(f"line {line_no}: bad degree in header") from None
            if degree < 1:
                raise ParseError(f"line {line_no}: degree must be >= 1")
            continue
        perms.append(_parse_cycles_token(line, degree, line_no))
    if degree is None:
        raise ParseError("missing 'n=<degree>' header")
    return PermGroup(perms, degree)


def format_generators(group: PermGroup) -> str:
    lines = [f"n={group.degree}"]
    for g in group.generators:
        lines.append(g.cycle_string(one_based=True) or "()")
    return "\n".join(lines) + "\n"


def parse_permutation(text: str, degree: int) -> Permutation:
    """A single permutation in 1-based cycle notation ('()' is the identity)."""
    return _parse_cycles_token(text.strip(), degree, 1)


# -- graph6 / sparse6 ---------------------------------------------------------


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative size")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(
            [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
        )
    raise ValueError("graph too large for graph6/sparse6")


def _decode_size(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise ParseError(f"byte {pos}: truncated size header")
    if data[pos] != 126:
        return data[pos] - 63, pos + 1
    if pos + 1 < len(data) and data[pos + 1] == 126:
        if pos + 8 > len(data):
            raise ParseError(f"byte {pos}: truncated 8-byte size header")
        n = 0
        for k in range(2, 8):
            n = (n << 6) | (data[pos + k] - 63)
        return n, pos + 8
    if pos + 4 > len(data):
        raise ParseError(f"byte {pos}: truncated 4-byte size header")
    n = 0
    for k in range(1, 4):
        n = (n << 6) | (data[pos + k] - 63)
    return n, pos + 4


def _check_payload(data: bytes, start: int) -> None:
    for i in range(start, len(data)):
        if not 63 <= data[i] <= 126:
            raise ParseError(f"byte {i}: value {data[i]} outside graph6 range")


def write_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (no optional header, no newline)."""
    n = g.n
    bits = []
    for j in range(1, n):
        nbrs = set(int(x) for x in g.neighbors(j))
        for i in range(j):
            bits.append(1 if i in nbrs else 0)
    out = bytearray(_encode_size(n))
    for k in range(0, len(bits), 6):
        chunk = bits[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def read_graph6(data: bytes) -> Graph:
    """Decode graph6 bytes (optional ``>>graph6<<`` header tolerated)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if data.startswith(b":"):
        raise ParseError("byte 0: sparse6 payload passed to the graph6 reader")
    if not data:
        raise ParseError("empty input")
    n, pos = _decode_size(data, 0)
    _check_payload(data, pos)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos < need:
        raise ParseError(
            f"byte {len(data)}: truncated payload, need {need} bytes after header"
        )
    bits = []
    for i in range(pos, pos + need):
        val = data[i] - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(max(n, 1), edges)


def write_sparse6(g: Graph) -> bytes:
    """Canonical sparse6 encoding (':' prefix, no newline)."""
    n = g.n
    k = max(1, (n - 1).bit_length())
    bits = []
    v = 0
    for (b, a) in sorted((max(u, w), min(u, w)) for u, w in g.edges()):
        if b == v:
            bits.append(0)
            bits.extend((a >> t) & 1 for t in range(k - 1, -1, -1))
        elif b == v + 1:
            v += 1
            bits.append(1)
            bits.extend((a >> t) & 1 for t in range(k - 1, -1, -1))
        else:
            v = b
            bits.append(1)
            bits.extend((b >> t) & 1 for t in range(k - 1, -1, -1))
            bits.append(0)
            bits.extend((a >> t) & 1 for t in range(k - 1, -1, -1))
    # pad with 1s; when n is a power of two and enough padding remains while
    # the current vertex sits below n-1, a leading 0 bit keeps the padding
    # from decoding as a spurious edge at vertex n-1
    pad = (-len(bits)) % 6
    if k < 6 and n == (1 << k) and pad >= k and v < n - 1:
        bits.append(0)
        pad = (-len(bits)) % 6
    bits.extend([1] * pad)
    out = bytearray(b":")
    out += _encode_size(n)
    for t in range(0, len(bits), 6):
        val = 0
        for b in bits[t : t + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def read_sparse6(data: bytes) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>sparse6<<"):
        data = data[11:]
    if not data.startswith(b":"):
        raise ParseError("byte 0: sparse6 input must start with ':'")
    n, pos = _decode_size(data, 1)
    _check_payload(data, pos)
    bits = []
    for i in range(pos, len(data)):
        val = data[i] - 63
        bits.extend((val >> t) & 1 for t in range(5, -1, -1))
    k = max(1, (n - 1).bit_length())
    edges = []
    v = 0
    idx = 0
    while idx + k < len(bits):
        b = bits[idx]
        x = 0
        for t in range(k):
            x = (x << 1) | bits[idx + 1 + t]
        idx += 1 + k
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return Graph(max(n, 1), edges)


def read_graph_auto(data: bytes) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    stripped = data.strip()
    if stripped.startswith(b">>sparse6<<") or stripped.startswith(b":"):
        return read_sparse6(stripped)
    return read_graph6(stripped)


# -- certificate documents ----------------------------------------------------


def certificate_schema() -> dict:
    with resources.files("semireg.schema").joinpath(
        "certificate.schema.json"
    ).open("r") as fh:
        return json.load(fh)


def certificate_to_document(
    cert: Certificate,
    graph: Graph,
    group: PermGroup,
    *,
    verified: bool,
    seed: int | None = None,
) -> dict:
    from . import __version__

    return {
        "graph_id": cert.graph_id,
        "n": graph.n,
        "valency": graph.valency(),
        "group_order": str(group.order()),
        "method": cert.method,
        "element": (
            cert.element.cycle_string(one_based=True) or "()"
        )
        if cert.element is not None
        else None,
        "element_order": cert.element_order,
        "cycle_length": cert.cycle_length,
        "trace": list(cert.trace),
        "verified": verified,
        "tool_version": __version__,
        "seed": seed,
    }


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_certificate_document(text: str) -> dict:
    import jsonschema

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        jsonschema.validate(doc, certificate_schema())
    except jsonschema.ValidationError as exc:
        raise ParseError(f"certificate document: {exc.message}") from None
    return doc


def document_to_certificate(doc: dict) -> Certificate:
    n = doc["n"]
    element = None
    if doc["element"] is not None:
        element = parse_permutation(doc["element"], n)
    return Certificate(
        graph_id=doc["graph_id"],
        element=element,
        element_order=doc["element_order"],
        cycle_length=doc["cycle_length"],
        method=doc["method"],
        trace=tuple(doc["trace"]),
    )
