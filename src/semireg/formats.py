"""Parsers and serializers: graph6/sparse6 graphs, generator files in
disjoint-cycle notation, and certificate JSON documents.

External cycle notation is 1-based (matching the mathematical convention and
census data); everything internal is 0-based. Conversion happens here and
only here. Group orders are serialized as decimal strings.

The graph6 and sparse6 codecs work on whole numpy arrays: the graph6 payload
is the column-ordered upper triangle of the adjacency matrix, six bits a
byte, and a sparse6 payload is a run of fixed-width records whose running
vertex is a prefix maximum.

Certificate documents are checked against the committed
``schema/certificate.schema.json`` by a small validator here, not by the
``jsonschema`` package. It implements the keywords that schema uses:
``type``, ``required``, ``properties``, ``additionalProperties``, ``enum``,
``minimum``, ``pattern`` (matched with ``re.search``) and ``items``, skips the
annotations ``$schema`` and ``title``, and raises on any other keyword. On
such schemas it accepts and rejects exactly the documents
``jsonschema.validate`` does (a test compares the two).
"""

from __future__ import annotations

import json
import re
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
    """Parse a generator file: header ``n=<degree>`` with the degree in
    1..``MAX_VERTICES``, one permutation per line in 1-based disjoint-cycle
    notation; blank lines and # comments are ignored."""
    degree = None
    perms = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            key, eq, value = line.partition("=")
            if not eq or key.strip() != "n":
                raise ParseError(
                    f"line {line_no}: expected header 'n=<degree>', got {line!r}"
                )
            try:
                degree = int(value)
            except ValueError:
                raise ParseError(f"line {line_no}: bad degree in header") from None
            if degree < 1:
                raise ParseError(f"line {line_no}: degree must be >= 1")
            # checked before any permutation of that degree is allocated
            if degree > MAX_VERTICES:
                raise ParseError(
                    f"line {line_no}: degree {degree} is above the vertex limit "
                    f"{MAX_VERTICES}"
                )
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


# largest vertex count read or written, the largest the 4-byte size header
# holds; the 8-byte header can claim 2^36 - 1 vertices in a few bytes, and a
# sparse6 reader builds the graph before the payload says how many it uses
MAX_VERTICES = 258047


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative size")
    if n <= 62:
        return bytes([n + 63])
    if n <= MAX_VERTICES:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    raise ValueError(f"{n} vertices is above the graph6/sparse6 limit {MAX_VERTICES}")


def _decode_size(data: bytes, pos: int) -> tuple[int, int]:
    """The vertex count in the size header at ``pos``, and the position after
    it: one byte, or 126 then 3 bytes, or 126 126 then 6 bytes. The count
    must lie in 1..``MAX_VERTICES``."""
    if pos >= len(data):
        raise ParseError(f"byte {pos}: truncated size header")
    if data[pos] != 126:
        skip, width = 0, 1
    elif data[pos + 1 : pos + 2] == b"~":
        skip, width = 2, 8
    else:
        skip, width = 1, 4
    if pos + width > len(data):
        raise ParseError(f"byte {pos}: truncated {width}-byte size header")
    n = 0
    for c in _check_payload(data[: pos + width], pos)[skip:]:
        n = (n << 6) | int(c)
    if not 1 <= n <= MAX_VERTICES:
        raise ParseError(
            f"byte {pos}: size header gives {n} vertices, outside 1..{MAX_VERTICES}"
        )
    return n, pos + width


def _check_payload(data: bytes, start: int) -> np.ndarray:
    """The payload from ``start`` on as 6-bit values, after checking that
    every byte is a graph6 character."""
    raw = np.frombuffer(data, dtype=np.uint8)[start:]
    bad = np.flatnonzero((raw < 63) | (raw > 126))
    if bad.size:
        i = start + int(bad[0])
        raise ParseError(f"byte {i}: value {data[i]} outside graph6 range")
    return raw - 63


def _payload_bits(values: np.ndarray) -> np.ndarray:
    """The bits of 6-bit values, most significant first."""
    return np.unpackbits(values.reshape(-1, 1), axis=1)[:, 2:].ravel()


def _column_starts(n: int) -> np.ndarray:
    """Bit index of (0, j) for each column j of the graph6 upper triangle,
    which lists (i, j) for i < j column by column."""
    j = np.arange(n, dtype=_INT)
    return j * (j - 1) // 2


def write_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (no optional header, no newline)."""
    n = g.n
    # checked before the n(n-1)/2 payload bits are allocated
    header = _encode_size(n)
    sources = g.arc_sources()
    upper = sources < g.indices
    bits = np.zeros(-(-n * (n - 1) // 12) * 6, dtype=np.uint8)
    bits[_column_starts(n)[g.indices[upper]] + sources[upper]] = 1
    values = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return header + (values + 63).tobytes()


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
    values = _check_payload(data, pos)
    need = (n * (n - 1) // 2 + 5) // 6
    if values.size < need:
        raise ParseError(
            f"byte {len(data)}: truncated payload, need {need} bytes after header"
        )
    if n == 1:  # no edges
        return Graph(1, ())
    idx = np.flatnonzero(_payload_bits(values[:need])[: n * (n - 1) // 2])
    starts = _column_starts(n)
    j = np.searchsorted(starts, idx, side="right") - 1
    return Graph(n, np.column_stack((idx - starts[j], j)))


def write_sparse6(g: Graph) -> bytes:
    """Canonical sparse6 encoding (':' prefix, no newline)."""
    n = g.n
    k = max(1, (n - 1).bit_length())
    bits = []

    def record(flag: int, x: int) -> None:
        bits.append(flag)
        bits.extend((x >> t) & 1 for t in range(k - 1, -1, -1))

    v = 0
    for (b, a) in sorted((max(u, w), min(u, w)) for u, w in g.edges()):
        if b == v:
            record(0, a)
        elif b == v + 1:
            v += 1
            record(1, a)
        else:
            v = b
            record(1, b)
            record(0, a)
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
    bits = _payload_bits(_check_payload(data, pos)).astype(_INT)
    k = max(1, (n - 1).bit_length())
    # records of one bit b and a k-bit vertex x, read while a whole one fits
    count = max(0, -(-(bits.size - k) // (k + 1)))
    records = bits[: count * (k + 1)].reshape(count, k + 1)
    b = records[:, 0]
    x = records[:, 1:] @ (np.int64(1) << np.arange(k - 1, -1, -1, dtype=_INT))
    # the current vertex v: a record adds b to it, then moves it up to x if
    # x is larger (v_t = max(v_{t-1} + b_t, x_t), v_{-1} = 0), so
    # v_t = B_t + max(0, max_{s <= t}(x_s - B_s)) with B the prefix sums of b
    cum_b = np.cumsum(b)
    v = cum_b + np.maximum(np.maximum.accumulate(x - cum_b), 0)
    w = np.concatenate(([0], v))[:-1] + b  # v_{t-1} + b_t, tested before the move
    stop = np.flatnonzero((x >= n) | (w >= n))
    end = int(stop[0]) if stop.size else count
    edge = x[:end] <= w[:end]
    x, w = x[:end][edge], w[:end][edge]
    loops = np.flatnonzero(x == w)
    if loops.size:
        raise ParseError(f"loop at vertex {int(x[loops[0]])}")
    return Graph(n, np.column_stack((x, w)))


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


# keywords the validator checks; the two annotations it skips; any other
# keyword in a schema is an error, so a schema edit cannot slip past unchecked
_SCHEMA_KEYWORDS = frozenset(
    {"type", "required", "properties", "additionalProperties", "enum",
     "minimum", "pattern", "items"}
)
_SCHEMA_ANNOTATIONS = frozenset({"$schema", "title"})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON types of parsed JSON values; as in JSON Schema draft 6 and later, a
# float with an integral value is an integer
_JSON_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "number": _is_number,
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _check_schema(schema: dict) -> None:
    """Raise ValueError if ``schema`` or a subschema uses a keyword the
    validator does not implement."""
    unknown = schema.keys() - _SCHEMA_KEYWORDS - _SCHEMA_ANNOTATIONS
    if unknown:
        raise ValueError(f"unsupported schema keyword(s): {sorted(unknown)}")
    if not isinstance(schema.get("additionalProperties", False), bool):
        raise ValueError("unsupported schema: additionalProperties must be true or false")
    subschemas = list(schema.get("properties", {}).values())
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        _check_schema(sub)


def _schema_error(value, schema: dict, path: str) -> str | None:
    """The first way ``value`` breaks ``schema``, as a message, or None."""
    where = f"at {path}: " if path else ""
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_JSON_TYPES[t](value) for t in types):
            return f"{where}{value!r} is not of type {', '.join(map(repr, types))}"
    if "enum" in schema:
        # JSON equality: true and 1 differ
        if not any(
            value == e and isinstance(value, bool) == isinstance(e, bool)
            for e in schema["enum"]
        ):
            return f"{where}{value!r} is not one of {schema['enum']!r}"
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        return f"{where}{value!r} is less than the minimum of {schema['minimum']!r}"
    if "pattern" in schema and isinstance(value, str):
        if not re.search(schema["pattern"], value):
            return f"{where}{value!r} does not match {schema['pattern']!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{where}{key!r} is a required property"
        props = schema.get("properties", {})
        extra = sorted(k for k in value if k not in props)
        if extra and schema.get("additionalProperties") is False:
            return f"{where}additional properties {extra} are not allowed"
        for key in (k for k in props if k in value):
            err = _schema_error(value[key], props[key], f"{path}.{key}" if path else key)
            if err is not None:
                return err
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            err = _schema_error(item, schema["items"], f"{path}[{i}]")
            if err is not None:
                return err
    return None


def validate_document(doc, schema: dict) -> None:
    """Raise ParseError unless ``doc`` (parsed JSON) satisfies ``schema``.

    Accepts and rejects as ``jsonschema.validate`` does, for schemas that use
    only the keywords in ``_SCHEMA_KEYWORDS``; any other keyword raises
    ValueError."""
    _check_schema(schema)
    err = _schema_error(doc, schema, "")
    if err is not None:
        raise ParseError(f"certificate document: {err}")


def parse_certificate_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    validate_document(doc, certificate_schema())
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
