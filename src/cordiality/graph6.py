"""graph6 and edge-list text encodings.

graph6 packs the upper triangle of the adjacency matrix column-major into
6-bit chunks, each offset by 63 into the printable range 63..126.  The
vertex count is a single byte n+63 for n <= 62, or '~' followed by three
6-bit chunks for n <= 258047.  Everything here is bit-exact and reversible.
"""

from __future__ import annotations

import re

from .graphs import MAX_VERTICES, Graph, GraphError, from_edges

_HEADER = ">>graph6<<"
_OFFSET = 63
_INVALID = re.compile("[^?-~]")  # any character outside 63..126
_DECODE = bytes((code - _OFFSET) & 0xFF for code in range(256))  # code -> code - 63


class Graph6Error(ValueError):
    """Malformed or oversized graph6 input; ``reason`` is the message without
    the byte position, ``offset`` the failing byte position, if any."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.reason = message
        self.offset = offset


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + _OFFSET)]
    elif n <= 258047:
        out = ["~", chr((n >> 12 & 63) + _OFFSET), chr((n >> 6 & 63) + _OFFSET), chr((n & 63) + _OFFSET)]
    else:
        raise GraphError("graphs this large are not supported")
    acc = 0
    nbits = 0
    for col in range(1, n):
        column = g.adj[col]
        for row in range(col):
            acc = acc << 1 | (column >> row & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + _OFFSET))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + _OFFSET))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """One graph6 line; a vertex count above ``MAX_VERTICES`` is refused
    before the bit vector is decoded."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 line", 0)
    bad = _INVALID.search(s)
    if bad:
        raise Graph6Error(f"invalid graph6 character {bad.group()!r}", bad.start())
    data = s.encode("ascii").translate(_DECODE)
    pos = 0
    if data[0] == 63:  # '~' prefix for the long vertex-count forms
        if len(data) >= 2 and data[1] == 63:
            raise Graph6Error("8-byte vertex counts exceed the supported range", 1)
        if len(data) < 4:
            raise Graph6Error("truncated vertex count", len(data))
        n = data[1] << 12 | data[2] << 6 | data[3]
        pos = 4
    else:
        n = data[0]
        pos = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph has {n} vertices, above the limit of {MAX_VERTICES}")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(data) - pos < need_bytes:
        raise Graph6Error(
            f"truncated bit vector: need {need_bytes} data bytes, got {len(data) - pos}",
            len(s),
        )
    if len(data) - pos > need_bytes:
        raise Graph6Error("trailing data after bit vector", pos + need_bytes)
    edges = []
    bit = 0
    for col in range(1, n):
        for row in range(col):
            chunk = data[pos + bit // 6]
            if chunk >> (5 - bit % 6) & 1:
                edges.append((row, col))
            bit += 1
    return from_edges(n, edges)


def parse_graph6_file(text: str) -> list[Graph]:
    """One graph per non-empty line."""
    graphs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            graphs.append(parse_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc.reason}", exc.offset) from exc
    return graphs


def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated "u v" pairs, 0-based, '#' starts a comment.

    The vertex count is inferred as max index + 1 (0 for an empty list).
    """
    pairs = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer endpoint in {raw!r}") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex index")
        pairs.append((u, v))
        top = max(top, u, v)
    return from_edges(top + 1, pairs)
