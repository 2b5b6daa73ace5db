"""The two graph file formats: one numpy tokenizer, the parsers, the writers.

Graph files are ASCII. Both parsers read the raw bytes through ``_Tokens``,
whose token and line boundaries are those of ``str.split`` and
``str.splitlines``, and check the line structure on its arrays; every
error names the line, column or row that reading the file line by line in
Python would. They hand the edge keys u * m + w to ``graph_core._from_keys``,
so a parsed graph holds D only. Each parse logs one DEBUG record on the
``girthspec`` logger.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from .errors import ParseError
from .graph_core import BipartiteGraph, _from_keys, neighbor_lists

__all__ = ["parse_edge_list", "write_edge_list", "parse_alist", "write_alist"]

log = logging.getLogger("girthspec")


def _char_class(point: int) -> int:
    """For an ASCII code: 3 for a line break of str.splitlines (all are
    whitespace), 2 for other whitespace of str.split, 1 for a digit, else 0."""
    char = chr(point)
    if len(f"a{char}b".splitlines()) == 2:
        return 3
    return 2 if char.isspace() else int("0" <= char <= "9")


_CHAR_CLASS = np.array([_char_class(c) for c in range(128)], dtype=np.uint8)
_INT32, _INT64 = np.iinfo(np.int32), np.iinfo(np.int64)
_FAST_DIGITS = 18  # longest digit run the multiply-add passes read; int64


class _Tokens:
    """The whitespace-separated tokens of an ASCII graph file, as integers.

    Token and line boundaries are those of ``str.split`` and
    ``str.splitlines`` (``\\r\\n`` is one break). With ``comments``, each
    ``#`` and the rest of its line are whitespace. The input is read as its
    bytes, a str UTF-8 encoded first, so per-character arrays stay uint8
    and bool; a byte above 0x7f is a ParseError naming the line
    ``str.splitlines`` puts it on. Tokens of the form ``[+-]?[0-9]+`` of
    at most 18 digits are read by vectorised multiply-add passes; ``int``
    reads every other token, so it accepts exactly what ``int`` accepts.

    ``values`` are int64, those beyond its range saturated (``value(i)``
    is exact). ``first`` and ``sizes`` give the first token and the token
    count of each non-blank line, ``lines`` the 0-based physical line of
    each token. ``bad`` is the first token ``int`` refuses, ``error`` its
    ValueError, both None when there is none.
    """

    def __init__(self, data, comments: bool) -> None:
        data = (data.encode("utf-8", "surrogatepass") if isinstance(data, str)
                else bytes(data))
        codes = np.frombuffer(data, dtype=np.uint8)
        if not data.isascii():
            at = int(np.argmax(codes > 0x7f))
            line = len((data[:at].decode() + "x").splitlines())
            raise ParseError(f"line {line}: byte {data[at]:#04x} is not ASCII")
        classes = _CHAR_CLASS.take(codes)
        self._source = data
        breaks = np.flatnonzero(classes == 3)
        if comments:
            hashes = np.flatnonzero(codes == ord("#"))
            if hashes.size:
                # from each line's first '#' to its break, marked as +1 at
                # the start and -1 at the end of each stretch, summed
                stop = np.append(breaks, len(codes))[np.searchsorted(breaks, hashes)]
                opens = np.flatnonzero(np.diff(stop, prepend=-1))
                depth = np.zeros(len(codes) + 1, dtype=np.int8)
                depth[hashes[opens]] = 1
                depth[stop[opens]] = -1
                classes[np.cumsum(depth[:-1], dtype=np.int8).view(bool)] = 2
        # a token starts and ends where the run of token characters flips
        solid = np.zeros(len(codes) + 2, dtype=bool)
        np.less(classes, 2, out=solid[1:-1])
        flips = np.flatnonzero(solid[1:] != solid[:-1])
        starts, ends = flips[::2], flips[1::2]
        # a token's line counts the breaks before it, \r\n counted once
        crlf = (codes[breaks] == ord("\n")) & (codes[breaks - 1] == ord("\r"))
        breaks = breaks[~(crlf & (breaks > 0))]
        gaps = np.bincount(np.searchsorted(starts, breaks),
                           minlength=len(starts) + 1)[:-1]
        self.lines = np.cumsum(gaps)
        gaps[:1] = 1  # a token after a break, or the first, opens a line
        self.first = np.flatnonzero(gaps)
        self.sizes = np.diff(np.append(self.first, len(starts)))

        # digits per token; a lone leading sign is read, any other
        # character in a token leaves it to int()
        length = ends - starts
        digits = length.copy()
        slow = np.zeros(len(starts), dtype=bool)
        minus = np.zeros(0, dtype=np.intp)
        odd = np.flatnonzero(classes == 0)
        if odd.size:
            owner = np.searchsorted(starts, odd, side="right") - 1
            char = codes[odd]
            signed = ((odd == starts[owner]) & (length[owner] > 1)
                      & ((char == ord("+")) | (char == ord("-"))))
            slow[owner[~signed]] = True
            digits[owner[signed]] -= 1
            minus = owner[signed & (char == ord("-"))]
        slow |= digits > _FAST_DIGITS
        # row k of `place` holds each token's digit k places before its
        # last, 0 before its first; Horner's rule sums the rows
        width = int(digits[~slow].max(initial=1))
        at = ends - np.arange(width, 0, -1)[:, None]
        place = codes.take(at, mode="clip")
        place -= ord("0")
        place[at < ends - digits] = 0
        values = place[0].astype(np.int64)
        for row in place[1:]:
            values *= 10
            values += row
        values[minus] *= -1

        self.bad: int | None = None
        self.error: ValueError | None = None
        self._wide: dict[int, int] = {}
        for i in np.flatnonzero(slow).tolist():
            try:
                value = int(data[starts[i]:ends[i]])
            except ValueError as exc:
                if self.bad is None:
                    self.bad, self.error = i, exc
                continue
            values[i] = min(max(value, _INT64.min), _INT64.max)
            if values[i] != value:
                self._wide[i] = value
        self.values = values

    def value(self, i: int) -> int:
        """Token ``i`` as an exact Python integer."""
        return self._wide.get(i, int(self.values[i]))

    def lineno(self, row: int) -> int:
        """The 1-based physical line number of non-blank line ``row``."""
        return int(self.lines[self.first[row]]) + 1

    def raw(self, row: int) -> str:
        """The text of non-blank line ``row``, comment included."""
        return self._source.decode().splitlines()[self.lineno(row) - 1]


def parse_edge_list(text) -> BipartiteGraph:
    """Parse the plain edge-list format, given as bytes or ASCII text.

    First meaningful line is ``n m``; each following line is ``u w`` with
    0-based indices. ``#`` starts a comment; blank lines are skipped.
    Duplicate edges collapse to one with a warning. The graph holds D
    only; its ``edges`` are read off D.
    """
    toks = _Tokens(text, comments=True)
    rows = len(toks.first)
    if not rows:
        raise ParseError("empty input: missing 'n m' header line")
    # lines before `stop` hold two integers each
    miscounted = np.flatnonzero(toks.sizes != 2)
    stop = int(miscounted[0]) if miscounted.size else rows
    if toks.bad is not None:
        stop = min(stop, int(np.searchsorted(toks.first, toks.bad, "right")) - 1)
    if stop:
        n, m = toks.value(0), toks.value(1)
        if n <= 0 or m <= 0:
            raise ParseError(f"line {toks.lineno(0)}: node counts must be positive")
        if max(n, m) > _INT32.max:
            raise ParseError(f"line {toks.lineno(0)}: node counts above "
                             f"{_INT32.max} do not fit the int32 indices of D")
        u, w = toks.values[2:2 * stop:2], toks.values[3:2 * stop:2]
        out = np.flatnonzero((u < 0) | (u >= n) | (w < 0) | (w >= m))
        if out.size:
            row = int(out[0]) + 1
            raise ParseError(f"line {toks.lineno(row)}: edge ({toks.value(2 * row)}, "
                             f"{toks.value(2 * row + 1)}) out of range")
    if stop < rows:
        lineno, raw = toks.lineno(stop), toks.raw(stop)
        if miscounted.size and miscounted[0] == stop:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        raise ParseError(f"line {lineno}: non-integer token in {raw!r}") \
            from toks.error
    g = _from_keys(n, m, u * m + w)
    dup = len(u) - g.edge_count
    if dup:
        warnings.warn(f"collapsed {dup} duplicate edge line(s)", stacklevel=2)
    log.debug("parse format=%s n=%d m=%d edges=%d duplicates=%d",
              "edgelist", n, m, g.edge_count, dup)
    return g


def write_edge_list(g: BipartiteGraph) -> str:
    lines = [f"{g.left_count} {g.right_count}"]
    for u, nbrs in enumerate(neighbor_lists(g)):
        lines.extend(f"{u} {w}" for w in nbrs)
    return "\n".join(lines) + "\n"


def parse_alist(text) -> BipartiteGraph:
    """Parse the alist interchange format (1-indexed, zero padding allowed),
    given as bytes or ASCII text.

    The alist's column (variable) side becomes the left side ``U``. Every
    edge must be listed on both sides. The graph holds D only.
    """
    toks = _Tokens(text, comments=False)
    if toks.bad is not None:
        raise ParseError("alist contains a non-integer token") from toks.error
    sizes = toks.sizes
    if len(sizes) < 4:
        raise ParseError("alist too short: need header, max-degrees, two degree rows")
    if sizes[0] != 2 or sizes[1] != 2:
        raise ParseError("alist header lines must contain exactly two integers")
    n, m = toks.value(0), toks.value(1)
    if n <= 0 or m <= 0:
        raise ParseError("alist node counts must be positive")
    max_col, max_row = toks.value(2), toks.value(3)
    if len(sizes) != 4 + n + m:
        raise ParseError(f"alist should have {4 + n + m} lines, found {len(sizes)}")
    if sizes[2] != n or sizes[3] != m:
        raise ParseError("degree rows do not match the declared node counts")
    degree = toks.values[4:4 + n + m]  # the column degrees, then the row degrees
    if degree[:n].max() > max_col or degree[n:].max() > max_row:
        raise ParseError("declared maximum degree exceeded in a degree row")

    # the listed neighbours, zero padding dropped: `side` is the column u
    # for u < n and the row side - n above, so the columns come first
    entries = np.flatnonzero(toks.values[toks.first[4]:])
    side = np.repeat(np.arange(n + m), sizes[4:])[entries]
    at = toks.first[4] + entries  # token index of each neighbour
    nbr = toks.values[at]
    counted = np.bincount(side, minlength=n + m)
    miscounted = np.flatnonzero(counted != degree)
    outside = (nbr < 1) | (nbr > np.where(side < n, m, n))
    cols = int(np.searchsorted(side, n))

    bad = np.flatnonzero(outside[:cols])
    u_count = int(miscounted[0]) if miscounted.size else n + m
    u_range = int(side[bad[0]]) if bad.size else n
    if min(u_count, u_range) < n:
        if u_count <= u_range:
            raise ParseError(f"column {u_count + 1}: {counted[u_count]} neighbors "
                             f"listed, degree header says {toks.value(4 + u_count)}")
        raise ParseError(f"column {u_range + 1}: row index "
                         f"{toks.value(int(at[bad[0]]))} out of range")

    # the reverse lookup, in transposed keys w * n + u: the row side lists
    # them in row order, nearly ascending, which searchsorted walks fast
    col_keys = np.sort((nbr[:cols] - 1) * n + side[:cols])
    row_keys = (side[cols:] - n) * n + nbr[cols:] - 1
    # one past the last column key reads -1, which no row key in range equals
    found = np.append(col_keys, -1)[np.searchsorted(col_keys, row_keys)] == row_keys
    bad = cols + np.flatnonzero(outside[cols:] | ~found)
    miscounted = miscounted[miscounted >= n]
    w_count = int(miscounted[0]) if miscounted.size else n + m
    w_bad = int(side[bad[0]]) if bad.size else n + m
    if min(w_count, w_bad) < n + m:
        w = min(w_count, w_bad)
        if w_count <= w_bad:
            raise ParseError(f"row {w - n + 1}: {counted[w]} neighbors listed, "
                             f"degree header says {toks.value(4 + w)}")
        u = toks.value(int(at[bad[0]]))
        if outside[bad[0]]:
            raise ParseError(f"row {w - n + 1}: column index {u} out of range")
        raise ParseError(f"row {w - n + 1} lists column {u} but the column "
                         "side does not list the reverse")
    g = _from_keys(n, m, side[:cols] * m + nbr[:cols] - 1)
    if g.edge_count != degree[:n].sum():
        raise ParseError("column degree total disagrees with the edge set")
    if g.edge_count != degree[n:].sum():
        raise ParseError("row degree total disagrees with the edge set")
    log.debug("parse format=%s n=%d m=%d edges=%d duplicates=%d",
              "alist", n, m, g.edge_count, 0)
    return g


def write_alist(g: BipartiteGraph) -> str:
    col_adj = [[w + 1 for w in nbrs] for nbrs in neighbor_lists(g)]
    row_adj = [[u + 1 for u in nbrs] for nbrs in neighbor_lists(g.transpose)]
    max_col = max((len(a) for a in col_adj), default=0)
    max_row = max((len(a) for a in row_adj), default=0)
    lines = [
        f"{g.left_count} {g.right_count}",
        f"{max_col} {max_row}",
        " ".join(str(len(a)) for a in col_adj),
        " ".join(str(len(a)) for a in row_adj),
    ]
    for a in col_adj:
        lines.append(" ".join(str(x) for x in a + [0] * (max_col - len(a))) or "0")
    for a in row_adj:
        lines.append(" ".join(str(x) for x in a + [0] * (max_row - len(a))) or "0")
    return "\n".join(lines) + "\n"
