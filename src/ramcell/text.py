"""Text tables laid out in a few numpy passes, byte for byte what `%` writes.

A row is its pieces in order: a str; a pair (texts, which) that writes
texts[which[i]] in row i, an empty text blanking the piece; or Cells.  A
number cell is '%d' % i or '%.{d}f' % x, d = 3 or 6.  `%` prints the exact
double times 10**d rounded half to even (CPython's dtoa is correctly
rounded): rint(p) of p = |x| * 10**d, except at a tie of p, where Dekker's
exact product p + e says on which side the exact value lies.  The digits
go as 3-digit uint32 words, blank bytes 0, into one record a row, and one
`bytes.translate` drops the blanks.  A piece holding a value of 2**52 /
10**d or more in magnitude, or one not finite, is formatted with `%`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# cells a pass: float64 temporaries above 64 KB ran up to 3x slower a value
CHUNK = 8192


def _spell(fmt: str, groups) -> bytes:
    return "".join(map(fmt.format, groups)).replace(" ", "\0").encode()


# 3-digit words by index: 0 a group after the first, 1000 (2000 when
# negative) the units as the first group, 3000 (4000) a higher group as
# the first, blank at 0, and 5000 the first decimals
_SIGNED = ["-" + str(g) for g in range(1000)]
_WORDS = np.frombuffer(b"".join((
    _spell(" {:03d}", range(1000)), _spell("{:4d}", range(1000)), _spell("{:>4}", _SIGNED),
    bytes(4), _spell("{:4d}", range(1, 1000)), bytes(4), _spell("{:>4}", _SIGNED[1:]),
    _spell(".{:03d}", range(1000)))), np.uint32)


class Cells(NamedTuple):
    """Columns of numbers, (n,) or (n, c), each cell after its column's
    prefix (one str for all), at 3 or 6 decimals, or 0 for integers."""
    values: np.ndarray
    decimals: int = 0
    prefix: str | tuple[str, ...] = ""


def _packed(texts) -> np.ndarray:
    """ASCII texts, an array of any shape, as zero-padded uint32 words."""
    raw = np.array(texts, dtype="S")
    return raw.astype(f"S{-(-raw.itemsize // 4) * 4}")[..., None].view(np.uint32)


def _numbers(values: np.ndarray, decimals: int, prefix=("",)) -> np.ndarray | None:
    """The (n, c, words) words of the (n, c) values, each column's after
    its prefix, or None where `%` must format them.  q / 1000.0 truncates
    to q // 1000 for integers 0 <= q < 2**53."""
    prefix = _packed(prefix) if any(prefix) else np.empty((1, 0), np.uint32)
    scale = 10.0 ** decimals
    with np.errstate(over="ignore"):  # past 2**52 anyway
        p = values * scale  # exact for integers below 2**53
    sign = np.where(np.signbit(p), 1000, 0)
    p = np.abs(p)
    if not p.max(initial=0.0) < 2.0 ** 52:
        return None
    r = np.rint(p)
    tie = np.abs(p - r) == 0.5
    if tie.any():  # x = hi + lo in 26-bit halves, so p + e == x * scale
        x, p = np.abs(values[tie]), p[tie]
        hi = x * (2.0 ** 27 + 1.0)
        hi -= hi - x
        e = (hi * scale - p) + (x - hi) * scale
        r[tie] = np.where(e == 0.0, r[tie], p + np.copysign(0.5, e))
    q, units = r.astype(np.intp), decimals // 3
    top = max(units, units + (len(str(q.max(initial=0))) - decimals - 1) // 3)
    words = np.empty((*values.shape, prefix.shape[1] + top + 1), np.uint32)
    words[..., :prefix.shape[1]] = prefix
    for k in range(top + 1):  # from the last group up
        upper = (q / 1000.0).astype(np.intp) if k < top else 0
        index = q - upper * 1000
        if k >= units:  # a number starts at its first group below 1000
            lead = sign + (1000 if k == units else 3000)
            index += lead if k == top else np.where(q < 1000, lead, 0)
        elif k == units - 1:
            index += 5000
        words[..., words.shape[2] - 1 - k] = _WORDS[index]
        q = upper
    return words


def _block(piece, at: slice, n: int) -> np.ndarray:
    """The (n, words) words of a piece in its n rows at."""
    if not isinstance(piece, Cells):
        texts, which = ((piece,), 0) if isinstance(piece, str) else (piece[0], piece[1][at])
        return _packed(list(texts))[np.broadcast_to(which, n).astype(np.intp)]
    values = piece.values[at].reshape(n, -1)
    prefix = np.broadcast_to(piece.prefix, values.shape[1:]).tolist()
    words = _numbers(values, piece.decimals, prefix)
    if words is None:
        fmt = f"%.{piece.decimals}f" if values.dtype.kind == "f" else "%d"
        words = _packed([[p + fmt % v for p, v in zip(prefix, row)] for row in values.tolist()])
    return words.reshape(n, -1)


def rows(*pieces) -> str:
    """The text of the rows of pieces, CHUNK cells at a time."""
    cells = [p.values for p in pieces if isinstance(p, Cells)]
    n = len(cells[0])
    step = max(1, CHUNK * n // max(1, *(v.size for v in cells)))
    text = []
    for i in range(0, n, step):
        record = np.hstack([_block(p, slice(i, i + step), min(step, n - i)) for p in pieces])
        text.append(record.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)
