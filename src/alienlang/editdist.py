"""Levenshtein distance over byte strings, batched.

``levenshtein_batch`` and ``normalized_batch`` score a batch of pairs, each
given as two indices into one list of ``surfaces``.  A key build scores
about k pairs per token but holds one surface per token, so all per-string
work is done once per surface:

* the bytes of every surface are mapped to a compact code (A is the number
  of distinct bytes present) and concatenated into one code array;
* one match-mask table of S × A ``uint64`` words holds, for surface s and
  code c, the bits i < 64 where byte i of s has code c (Myers 1999, J. ACM
  46(3)).  It takes S × A × 8 bytes, at most 2 KB per surface.

Myers' bit-vector algorithm in its edit-distance form (Hyyrö 2003) then runs
on a chunk of pairs at once.  Each pair keeps one ``uint64`` state whose bits
stand for the bytes of its shorter string, and one numpy step consumes one
byte of every pair's longer string: a single gather from the table gives the
match bits.  Pairs whose shorter string is longer than 64 bytes take the
plain two-row DP.  The scalar entry points are batches of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

BACKEND = "numpy"  # there is one lane; kept for callers that record it

_WORD = 64
# Pairs per kernel pass; bounds the step arrays and the pass's table index,
# which takes 8 bytes per pair and byte of the pass's longest text.
_CHUNK = 4096


def _dp(a: bytes, b: bytes) -> int:
    """Two-row dynamic programming, for pairs the bit kernel cannot hold."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


class _MatchTable:
    """Every surface's bytes as compact codes, and the match-mask table."""

    def __init__(self, surfaces: Sequence[bytes], lens: np.ndarray):
        flat = np.frombuffer(b"".join(surfaces), np.uint8)
        present = np.flatnonzero(np.bincount(flat, minlength=256))
        code = np.zeros(256, np.uint8)
        code[present] = np.arange(present.size)
        self.alphabet = present.size
        self.codes = code[flat]
        self.starts = np.cumsum(lens) - lens
        # peq[s * A + c] has bit i set where byte i of surface s has code c.
        # Only surfaces of at most 64 bytes can be a pattern.
        self.peq = np.zeros(len(surfaces) * self.alphabet, np.uint64)
        rows = np.flatnonzero((lens > 0) & (lens <= _WORD))
        for i in range(int(lens[rows].max(initial=0))):
            rows = rows[lens[rows] > i]
            bit = np.uint64(1) << np.uint64(i)
            self.peq[rows * self.alphabet + self.codes[self.starts[rows] + i]] |= bit

    def distances(self, pat: np.ndarray, txt: np.ndarray, m: np.ndarray, n: np.ndarray):
        """Distances for pairs whose shorter side has 1 to 64 bytes.

        ``pat`` and ``txt`` index the shorter (length ``m``) and the longer
        (length ``n``) surface of each pair.  Pattern bits at or above ``m``
        are never set, and carries move bits upward only, so the score bit
        ``m - 1`` sees the pattern alone.  ``n`` is ascending, so the pairs
        still consuming text at step j are a suffix; finished pairs are
        sliced off.
        """
        steps = np.arange(int(n[-1]))
        # look[j, p]: the table entry for text byte j of pair p.  Past a text's
        # end it reads an arbitrary in-range code; that pair has left by then.
        pos = self.starts[txt] + steps[:, None]
        np.minimum(pos, self.codes.size - 1, out=pos)
        look = self.codes[pos] + pat * self.alphabet
        del pos
        first = np.searchsorted(n, steps, side="right")
        one = np.uint64(1)
        top = (m - 1).astype(np.uint64)
        pv = np.full(len(pat), ~np.uint64(0))
        mv = np.zeros(len(pat), dtype=np.uint64)
        score = m.astype(np.uint64)
        lo = 0
        for j, start in enumerate(first.tolist()):
            if start > lo:
                pv, mv, top = pv[start - lo :], mv[start - lo :], top[start - lo :]
                lo = start
            eq = self.peq[look[j, lo:]]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            live = score[lo:]
            live += (ph >> top) & one
            live -= (mh >> top) & one
            ph = (ph << one) | one  # row 0 of the DP is D[0][j] = j: +1 per text byte
            mh <<= one
            pv = mh | ~(xv | ph)
            mv = ph & xv
        return score


def _distances(left, right, surfaces: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Levenshtein distance and longer length of each pair, both int32."""
    if len(left) != len(right):
        raise ValueError("paired batches must have equal length")
    left = np.asarray(left, dtype=np.intp)
    right = np.asarray(right, dtype=np.intp)
    if left.size and (
        min(left.min(), right.min()) < 0 or max(left.max(), right.max()) >= len(surfaces)
    ):
        raise IndexError("surface index out of range")
    lens = np.fromiter(map(len, surfaces), np.int64, len(surfaces))
    # The shorter surface of each pair is its pattern, the longer its text.
    swap = lens[left] > lens[right]
    pat = np.where(swap, right, left)
    txt = np.where(swap, left, right)
    # A build passes every candidate pair at once; dropping arrays as soon as
    # they are spent keeps the transient peak near the result's size.
    del swap, left, right
    short = lens[pat].astype(np.int32)
    longer = lens[txt].astype(np.int32)
    out = longer.copy()  # already final where one side is empty
    for i in np.flatnonzero(short > _WORD).tolist():
        out[i] = _dp(surfaces[pat[i]], surfaces[txt[i]])
    todo = np.flatnonzero((short > 0) & (short <= _WORD))
    if todo.size:
        table = _MatchTable(surfaces, lens)
        # Chunks of similar length step only as often as their longest text.
        todo = todo[np.argsort(longer[todo])]
        for lo in range(0, len(todo), _CHUNK):
            sel = todo[lo : lo + _CHUNK]
            out[sel] = table.distances(pat[sel], txt[sel], short[sel], longer[sel])
    return out, longer


def levenshtein_batch(left, right, surfaces: Sequence[bytes]) -> np.ndarray:
    """Levenshtein distance of each pair ``(surfaces[left[i]], surfaces[right[i]])`` as int32."""
    return _distances(left, right, surfaces)[0]


def levenshtein(a: bytes, b: bytes) -> int:
    """Levenshtein distance between two byte strings."""
    return int(levenshtein_batch([0], [1], [a, b])[0])


def normalized_batch(left, right, surfaces: Sequence[bytes]) -> np.ndarray:
    """Distance divided by the longer length, 0.0 for two empties; pairs as in
    :func:`levenshtein_batch`."""
    dist, longer = _distances(left, right, surfaces)
    raw = dist.astype(np.float64)
    np.divide(raw, longer, out=raw, where=longer > 0)
    return raw


def normalized_levenshtein(a: bytes, b: bytes) -> float:
    """Levenshtein distance divided by max(|a|, |b|); 0.0 for two empties."""
    return float(normalized_batch([0], [1], [a, b])[0])
