"""Levenshtein distance over byte strings, batched.

``levenshtein_batch`` and ``normalized_batch`` score a batch of pairs, each
given as two indices into one list of ``surfaces``.  A key build scores
about k pairs per token but holds one surface per token, so all per-string
work is done once per surface: a list of surfaces becomes a
:class:`Surfaces` on entry, and a caller that scores several batches against
the same strings passes one ``Surfaces`` to each.  It holds, built on first
use:

* the bytes of every surface as compact codes (A is the number of distinct
  bytes present), concatenated into one code array;
* one match-mask table of S × A ``uint64`` words holds, for surface s and
  code c, the bits i < 64 where byte i of s has code c (Myers 1999, J. ACM
  46(3)).  It takes S × A × 8 bytes, at most 2 KB per surface.

Myers' bit-vector algorithm in its edit-distance form (Hyyrö 2003),
:meth:`Surfaces.distances`, then runs on a pass of pairs at once.  Each pair
keeps one word of state whose bits stand for the bytes of its pattern, and
one numpy step consumes one byte of every pair's text: a single gather from
the table gives the match bits.  Levenshtein distance is symmetric, so the
pattern is a pair's longer string whenever that fits in 64 bits, and a pair
costs one step per byte of its shorter string.  Where only the shorter
string fits, it is the pattern and the longer one the text.  Pairs whose
strings both exceed 64 bytes take the plain two-row DP.  Pairs run in two
lanes, each ordered by text length: a longer string of at most 16 bytes in
``uint16`` words, so each step moves a quarter of the bytes, any other in
``uint64``.  The scalar entry points are batches of one.

An index is an int that is not a bool, a numpy integer, or an element of an
integer array; a surface is ``bytes``.  Anything else raises
:class:`ArgumentError`, an index outside the surfaces raises ``IndexError``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ArgumentError

BACKEND = "numpy"  # the only backend; kept for callers that record it

_WORD = 64
# _NARROW and _CHUNK are kernel tuning constants set by measurement, not memory
# bounds.  Medians of 12 alternating builds of perfbench's 4K-token inputs
# (seed 1), two runs each, once a round scored only unpaired candidates:
# without the narrow lane the 16-bucket build took 39.0 against 36.4 ms (56.3
# against 53.0 in a slower run); passes of 2^20 entries took 39.1-42.2 against
# 37.4-38.8 ms (16 buckets) and 59.5-64.2 against 61.5-63.1 ms (flat, no
# clear difference).
# A pair whose longer string has at most this many bytes runs in the narrow
# lane, in uint16 words; every other pair runs in uint64 words.
_NARROW = 16
# Table-index entries per kernel pass, 8 bytes each: a pass takes as many
# pairs as fit with its longest text, so passes of short texts are long.
_CHUNK = 1 << 16


def _dp(a: bytes, b: bytes) -> int:
    """Two-row dynamic programming, for pairs the bit kernel cannot hold."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


class Surfaces:
    """A list of byte strings prepared for scoring: their lengths now, and their
    codes and match-mask table on first use.  A caller that scores several
    batches against the same strings passes one ``Surfaces`` to each."""

    def __init__(self, surfaces: Sequence[bytes]):
        if not {bytes}.issuperset(map(type, surfaces)):
            bad = next(s for s in surfaces if type(s) is not bytes)
            raise ArgumentError(f"surface {bad!r:.40} is {type(bad).__name__}, not bytes")
        self.strings = surfaces
        self.lens = np.fromiter(map(len, surfaces), np.int32, len(surfaces))

    def __len__(self) -> int:
        return len(self.strings)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, int, dict]:
        """The surfaces' bytes as compact codes, each surface's start in them,
        the alphabet size A, and the match-mask table in each lane's word type."""
        lens = self.lens
        flat = np.frombuffer(b"".join(self.strings), np.uint8)
        present = np.flatnonzero(np.bincount(flat, minlength=256))
        code = np.zeros(256, np.uint8)
        code[present] = np.arange(present.size)
        codes, starts, alphabet = code[flat], np.cumsum(lens) - lens, present.size
        # peq[s * A + c] has bit i set where byte i of surface s has code c.
        # Only surfaces of at most 64 bytes can be a pattern.
        peq = np.zeros(len(lens) * alphabet, np.uint64)
        rows = np.flatnonzero((lens > 0) & (lens <= _WORD))
        for i in range(int(lens[rows].max(initial=0))):
            rows = rows[lens[rows] > i]
            peq[rows * alphabet + codes[starts[rows] + i]] |= np.uint64(1) << np.uint64(i)
        # the low 16 bits hold every narrow-lane pattern
        return codes, starts, alphabet, {np.uint16: peq.astype(np.uint16), np.uint64: peq}

    def distances(self, pat: np.ndarray, txt: np.ndarray, m: np.ndarray, n: np.ndarray, word):
        """Distances for pairs whose pattern has 1 to 64 bytes and text at least 1.

        ``pat`` and ``txt`` index the pattern (length ``m``) and the text
        (length ``n``) surface of each pair; every pattern, and every score,
        fits in the unsigned integer type ``word``.  Pattern bits at or above
        ``m`` are never set, and carries move bits upward only, so the score
        bit ``m - 1`` sees the pattern alone.  ``n`` is ascending, so the
        pairs still consuming text at step j are a suffix; finished pairs are
        sliced off.
        """
        codes, starts, alphabet, peq_of = self._table
        peq = peq_of[word]
        steps = np.arange(int(n[-1]))
        # look[j, p]: the table entry for text byte j of pair p.  Past a text's
        # end it reads an arbitrary in-range code; that pair has left by then.
        pos = starts[txt] + steps[:, None]
        np.minimum(pos, codes.size - 1, out=pos)
        look = codes[pos] + pat * alphabet
        del pos
        first = np.searchsorted(n, steps, side="right")
        one = word(1)
        top = (m - 1).astype(word)
        pv = np.full(len(pat), ~word(0))
        mv = np.zeros(len(pat), dtype=word)
        score = m.astype(word)
        lo = 0
        for j, start in enumerate(first.tolist()):
            if start > lo:
                pv, mv, top = pv[start - lo :], mv[start - lo :], top[start - lo :]
                lo = start
            eq = peq[look[j, lo:]]
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


def _indices(side) -> np.ndarray:
    """One side of a batch as an intp array; a non-integer index raises ArgumentError."""
    if isinstance(side, np.ndarray):
        if side.dtype.kind not in "iu":
            raise ArgumentError(f"surface indices must be integers, not {side.dtype}")
    else:
        side = list(side)
        if not {int}.issuperset(map(type, side)):
            for value in side:
                if type(value) is not int and not isinstance(value, np.integer):
                    raise ArgumentError(f"surface index {value!r} is not an int")
    try:
        return np.asarray(side, dtype=np.intp)
    except OverflowError:
        raise IndexError("surface index out of range") from None


def _distances(left, right, surfaces) -> tuple[np.ndarray, np.ndarray]:
    """Levenshtein distance and longer length of each pair, both int32."""
    left, right = _indices(left), _indices(right)
    if left.shape != right.shape:
        raise ArgumentError("paired batches must have equal length")
    if not isinstance(surfaces, Surfaces):
        surfaces = Surfaces(surfaces)
    if left.size and (
        min(left.min(), right.min()) < 0 or max(left.max(), right.max()) >= len(surfaces)
    ):
        raise IndexError("surface index out of range")
    lens = surfaces.lens
    # The pattern is a pair's longer surface if it fits in a word, else its
    # shorter one; the text, the other surface, sets the number of steps.
    a, b = lens[left], lens[right]
    left_pat = np.where(np.maximum(a, b) <= _WORD, a >= b, a <= b)
    del a, b
    pat = np.where(left_pat, left, right)
    txt = np.where(left_pat, right, left)
    # A build passes every candidate pair at once; dropping arrays as soon as
    # they are spent keeps the transient peak near the result's size.
    del left_pat, left, right
    m, n = lens[pat], lens[txt]
    out = np.maximum(m, n)  # already final where one side is empty
    for i in np.flatnonzero(m > _WORD).tolist():  # both sides exceed a word
        out[i] = _dp(surfaces.strings[pat[i]], surfaces.strings[txt[i]])
    todo = np.flatnonzero((m <= _WORD) & (m > 0) & (n > 0))
    # Two lanes, each by text length: passes of similar length step only as
    # often as their longest text.
    todo = todo[np.argsort(n[todo])]
    narrow = out[todo] <= _NARROW  # out still holds each pending pair's longer length
    for lane, word in ((todo[narrow], np.uint16), (todo[~narrow], np.uint64)):
        lo = 0
        while lo < lane.size:
            # texts ascend, so sizing a pass by the longest text among as many
            # pairs as its shortest allows keeps it within _CHUNK entries
            end = min(lo + max(1, _CHUNK // int(n[lane[lo]])), lane.size)
            sel = lane[lo : min(lo + max(1, _CHUNK // int(n[lane[end - 1]])), lane.size)]
            out[sel] = surfaces.distances(pat[sel], txt[sel], m[sel], n[sel], word)
            lo += sel.size
    return out, np.maximum(m, n)


def levenshtein_batch(left, right, surfaces: Sequence[bytes] | Surfaces) -> np.ndarray:
    """Levenshtein distance of each pair ``(surfaces[left[i]], surfaces[right[i]])`` as int32."""
    return _distances(left, right, surfaces)[0]


def levenshtein(a: bytes, b: bytes) -> int:
    """Levenshtein distance between two byte strings."""
    return int(levenshtein_batch([0], [1], [a, b])[0])


def normalized_batch(left, right, surfaces: Sequence[bytes] | Surfaces) -> np.ndarray:
    """Distance divided by the longer length, 0.0 for two empties; pairs as in
    :func:`levenshtein_batch`."""
    dist, longer = _distances(left, right, surfaces)
    raw = dist.astype(np.float64)
    np.divide(raw, longer, out=raw, where=longer > 0)
    return raw


def normalized_levenshtein(a: bytes, b: bytes) -> float:
    """Levenshtein distance divided by max(|a|, |b|); 0.0 for two empties."""
    return float(normalized_batch([0], [1], [a, b])[0])
