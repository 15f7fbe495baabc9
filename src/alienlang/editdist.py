"""Levenshtein distance over byte strings, batched.

``levenshtein_batch`` runs Myers' bit-vector algorithm in its edit-distance
form (Myers 1999, J. ACM 46(3); Hyyrö 2003) on a whole batch at once.  Each
pair keeps one ``uint64`` state whose bits stand for the bytes of its shorter
string, and one numpy step consumes one byte of every pair's longer string.
Pairs whose shorter string is longer than 64 bytes take the plain two-row DP.
The scalar entry points are batches of one.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # there is one lane; kept for callers that record it

_WORD = 64
# Multiplying a word of eight 0/1 bytes by _GATHER puts byte k at bit 56 + k
# with no carries, so ``>> 56`` packs the bytes into one byte of bits.
_GATHER = np.uint64(0x0102040810204080)
_BYTE_SHIFT = np.uint64(56)
# Pairs per kernel pass; bounds the padded byte matrices and the step arrays.
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


def _bit_parallel(left: list[bytes], right: list[bytes]) -> np.ndarray:
    """Distances for pairs whose shorter side has 1 to 64 bytes.

    Both sides are NUL-padded into one byte matrix each, and the shorter side
    of each pair is the pattern.  A padding byte can only set pattern bits at
    or above the pattern's length, and carries move bits upward only, so those
    bits never reach the score bit ``m - 1``; steps past the end of a pair's
    text are masked out of its score by ``live``.
    """
    la = np.fromiter(map(len, left), np.int64, len(left))
    lb = np.fromiter(map(len, right), np.int64, len(right))
    m, n = np.minimum(la, lb), np.maximum(la, lb)
    pw = -(-int(m.max()) // 8) * 8
    width = max(pw, int(n.max()))
    a = np.frombuffer(b"".join([s.ljust(width, b"\0") for s in left]), np.uint8)
    b = np.frombuffer(b"".join([s.ljust(width, b"\0") for s in right]), np.uint8)
    a, b = a.reshape(-1, width), b.reshape(-1, width)
    swap = (la > lb)[:, None]
    txt = np.where(swap, a, b)
    # pat[w, p] holds pattern bytes 8w .. 8w+7 of pair p, so one comparison
    # gives each pair's match bits for a text byte as eight-byte words.
    pat = np.where(swap, b[:, :pw], a[:, :pw]).reshape(-1, pw // 8, 8).transpose(1, 0, 2).copy()
    shifts = np.arange(0, pw, 8, dtype=np.uint64)[:, None]
    one = np.uint64(1)
    top = m.astype(np.uint64) - one
    pv = np.full(len(left), ~np.uint64(0))
    mv = np.zeros(len(left), dtype=np.uint64)
    score = m.astype(np.uint64)
    for j in range(int(n.max())):
        hits = (pat == txt[:, j, None]).view("<u8")[..., 0]  # one 0/1 byte per position
        eq = np.bitwise_or.reduce((hits * _GATHER) >> _BYTE_SHIFT << shifts, axis=0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        live = j < n
        score += (ph >> top) & one & live
        score -= (mh >> top) & one & live
        ph = (ph << one) | one  # row 0 of the DP is D[0][j] = j: +1 per text byte
        mh <<= one
        pv = mh | ~(xv | ph)
        mv = ph & xv
    return score


def _distances(left: list[bytes], right: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Levenshtein distance and longer length of each pair, both int32."""
    if len(left) != len(right):
        raise ValueError("paired batches must have equal length")
    la = np.fromiter(map(len, left), np.int32, len(left))
    lb = np.fromiter(map(len, right), np.int32, len(right))
    longer = np.maximum(la, lb)
    short = np.minimum(la, lb)
    # A build passes every candidate pair at once; dropping index arrays as
    # soon as they are spent keeps the transient peak near the result's size.
    del la, lb
    out = longer.copy()  # already final where one side is empty
    for i in np.flatnonzero(short > _WORD).tolist():
        out[i] = _dp(left[i], right[i])
    todo = np.flatnonzero((short > 0) & (short <= _WORD))
    del short
    # Chunks of similar length step only as often as their longest string.
    todo = todo[np.argsort(longer[todo])]
    for lo in range(0, len(todo), _CHUNK):
        sel = todo[lo : lo + _CHUNK]
        idx = sel.tolist()
        out[sel] = _bit_parallel([left[i] for i in idx], [right[i] for i in idx])
    return out, longer


def levenshtein_batch(left: list[bytes], right: list[bytes]) -> np.ndarray:
    """Levenshtein distance of each pair ``(left[i], right[i])`` as int32."""
    return _distances(left, right)[0]


def levenshtein(a: bytes, b: bytes) -> int:
    """Levenshtein distance between two byte strings."""
    return int(levenshtein_batch([a], [b])[0])


def normalized_batch(left: list[bytes], right: list[bytes]) -> np.ndarray:
    """Levenshtein distance divided by the longer length; 0.0 for two empties."""
    dist, longer = _distances(left, right)
    raw = dist.astype(np.float64)
    np.divide(raw, longer, out=raw, where=longer > 0)
    return raw


def normalized_levenshtein(a: bytes, b: bytes) -> float:
    """Levenshtein distance divided by max(|a|, |b|); 0.0 for two empties."""
    return float(normalized_batch([a], [b])[0])
