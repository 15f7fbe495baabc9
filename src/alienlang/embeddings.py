"""Token embedding stores: loading, normalization, proxy synthesis, exact top-k.

Retrieval is exact top-k cosine via blocked dense inner products.  At the
vocabulary scales this toolkit targets (up to a few hundred thousand rows,
small d) exact retrieval is affordable and removes approximation as a
correctness variable; blocking is purely a memory optimization.

Selection works on 64-row slices of a similarity block: each query's own
cell is set to -inf, one ``argpartition`` takes the k + 1 largest values of
every row, and that small set is put in id order and stably sorted by
descending cosine.  Its first k entries are the answer unless its k-th and
(k + 1)-th values are equal: then ties may lie outside the set, and only
that row is re-chosen from its full row, keeping the lowest-id ties.  Every
row thus follows the (-cosine, ascending id) order of an exhaustive sort
whatever the block width, and no step reads a whole row a second time
except in a repaired row.
"""

from __future__ import annotations

import re
import struct
from array import array
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, CoverageError, DegenerateInputError, FormatError
from .fileio import atomic_write
from .vocab import DIGIT, Vocabulary, read_lines, reference_tokenize

_MAGIC = b"AEMB"
_VERSION = 1
_NORM_TOL = 1e-5
# A text file's header is two ids (n and d), and each row an id followed by
# numbers, each an optional sign, digits, an optional fraction and exponent.
_NUMBER = rf"[+-]?{DIGIT}+(?:\.{DIGIT}+)?(?:[eE][+-]?{DIGIT}+)?"
_HEADER = re.compile(rf"\s*{DIGIT}+\s+{DIGIT}+\s*", re.ASCII)
_ROW = re.compile(rf"\s*(?:{DIGIT}+(?:\s+{_NUMBER})*)?\s*", re.ASCII)
# Query rows per top-k selection: each selection holds int64 index arrays as
# large as its slice of the similarity block.
_SELECT_ROWS = 64


@dataclass(frozen=True)
class EmbeddingStore:
    """Dense per-token vectors, row-indexed by token_id.

    Rows are held as float64 internally regardless of the on-disk precision;
    the binary format stores little-endian float32.
    """

    rows: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise FormatError("embedding matrix must be 2-dimensional")
        if not np.isfinite(rows).all():
            raise FormatError("embedding matrix contains non-finite values")
        if self.normalized:
            norms = np.linalg.norm(rows, axis=1)
            if not np.allclose(norms, 1.0, atol=_NORM_TOL):
                raise FormatError("normalized flag set but rows are not unit length")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def row(self, token_id: int) -> np.ndarray:
        if not 0 <= token_id < self.n:
            raise CoverageError(f"no embedding row for token id {token_id}")
        return self.rows[token_id]


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load the binary ("AEMB") or word2vec-style text format."""
    path = Path(path)
    with open(path, "rb") as fp:
        head = fp.read(4)
    if head == _MAGIC:
        return _load_binary(path)
    return _load_text(path)


def _load_binary(path: Path) -> EmbeddingStore:
    data = path.read_bytes()
    if len(data) < 16:
        raise FormatError("binary embedding file truncated before header")
    magic, version, n, d = struct.unpack("<4sIII", data[:16])
    if magic != _MAGIC:
        raise FormatError("bad magic bytes")
    if version != _VERSION:
        raise FormatError(f"unsupported embedding format version {version}")
    expected = 16 + 4 * n * d
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes, file has {len(data)}")
    rows = np.frombuffer(data, dtype="<f4", offset=16).reshape(n, d)
    return EmbeddingStore(rows=rows.astype(np.float64))


def _load_text(path: Path) -> EmbeddingStore:
    with closing(read_lines(path)) as lines:
        _, header = next(lines, (1, ""))
        try:
            n, d = map(int, header.split() if _HEADER.fullmatch(header) else ())
        except ValueError:  # not two integers, or more digits than int() converts
            raise FormatError('line 1: not an "n d" header of ASCII decimal integers') from None
        # Rows are read before the matrix is allocated, so its size is bounded
        # by the file's contents rather than by what its header claims.
        ids: list[int] = []
        seen: set[int] = set()
        values = array("d")
        for lineno, line in lines:
            if not _ROW.fullmatch(line):
                raise FormatError(f"line {lineno}: not an id and values in ASCII decimal")
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise FormatError(f"line {lineno}: expected id plus {d} values")
            try:
                tid = int(parts[0])
            except ValueError:  # more digits than int() converts
                tid = n
            if tid >= n:
                raise FormatError(f"line {lineno}: token id {parts[0]} outside [0, {n})")
            if tid in seen:
                raise FormatError(f"line {lineno}: duplicate row for token id {tid}")
            seen.add(tid)
            ids.append(tid)
            values.extend(map(float, parts[1:]))
    if len(ids) != n:
        raise FormatError(f"line 1: header declares {n} rows but the file has {len(ids)}")
    rows = np.empty((n, d), dtype=np.float64)
    rows[ids] = np.frombuffer(values, dtype=np.float64).reshape(n, d)
    return EmbeddingStore(rows=rows)


def save_embeddings(store: EmbeddingStore, path: str | Path) -> None:
    """Write the binary ("AEMB") format; rows are stored as little-endian float32."""
    f32 = store.rows.astype("<f4")
    with atomic_write(path, "wb") as fp:
        fp.write(struct.pack("<4sIII", _MAGIC, _VERSION, store.n, store.d))
        fp.write(f32.tobytes())


def normalize(store: EmbeddingStore) -> EmbeddingStore:
    """Scale every row to unit L2 norm; zero rows are rejected."""
    norms = np.linalg.norm(store.rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"zero-norm embedding row(s): {zero[:5].tolist()}")
    return EmbeddingStore(rows=store.rows / norms[:, None], normalized=True)


def proxy_embed(
    token_string: bytes, proxy_vocab: Vocabulary, proxy_store: EmbeddingStore
) -> np.ndarray:
    """Represent a target token as the mean of its proxy subpiece vectors.

    Subpieces come from tokenizing the token's surface string under the proxy
    vocabulary, so neighborhoods can be computed without target-model access.
    """
    pieces = reference_tokenize(token_string, proxy_vocab)
    if len(pieces) == 0:
        raise CoverageError("empty token string has no subpieces")
    acc = np.zeros(proxy_store.d, dtype=np.float64)
    for tid in pieces:
        acc += proxy_store.row(tid)
    return acc / len(pieces)


def derive_proxy_store(
    target_vocab: Vocabulary, proxy_vocab: Vocabulary, proxy_store: EmbeddingStore
) -> EmbeddingStore:
    """Proxy-derived store covering every target token id (rows 0..max_id)."""
    max_id = max(target_vocab.id_to_token)
    rows = np.zeros((max_id + 1, proxy_store.d), dtype=np.float64)
    for tid, tok in target_vocab.id_to_token.items():
        rows[tid] = proxy_embed(tok, proxy_vocab, proxy_store)
    return EmbeddingStore(rows=rows)


def _by_descending_value(sims: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``cols`` and their values, by descending value; ties keep column order."""
    vals = np.take_along_axis(sims, cols, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _topk_rows(
    sims: np.ndarray, query_ids: np.ndarray, cand_ids: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``width`` of every row of a similarity block, (-sim, id) order.

    ``sims`` has one row per query and one column per ascending candidate id;
    it is modified in place (each query's own cell becomes -inf).  One
    ``argpartition`` takes the width + 1 largest values of each row, and only
    that small set is sorted.  Where its width-th and (width + 1)-th values
    differ, its first ``width`` entries are the answer.  Where they are equal,
    the partition may have kept a higher id than a tie it left out, so that
    row is re-chosen from all its values, ties at the cut going to the lowest
    ids as in an exhaustive sort.  Slots left holding -inf (the query itself,
    when width covers every candidate) come back as id -1.
    """
    rows, m = sims.shape
    pos = np.searchsorted(cand_ids, query_ids)
    hit = np.flatnonzero(cand_ids[np.minimum(pos, m - 1)] == query_ids)
    sims[hit, pos[hit]] = -np.inf
    if width < m:
        top = np.argpartition(sims, m - width - 1, axis=1)[:, m - width - 1 :]
        top.sort(axis=1)  # position order is id order
    else:
        top = np.broadcast_to(np.arange(m), (rows, m))
    chosen, vals = _by_descending_value(sims, top)
    if width < m:
        cut = np.flatnonzero(vals[:, width - 1] == vals[:, width])
        chosen, vals = chosen[:, :width], vals[:, :width]
        if cut.size:
            s, t = sims[cut], vals[cut, width - 1 :]
            tied = s == t
            need = width - (s > t).sum(axis=1, keepdims=True)
            keep = (s > t) | (tied & (np.cumsum(tied, axis=1) <= need))
            cols = np.nonzero(keep)[1].reshape(cut.size, width)
            chosen[cut], vals[cut] = _by_descending_value(s, cols)
    ids = cand_ids[chosen]
    ids[vals == -np.inf] = -1
    return ids, vals


def topk_cosine(
    store: EmbeddingStore,
    query_ids: Sequence[int],
    k: int,
    candidate_ids: Iterable[int],
    block: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched exact top-k over a shared candidate set.

    Returns (neighbor_ids, sims) of shape (len(query_ids), k'), where
    k' = min(k, usable candidates).  Each query is excluded from its own
    neighbor list.  Results are independent of the block width.  A query or
    candidate id without an embedding row raises :class:`CoverageError`.
    """
    if k <= 0:
        raise ArgumentError("k must be a positive integer")
    if not store.normalized:
        raise ArgumentError("topk_cosine requires a normalized store")
    cand = np.asarray(sorted(set(candidate_ids)), dtype=np.int64)
    queries = np.asarray(query_ids, dtype=np.int64)
    for what, ids in (("query", queries), ("candidate", cand)):
        outside = ids[(ids < 0) | (ids >= store.n)]
        if outside.size:
            raise CoverageError(f"no embedding row for {what} id {int(outside[0])}")
    width = min(k, cand.size)
    out_ids = np.full((queries.size, width), -1, dtype=np.int64)
    out_sims = np.full((queries.size, width), -np.inf, dtype=np.float64)
    if width == 0:
        return out_ids, out_sims
    cand_rows = store.rows[cand]
    block = max(1, block)
    for start in range(0, queries.size, block):
        stop = min(start + block, queries.size)
        sims_block = store.rows[queries[start:stop]] @ cand_rows.T
        # Rows select independently; slicing caps the selection's index arrays.
        for lo in range(start, stop, _SELECT_ROWS):
            hi = min(lo + _SELECT_ROWS, stop)
            out_ids[lo:hi], out_sims[lo:hi] = _topk_rows(
                sims_block[lo - start : hi - start], queries[lo:hi], cand, width
            )
        del sims_block  # free this block before the next one is computed
    return out_ids, out_sims
