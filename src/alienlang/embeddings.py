"""Token embedding stores: loading, normalization, proxy synthesis, exact top-k.

Retrieval is exact top-k cosine via dense inner products.  At the
vocabulary scales this toolkit targets (up to a few hundred thousand rows,
small d) exact retrieval is affordable and removes approximation as a
correctness variable.

``topk_cosine`` computes one matmul over its queries and selects in slices
sized by ``_BLOCK_BYTES``, the toolkit's one memory budget: a 256-member
bucket cell takes one selection, 4,096 candidates take 64-row slices and 32K
take 8-row ones.  The budget also bounds a key build's greedy batches, each
one call and so one matmul, and its groups of bucket cells; the
nearest-neighbour attack's similarity blocks; and the n-gram attack's score
blocks and join pieces.  Candidate ids may come in any iterable form; ids
that form one run are read as a view of the store's rows, not gathered into
a copy.

Each row's answer is a set, returned in ascending id order, not by cosine:
its query's own cell is set to -inf, and one ``argpartition`` puts the
(k + 1)-th largest value before the k largest.  Those k are the answer
unless the least of them equals the (k + 1)-th: then ties may lie outside
the set, and only that row is re-chosen from its full row, keeping the
lowest-id ties.  Every row thus holds the first k of an exhaustive
(-cosine, ascending id) sort, and no step sorts by value or reads a whole
row a second time except in a repaired row.
"""

from __future__ import annotations

import re
import reprlib
import struct
from array import array
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, CoverageError, DegenerateInputError, FormatError
from .fileio import atomic_write
from .vocab import (
    DIGIT, Vocabulary, check_count, check_ids, first_non_id, read_lines, reference_tokenize
)

_MAGIC = b"AEMB"
_VERSION = 1
_NORM_TOL = 1e-5
# A text file's header is two ids (n and d), and each row an id followed by
# numbers, each an optional sign, digits, an optional fraction and exponent.
_NUMBER = rf"[+-]?{DIGIT}+(?:\.{DIGIT}+)?(?:[eE][+-]?{DIGIT}+)?"
_HEADER = re.compile(rf"\s*{DIGIT}+\s+{DIGIT}+\s*", re.ASCII)
_ROW = re.compile(rf"\s*(?:{DIGIT}+(?:\s+{_NUMBER})*)?\s*", re.ASCII)
# The bytes a block of temporaries may hold, in a key build and in the
# attacks.  A top-k selection slice takes 32 B a similarity cell (2^18
# cells); a greedy batch's matmul, the nearest-neighbour attack's similarity
# block and the n-gram attack's score block 8 B (2^20); an n-gram join piece
# about as many entries, 24 B each; and a group of bucket cells 10 B per
# surface and distinct byte for its match table and 64 B per candidate for
# its round matrix.  With batches no larger than a slice, glibc's malloc
# returned each matmul's pages and faulted them in again, about 34K minor
# faults per 4K-token build.
_BLOCK_BYTES = 1 << 23


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
        check_ids([token_id], ArgumentError)
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
    version, n, d = struct.unpack("<III", data[4:16])  # load_embeddings read the magic
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
            row = list(map(float, parts[1:]))
            if not np.isfinite(row).all():  # a value such as 1e999 overflows to inf
                raise FormatError(f"line {lineno}: value outside the float64 range")
            seen.add(tid)
            ids.append(tid)
            values.extend(row)
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
    max_id = max(target_vocab.id_to_token, default=-1)  # an empty vocabulary: no rows
    rows = np.zeros((max_id + 1, proxy_store.d), dtype=np.float64)
    for tid, tok in target_vocab.id_to_token.items():
        rows[tid] = proxy_embed(tok, proxy_vocab, proxy_store)
    return EmbeddingStore(rows=rows)


def _topk_rows(
    sims: np.ndarray, query_ids: np.ndarray, cand_ids: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``width`` set of every row of ``sims``, in ascending id order.

    ``sims`` has one row per query and one column per ascending candidate id;
    it is modified in place (each query's own cell becomes -inf).  One
    ``argpartition`` puts each row's (width + 1)-th largest value just before
    its ``width`` largest.  Where the least of those equals the (width + 1)-th,
    the partition may have kept a higher id than a tie it left out, so that
    row is re-chosen from all its values, ties at the cut going to the lowest
    ids as in an exhaustive (-sim, id) sort.  Slots left holding -inf (the
    query itself, when width covers every candidate) come back as id -1.
    """
    rows, m = sims.shape
    pos = np.searchsorted(cand_ids, query_ids)
    hit = np.flatnonzero(cand_ids[np.minimum(pos, m - 1)] == query_ids)
    sims[hit, pos[hit]] = -np.inf
    if width < m:
        part = np.argpartition(sims, m - width - 1, axis=1)
        nxt = np.take_along_axis(sims, part[:, m - width - 1 : m - width], axis=1)
        top = np.sort(part[:, m - width :], axis=1)  # position order is id order
        vals = np.take_along_axis(sims, top, axis=1)
        cut = np.flatnonzero(vals.min(axis=1) == nxt[:, 0])
        if cut.size:
            s, t = sims[cut], nxt[cut]
            tied = s == t
            need = width - (s > t).sum(axis=1, keepdims=True)
            keep = (s > t) | (tied & (np.cumsum(tied, axis=1) <= need))
            top[cut] = np.nonzero(keep)[1].reshape(cut.size, width)
            vals[cut] = s[keep].reshape(cut.size, width)
        ids = cand_ids[top]
    else:  # every candidate
        ids, vals = np.tile(cand_ids, (rows, 1)), sims
    ids[vals == -np.inf] = -1
    return ids, vals


def id_array(ids: Iterable[int], what: str) -> np.ndarray:
    """``ids`` as an int64 array: a 1-D integer array or a ``range`` as it
    is, any other iterable item by item (:func:`~alienlang.vocab.first_non_id`).

    Any other array, a non-iterable, or an item that is not a token id raises
    ArgumentError naming ``what`` (and the item); an id beyond the int64
    range has no embedding row and raises CoverageError.
    """
    if isinstance(ids, np.ndarray):
        if ids.dtype.kind not in "iu" or ids.ndim != 1:
            raise ArgumentError(
                f"{what} ids must be a 1-D integer array, not {ids.ndim}-D {ids.dtype}"
            )
    elif not isinstance(ids, range):
        try:
            ids = list(ids)  # a set or an iterator is read once
        except TypeError:
            raise ArgumentError(
                f"{what} {reprlib.repr(ids)} is not a sequence of token ids"
            ) from None
        bad = first_non_id(ids)
        if bad is not None:
            raise ArgumentError(f"{what} id {reprlib.repr(ids[bad])} is not a token id")
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        raise CoverageError(f"no embedding row for a {what} id beyond the int64 range") from None


def topk_cosine(
    store: EmbeddingStore,
    query_ids: Sequence[int],
    k: int,
    candidate_ids: Iterable[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Batched exact top-k over a shared candidate set.

    Returns (neighbor_ids, sims) of shape (len(query_ids), k'), where
    k' = min(k, usable candidates).  Each row holds its query's exact top-k'
    set under the (-cosine, id) order, in ascending id order, not by cosine;
    the query itself is excluded, and a slot it leaves empty holds id -1 and
    -inf.  ``candidate_ids`` may be any iterable of ids, in any order and
    with repeats; both id arguments are read by :func:`id_array`.  ``k`` is an
    int, not a bool.  A query or candidate id without an embedding row raises
    :class:`CoverageError`.
    """
    check_count("k", k, 1)
    if not store.normalized:
        raise ArgumentError("topk_cosine requires a normalized store")
    cand = id_array(candidate_ids, "candidate")
    if (cand[1:] <= cand[:-1]).any():
        cand = np.unique(cand)
    queries = id_array(query_ids, "query")
    for what, ids in (("query", queries), ("candidate", cand)):
        outside = ids[(ids < 0) | (ids >= store.n)]
        if outside.size:
            raise CoverageError(f"no embedding row for {what} id {int(outside[0])}")
    width = min(k, cand.size)
    out_ids = np.full((queries.size, width), -1, dtype=np.int64)
    out_sims = np.full((queries.size, width), -np.inf, dtype=np.float64)
    if width == 0:
        return out_ids, out_sims
    if cand[-1] - cand[0] == cand.size - 1:  # one run of ids: a view, not a copy
        cand_rows = store.rows[cand[0] : cand[-1] + 1]
    else:
        cand_rows = store.rows[cand]
    sims = store.rows[queries] @ cand_rows.T
    # Rows select independently; slicing caps the selection's index arrays.
    select = max(1, _BLOCK_BYTES // (32 * cand.size))
    for lo in range(0, queries.size, select):
        hi = lo + select
        out_ids[lo:hi], out_sims[lo:hi] = _topk_rows(sims[lo:hi], queries[lo:hi], cand, width)
    return out_ids, out_sims
