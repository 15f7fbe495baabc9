"""Build, score, serialize, and diagnose vocabulary bijection keys.

A key is a seeded involutive permutation over the masked subset of non-special
token IDs.  Construction is greedy: the masked IDs are partitioned into seeded
buckets; within each bucket tokens are traversed in ascending order, each
unpaired token pairing with its best-scoring still-available neighbor among
its top-k cosine neighbors.  Neighborless leftovers are paired by a seeded
shuffle; an odd leftover becomes a recorded fixed point.

Neighbors are retrieved lazily: the walk takes a cell in batches of the next
members still unpaired, and retrieves, scores and walks each batch before
the next one forms.  About half of a cell is taken as a partner before its
turn and is never retrieved.  A token's neighbors depend only on its own
similarity row, so the batch size never changes a key.

Cells advance together in rounds over groups of consecutive cells, one group
after another.  In a round each cell with members left forms and retrieves
its next batch; the batches' rows stack into one round matrix of candidates,
which one edit-kernel call scores, one sort ranks and one loop walks.  A
round scores only the candidates still unpaired when it begins: a paired
token never becomes free again, so the walk could not take the others, and
on perfbench's 4,096-token builds (seed 1) they were 37% (16 buckets) and
47% (flat) of the candidates retrieved.  A row's candidates lie in its own
cell, and each cell's fallback reads only its own members, so neither the
rounds nor the groups ever change a key.  One budget,
``embeddings._BLOCK_BYTES``, sizes the batches and the groups.

The pair score trades surface opacity against embedding closeness:

    score(i, j) = edit(s_i, s_j) - mu * (1 - cos(e_i, e_j))

with the edit term length-normalized by default (``raw`` mode keeps plain
Levenshtein).  Higher is better.  All tie-breaks are ascending token id so a
key is a pure function of (vocabulary, embeddings, config).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import chain, compress, islice
from pathlib import Path
from typing import Iterable

import numpy as np

from . import editdist, embeddings
from .embeddings import EmbeddingStore, id_array, topk_cosine
from .errors import ArgumentError, CompatibilityError, CoverageError, FormatError, ToolkitError
from .fileio import atomic_write, parse_json
from .seeding import derive_rng, derive_seed, derive_seeds
from .vocab import Vocabulary, _parse_fingerprint, check_ids

KEY_FORMAT_VERSION = 1

EDIT_MODES = ("normalized", "raw")

# the values a config field of each annotated type accepts; for BuildConfig these
# are also the JSON types of a key file
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def _check_field_types(config) -> None:
    """Raise ArgumentError naming the first field whose value its annotation refuses."""
    for f in fields(config):
        value = getattr(config, f.name)
        # a bool is an int, but True is no count, and JSON true/false must not load as 1/0
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ArgumentError(f"{f.name} must be {f.type}, not {type(value).__name__}")
        # JSON numbers interoperate within the range of a float64, and so do timeouts
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ArgumentError(f"{f.name} is too large for a float")


@dataclass(frozen=True)
class BuildConfig:
    """Key construction parameters.  Defaults mirror the published setup.

    ``greedy_batch`` has no effect on a build: it is kept because v1 key
    files record it and :func:`load_key` checks it.
    """

    k: int = 100
    mu: float = 1.0
    rho: float = 1.0
    seed: int = 0
    buckets: int = 1
    greedy_batch: int = 50
    edit_mode: str = "normalized"

    def __post_init__(self):
        _check_field_types(self)  # types before ranges
        for name in ("k", "buckets", "greedy_batch"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ArgumentError("mu must be finite and >= 0")
        if not 0.0 <= self.rho <= 1.0:
            raise ArgumentError("rho must lie in [0, 1]")
        if self.edit_mode not in EDIT_MODES:
            raise ArgumentError(f"edit_mode must be one of {EDIT_MODES}")


@dataclass(frozen=True)
class BijectionKey:
    """The client-held secret: an involutive mapping over the masked IDs.

    ``mapping`` is its own inverse; its domain is the mask, and fixed points
    map to themselves.
    """

    version: int
    vocab_fingerprint: int
    config: BuildConfig
    mapping: dict[int, int]

    @cached_property
    def mask(self) -> frozenset[int]:
        """The masked ids: the domain of ``mapping``."""
        return frozenset(self.mapping)

    @cached_property
    def fixed_points(self) -> tuple[int, ...]:
        """The masked ids that map to themselves, ascending."""
        return tuple(sorted(i for i, j in self.mapping.items() if i == j))

    def apply(self, token_id: int) -> int:
        return self.mapping.get(token_id, token_id)

    def validate(self) -> None:
        """Check that ``mapping`` is an involution; raises FormatError if not."""
        for i, j in self.mapping.items():
            if self.mapping.get(j) != i:
                raise FormatError(f"involution broken at pair ({i}, {j})")


def bucket_index(seed: int, buckets: int, token_id: int) -> int:
    """Seeded bucket assignment for one token id.

    Per-id hashing keeps the layout independent of rho: changing the mask adds
    or removes members from cells but never moves a token between cells.
    """
    if buckets == 1:
        return 0
    return derive_seed("bucket", seed, token_id) % buckets


def _bucket_layout(seed: int, buckets: int, ids: list[int]) -> list[int]:
    """:func:`bucket_index` of each of ``ids``, hashing the shared prefix once."""
    if buckets == 1:
        return [0] * len(ids)
    return [s % buckets for s in derive_seeds(("bucket", seed), ids)]


def _edit_terms(surfaces: list[bytes], left, right, edit_mode: str) -> np.ndarray:
    """The edit term of the pair score for each pair ``(surfaces[left[i]], surfaces[right[i]])``."""
    if edit_mode == "raw":
        return editdist.levenshtein_batch(left, right, surfaces).astype(np.float64)
    return editdist.normalized_batch(left, right, surfaces)


def _pair_scores(edits: np.ndarray, cos: np.ndarray, mu: float) -> np.ndarray:
    """The pair score of each pair from its edit term and its cosine (higher is better)."""
    return edits - mu * (1.0 - cos)


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cosine of each row of ``a`` with the same row of ``b``."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if not (na.all() and nb.all()):
        raise ArgumentError("cannot score a zero embedding vector")
    return np.einsum("ij,ij->i", a, b) / (na * nb)


def pair_score(
    i: int,
    j: int,
    vocab: Vocabulary,
    store: EmbeddingStore,
    mu: float = 1.0,
    edit_mode: str = "normalized",
) -> float:
    """Score candidate pair (i, j); symmetric, defined for distinct non-specials."""
    config = BuildConfig(mu=mu, edit_mode=edit_mode)  # refuses what a build refuses
    check_ids([i, j], ArgumentError)
    if i == j:
        raise ArgumentError("pair_score requires two distinct tokens")
    if i in vocab.specials or j in vocab.specials:
        raise ArgumentError("special tokens cannot be paired")
    edit = _edit_terms([vocab.token_of(i), vocab.token_of(j)], [0], [1], config.edit_mode)
    cos = _cosines(np.atleast_2d(store.row(i)), np.atleast_2d(store.row(j)))
    return float(_pair_scores(edit, cos, config.mu)[0])


def select_mask(seed: int, rho: float, permutable: Iterable[int]) -> frozenset[int]:
    """Choose the masked subset I_rho: a seeded-shuffle prefix of size floor(rho*|I|).

    Deterministic in (seed, rho, permutable); the shuffle stream is domain
    separated, so masks for the same seed are nested across rho values.
    """
    if not 0.0 <= rho <= 1.0:
        raise ArgumentError("rho must lie in [0, 1]")
    ids = np.unique(id_array(permutable, "permutable"))
    size = math.floor(rho * ids.size)
    rng = derive_rng("mask", seed)
    return frozenset(rng.permutation(ids)[:size].tolist())


def _batch_rows(m: int) -> int:
    """Members per greedy batch in a cell of ``m``: a budget of similarities,
    at most a quarter of the cell."""
    # The quarter keeps a small cell lazy: a whole 256-member cell in one batch
    # retrieved every member, where quarters retrieve about two thirds (divisors
    # 2, 4 and 8 swept on the 16-bucket build, see CHANGES.md).
    return max(1, min(m // 4, embeddings._BLOCK_BYTES // (8 * m)))


def _pair_group(
    cells: dict[int, list[int]],
    vocab: Vocabulary,
    store: EmbeddingStore,
    config: BuildConfig,
) -> dict[int, int]:
    """Pair a group of non-empty bucket cells in lockstep rounds; returns their mapping.

    Positions number the group's members, cell after cell.  Each round, every
    cell with members left takes its next batch and retrieves it; the round's
    candidates still unpaired are scored in one edit-kernel call and walked
    in one loop.  A row's candidates lie in its own cell, so each cell pairs
    as it would alone.
    """
    order = list(chain.from_iterable(cells.values()))
    ids = np.asarray(order, dtype=np.int64)
    # id -> position; a missing neighbour, id -1, reads the last slot, which stays -1
    pos_of = np.full(int(ids.max()) + 2, -1, dtype=np.int64)
    pos_of[ids] = np.arange(ids.size)
    surfaces = editdist.Surfaces(list(map(vocab.id_to_token.__getitem__, order)))
    available = bytearray(b"\x01") * len(order)  # 1 while a position is unpaired
    free = np.frombuffer(available, np.bool_)  # a view: it reads the flags as they stand
    walks = []  # per cell: its member ids, its unpaired positions, its batch size
    lo = 0
    for m in map(len, cells.values()):
        # The list iterator reads each flag as the walk reaches it, so every
        # batch holds exactly the cell's members that are unpaired when it forms.
        unpaired = compress(range(lo, lo + m), islice(available, lo, None))
        walks.append((ids[lo : lo + m], unpaired, _batch_rows(m)))
        lo += m

    mapping: dict[int, int] = {}
    while True:
        batches = []
        for cand, unpaired, size in walks:
            if (batch := np.fromiter(islice(unpaired, size), np.int64)).size:
                batches.append((cand, batch))
        if not batches:
            break
        rows = np.concatenate([batch for _, batch in batches])
        # A cell of at most k members has narrower rows; -1 and -inf pad them.
        width = min(config.k, max(cand.size for cand, _ in batches))
        cand_pos = np.full((rows.size, width), -1, dtype=np.int64)
        cos = np.full((rows.size, width), -np.inf)
        r = 0
        for cand, batch in batches:
            nbr_ids, nbr_sims = topk_cosine(store, ids[batch], config.k, cand)
            cand_pos[r : r + batch.size, : nbr_ids.shape[1]] = pos_of[nbr_ids]
            cos[r : r + batch.size, : nbr_sims.shape[1]] = nbr_sims
            r += batch.size
        del nbr_ids, nbr_sims  # the round matrix holds them

        # A paired token never becomes free, so a candidate paired before the
        # round began is marked missing and goes unscored (a missing one reads
        # the last flag and stays -1 either way).  Every other candidate pair
        # of the round is scored at once; the walk then only consults ranks.
        cand_pos[~free[cand_pos]] = -1
        found = cand_pos >= 0
        edits = _edit_terms(
            surfaces, rows[np.nonzero(found)[0]], cand_pos[found], config.edit_mode
        )
        scores = np.full(found.shape, -np.inf)
        scores[found] = _pair_scores(edits, cos[found], config.mu)
        del edits, cos

        # Best score first; a row's neighbours come in id order, so the stable
        # sort ranks a tie's lower token id first.  -1 marks a missing or
        # non-finite candidate and ends the row.
        cand_pos[~np.isfinite(scores)] = -1
        ranked = np.take_along_axis(cand_pos, np.argsort(-scores, axis=1, kind="stable"), axis=1)

        for r, row in zip(rows.tolist(), ranked.tolist()):  # cell after cell, ascending
            if not available[r]:  # taken by an earlier row of this round
                continue
            for p in row:
                if p < 0:
                    break
                if available[p]:
                    i, j = order[r], order[p]
                    mapping[i] = j
                    mapping[j] = i
                    available[r] = available[p] = False
                    break

    lo = 0
    for cell, members in cells.items():  # a lone member is left over, and a fixed point
        leftovers = list(compress(members, islice(available, lo, None)))
        lo += len(members)
        if leftovers:
            rng = derive_rng("fallback", config.seed, cell)
            shuffled = rng.permutation(np.asarray(leftovers, dtype=np.int64)).tolist()
            if len(shuffled) % 2 == 1:
                fp = shuffled.pop()
                mapping[fp] = fp
            for a, b in zip(shuffled[0::2], shuffled[1::2]):
                mapping[a] = b
                mapping[b] = a
    return mapping


def build_key(
    vocab: Vocabulary,
    store: EmbeddingStore,
    config: BuildConfig,
    threads: int | None = None,
) -> BijectionKey:
    """Construct a key: mask, bucket, retrieve, greedily pair, fall back.

    Deterministic in (vocab, store, config).  Bucket cells are paired on the
    calling thread in groups of consecutive cells that fit the budget, a
    larger cell alone, and within a group in lockstep rounds
    (:func:`_pair_group`).  BLAS threads the similarity matmul.
    ``threads`` is accepted and ignored; ROADMAP item 6 deletes it together
    with the benchmark's ``threads=`` argument.
    """
    if not store.normalized:
        raise ArgumentError("build_key requires a normalized store")
    permutable = vocab.permutable_ids
    mask = select_mask(config.seed, config.rho, permutable)
    if mask and max(mask) >= store.n:
        missing = sorted(i for i in mask if i >= store.n)
        raise CoverageError(f"embedding row missing for masked id(s) {missing[:5]}")

    cells: dict[int, list[int]] = {}
    ids = sorted(mask)
    for i, cell in zip(ids, _bucket_layout(config.seed, config.buckets, ids)):
        cells.setdefault(cell, []).append(i)
    alphabet = len(set(b"".join(map(vocab.id_to_token.__getitem__, ids))))
    groups: list[dict[int, list[int]]] = []
    held = embeddings._BLOCK_BYTES
    for cell in sorted(cells):
        # a cell's match table and its batch's rows of the round matrix
        m = len(cells[cell])
        cost = m * 10 * alphabet + _batch_rows(m) * min(config.k, m) * 64
        if held + cost > embeddings._BLOCK_BYTES:
            groups.append({})
            held = 0
        groups[-1][cell] = cells[cell]
        held += cost

    mapping: dict[int, int] = {}
    # ``key.mapping``'s order may interleave a group's cells; it is no part of a
    # key, since save_key sorts the pairs
    for group in groups:
        mapping.update(_pair_group(group, vocab, store, config))
    key = BijectionKey(KEY_FORMAT_VERSION, vocab.fingerprint, config, mapping)
    key.validate()
    return key


def check_key(key: BijectionKey, vocab: Vocabulary) -> None:
    """Check that a key fits the vocabulary it is applied to; raises CompatibilityError.

    A matching fingerprint is not enough: a key file can still pair a special
    token or name an id the vocabulary lacks.  The check walks the whole mask,
    so callers run it once per key and vocabulary, not per document.
    """
    if key.vocab_fingerprint != vocab.fingerprint:
        raise CompatibilityError("key was built for a different vocabulary")
    if not key.mapping.keys() <= vocab.id_to_token.keys():  # a subset test copies neither
        outside = sorted(key.mapping.keys() - vocab.id_to_token.keys())
        raise CompatibilityError(f"key maps id(s) outside the vocabulary: {outside[:5]}")
    paired = sorted(i for i in vocab.specials if key.mapping.get(i, i) != i)
    if paired:
        raise CompatibilityError(f"key pairs special token id(s) {paired[:5]}")


def _key_pairs(
    key: BijectionKey, vocab: Vocabulary, edit_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """A fitting key's pairs ``(i, j)``, ``i < j``, by ascending ``i`` as an (n, 2)
    array, and the edit term of each pair."""
    check_key(key, vocab)
    pairs = np.array(sorted(p for p in key.mapping.items() if p[0] < p[1]), np.int64).reshape(-1, 2)
    left = np.arange(0, pairs.size, 2)
    surfaces = [vocab.token_of(i) for i in pairs.ravel().tolist()]
    return pairs, _edit_terms(surfaces, left, left + 1, edit_mode)


def objective_value(key: BijectionKey, vocab: Vocabulary, store: EmbeddingStore) -> float:
    """Summed pair objective over the mask, counting each pair once per direction."""
    # fixed points contribute zero, and a pair scores the same in both directions
    pairs, edits = _key_pairs(key, vocab, key.config.edit_mode)
    if pairs.size and pairs.max() >= store.n:
        raise CoverageError(f"no embedding row for token id {int(pairs.max())}")
    cos = _cosines(store.rows[pairs[:, 0]], store.rows[pairs[:, 1]])
    return 2.0 * float(_pair_scores(edits, cos, key.config.mu).sum())


def key_overlap(a: BijectionKey, b: BijectionKey) -> float:
    """Percentage of jointly masked ids on which two keys agree; 0 if disjoint."""
    if a.vocab_fingerprint != b.vocab_fingerprint:
        raise CompatibilityError("keys belong to different vocabularies")
    common = a.mask & b.mask
    if not common:
        return 0.0
    agree = sum(1 for i in common if a.mapping[i] == b.mapping[i])
    return 100.0 * agree / len(common)


@dataclass(frozen=True)
class OpacityReport:
    """Surface-change summary of a key's mapped pairs."""

    pair_count: int
    fixed_point_count: int
    mean_normalized_edit: float | None
    median_normalized_edit: float | None
    unchanged_fraction: float | None
    empty_mapping: bool


def opacity_report(key: BijectionKey, vocab: Vocabulary) -> OpacityReport:
    dists = _key_pairs(key, vocab, "normalized")[1].tolist()
    if not key.mask:
        return OpacityReport(0, 0, None, None, None, empty_mapping=True)
    return OpacityReport(
        pair_count=len(dists),
        fixed_point_count=len(key.fixed_points),
        mean_normalized_edit=statistics.fmean(dists) if dists else None,
        median_normalized_edit=statistics.median(dists) if dists else None,
        # token strings are distinct, so only a fixed point keeps its surface
        unchanged_fraction=len(key.fixed_points) / len(key.mask),
        empty_mapping=False,
    )


def save_key(key: BijectionKey, path: str | Path) -> None:
    """Serialize to the versioned JSON key format (byte-deterministic)."""
    pairs = sorted((i, j) for i, j in key.mapping.items() if i < j)
    doc = {
        "version": key.version,
        "vocab_fingerprint": f"{key.vocab_fingerprint:016x}",
        "config": asdict(key.config),
        "fixed_points": list(key.fixed_points),
        "mapping": [[i, j] for i, j in pairs],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with atomic_write(path, "wb") as fp:
        fp.write(blob.encode("ascii"))


def _assemble(
    fingerprint: int,
    config: BuildConfig,
    pairs: Iterable[tuple[int, int]],
    fixed_points: Iterable[int],
    error: type[ToolkitError],
) -> BijectionKey:
    """A key from disjoint pairs and fixed points; a non-id or an id used twice raises ``error``."""
    pairs, fixed_points = list(pairs), list(fixed_points)
    check_ids([*chain.from_iterable(pairs), *fixed_points], error)
    mapping: dict[int, int] = {}
    for i, j in pairs:
        if i == j:
            raise error(f"pair ({i}, {j}) maps an id to itself: use fixed_points")
        if i in mapping or j in mapping:
            raise error(f"token id reused across pairs near ({i}, {j}): involution broken")
        mapping[i] = j
        mapping[j] = i
    for fp in fixed_points:
        if fp in mapping:
            raise error(f"fixed point {fp} is already mapped: involution broken")
        mapping[fp] = fp
    return BijectionKey(KEY_FORMAT_VERSION, fingerprint, config, mapping)


def load_key(path: str | Path) -> BijectionKey:
    """Load and structurally validate a key file."""
    doc = parse_json(Path(path).read_bytes(), "key file", dict, encoding="ascii")
    version = doc.get("version")
    if type(version) is not int or version != KEY_FORMAT_VERSION:  # true and 1.0 equal 1
        raise FormatError(f"unsupported key format version {version!r}")
    try:
        fingerprint = doc["vocab_fingerprint"]
        cfg = {f.name: doc["config"][f.name] for f in fields(BuildConfig)}
        pairs = doc["mapping"]
        fixed_points = doc["fixed_points"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"key file missing or malformed field: {e}") from e
    fingerprint = _parse_fingerprint(fingerprint, "key file vocab_fingerprint")
    try:
        config = BuildConfig(**cfg)
    except ArgumentError as e:
        raise FormatError(f"key file config: {e}") from e
    if not (isinstance(pairs, list) and isinstance(fixed_points, list)):
        raise FormatError('key file "mapping" and "fixed_points" must be arrays')
    for entry in pairs:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise FormatError(f"malformed mapping entry {entry!r}")
    key = _assemble(fingerprint, config, pairs, fixed_points, FormatError)
    for i, j in pairs:
        if not 0 <= i < j:
            raise FormatError(f"mapping pair [{i}, {j}] violates 0 <= i < j")
    if not all(fp >= 0 for fp in fixed_points):
        raise FormatError("key file fixed points must be non-negative integers")
    return key


def key_from_pairs(
    vocab: Vocabulary,
    pairs: Iterable[tuple[int, int]],
    config: BuildConfig | None = None,
    fixed_points: Iterable[int] = (),
) -> BijectionKey:
    """A key from explicit pairs, checked to fit ``vocab`` (:func:`check_key`)."""
    config = config or BuildConfig()
    fixed_points = list(fixed_points)
    check_ids(fixed_points, ArgumentError)  # before repeats fold: True would fold into 1
    key = _assemble(vocab.fingerprint, config, pairs, dict.fromkeys(fixed_points), ArgumentError)
    try:
        check_key(key, vocab)
    except CompatibilityError as e:
        raise ArgumentError(str(e)) from None
    return key
