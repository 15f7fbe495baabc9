"""Shared fixture builders (synthetic vocabularies and embedding stores) and
reference oracles."""

from __future__ import annotations

import builtins
import re
from collections import Counter

import numpy as np

from alienlang import (
    BuildConfig,
    EmbeddingStore,
    StabilityError,
    Vocabulary,
    decode_ids,
    detokenize,
    encode_ids,
    reference_tokenize,
    select_mask,
)
from alienlang.bijection import bucket_index
from alienlang.seeding import derive_rng
from alienlang.translator import ID_STREAM_MAGIC

LOWER = "abcdefghijklmnopqrstuvwxyz"


class HalfWrite:
    """A file whose first write stores half its data, then fails as a full disk would."""

    def __init__(self, fp):
        self.fp = fp

    def write(self, data):
        self.fp.write(data[: len(data) // 2])
        self.fp.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fp.close()


def half_write_open(*args, **kwargs) -> HalfWrite:
    """``open`` whose file fails at its first write; patch it over ``fileio.open``."""
    return HalfWrite(builtins.open(*args, **kwargs))


def vocab_from(tokens: list[bytes], specials: list[bytes] = ()) -> Vocabulary:
    """Vocabulary with ids assigned by list position."""
    entries = [(tok, idx) for idx, tok in enumerate(tokens)]
    special_ids = [tokens.index(s) for s in specials]
    return Vocabulary.from_entries(entries, special_ids)


def random_vocab(
    rng: np.random.Generator,
    n: int,
    min_len: int = 3,
    max_len: int = 10,
    specials: int = 0,
) -> Vocabulary:
    """n unique random lowercase tokens; the last `specials` ids are special."""
    alphabet = np.frombuffer(LOWER.encode(), dtype=np.uint8)
    seen: set[bytes] = set()
    tokens: list[bytes] = []
    while len(tokens) < n:
        length = int(rng.integers(min_len, max_len + 1))
        tok = bytes(rng.choice(alphabet, size=length).astype(np.uint8))
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    entries = [(tok, idx) for idx, tok in enumerate(tokens)]
    special_ids = list(range(n - specials, n))
    return Vocabulary.from_entries(entries, special_ids)


def byte_complete_vocab(extra_tokens: list[bytes] = (), specials: list[bytes] = ()) -> Vocabulary:
    """All 256 single-byte tokens, then extras, then specials."""
    tokens = [bytes([b]) for b in range(256)] + list(extra_tokens) + list(specials)
    entries = [(tok, idx) for idx, tok in enumerate(tokens)]
    special_ids = [256 + len(extra_tokens) + i for i in range(len(specials))]
    return Vocabulary.from_entries(entries, special_ids)


def unit_store(rng: np.random.Generator, n: int, d: int) -> EmbeddingStore:
    rows = rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingStore(rows=rows, normalized=True)


def positive_unit_store(rng: np.random.Generator, n: int, d: int) -> EmbeddingStore:
    """Unit rows in the positive orthant, so all cosines are non-negative."""
    rows = rng.uniform(0.05, 1.0, size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingStore(rows=rows, normalized=True)


def clustered_store(
    rng: np.random.Generator, n: int, d: int, clusters: int, noise: float = 0.08
) -> EmbeddingStore:
    """Well-separated cluster centers with small isotropic noise, normalized."""
    centers = rng.standard_normal((clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = np.arange(n) % clusters
    rows = centers[assign] + noise * rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingStore(rows=rows, normalized=True)


def axis_store(rng: np.random.Generator, n: int, d: int) -> EmbeddingStore:
    """Rows drawn from the +-e_i axis vectors, with duplicates, so every
    cosine is exactly -1, 0 or 1 under any summation order: ties are exact."""
    rows = np.eye(d)[rng.integers(0, d, size=n)] * rng.choice([-1.0, 1.0], size=(n, 1))
    return EmbeddingStore(rows=rows, normalized=True)


ASCII_ID = re.compile(rb"[0-9]+")
ASCII_NUMBER = re.compile(rb"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def in_ascii_embedding_grammar(data: bytes) -> bool:
    """Whether every token of a text embedding file is ASCII decimal: digits in
    the header and each row's id; a sign, digits, a fraction and an exponent
    in each value.  Tokens are split at ASCII whitespace only."""
    header, *rows = [line.split() for line in data.split(b"\n")]
    return all(map(ASCII_ID.fullmatch, header)) and all(
        ASCII_ID.fullmatch(row[0]) and all(map(ASCII_NUMBER.fullmatch, row[1:]))
        for row in rows
        if row
    )


def oracle_levenshtein(a: bytes, b: bytes) -> int:
    """Textbook full-matrix DP, written independently of the kernel."""
    m, n = len(a), len(b)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[m][n]


def reference_frequency_hypotheses(
    alien_corpus, reference_corpus, top_m: int
) -> list[tuple[int, int]]:
    """``frequency_hypotheses`` the slow way: flatten item by item, count with a
    Counter and rank by (-count, id); the r-th alien id pairs with the r-th
    reference id."""

    def ranked(corpus) -> list[int]:
        tokens: list[int] = []
        for item in corpus:
            if isinstance(item, (int, np.integer)):
                tokens.append(int(item))
            else:
                tokens.extend(int(i) for i in item)
        counts = Counter(tokens)
        return sorted(counts, key=lambda t: (-counts[t], t))

    alien = ranked(alien_corpus)[:top_m]
    return list(zip(alien, ranked(reference_corpus)[: len(alien)]))


def reference_greedy_mapping(
    vocab: Vocabulary, store: EmbeddingStore, config: BuildConfig
) -> dict[int, int]:
    """``build_key``'s mapping, the slow way: an oracle for the retrieval -> pairing handoff.

    Per bucket cell, each masked token's candidates are the first ``k`` of all
    other members sorted by (-cosine, id), each scored
    ``edit - mu * (1 - cos)`` with :func:`oracle_levenshtein`.  Tokens are
    walked in ascending order, each pairing with its best-scoring available
    candidate (ties to the lower id); leftovers are paired by the same seeded
    shuffle as ``build_key``.  With exact cosines (:func:`axis_store`) float
    summation order cannot matter, so the mappings must be equal.
    """
    mask = select_mask(config.seed, config.rho, vocab.permutable_ids)
    cells: dict[int, list[int]] = {}
    for i in sorted(mask):
        cells.setdefault(bucket_index(config.seed, config.buckets, i), []).append(i)

    def cos(i: int, j: int) -> float:
        return float(store.rows[i] @ store.rows[j])

    def score(i: int, j: int) -> float:
        a, b = vocab.token_of(i), vocab.token_of(j)
        edit = float(oracle_levenshtein(a, b))
        if config.edit_mode == "normalized":
            edit /= max(len(a), len(b))
        return edit - config.mu * (1.0 - cos(i, j))

    mapping: dict[int, int] = {}
    for cell, members in sorted(cells.items()):
        available = set(members)
        for i in members:
            if i not in available:
                continue
            others = sorted((j for j in members if j != i), key=lambda j: (-cos(i, j), j))
            ranked = sorted(others[: config.k], key=lambda j: (-score(i, j), j))
            partner = next((j for j in ranked if j in available), None)
            if partner is not None:
                mapping[i], mapping[partner] = partner, i
                available -= {i, partner}
        leftovers = np.asarray([i for i in members if i in available], dtype=np.int64)
        shuffled = derive_rng("fallback", config.seed, cell).permutation(leftovers).tolist()
        if len(shuffled) % 2 == 1:
            fp = shuffled.pop()
            mapping[fp] = fp
        for a, b in zip(shuffled[0::2], shuffled[1::2]):
            mapping[a], mapping[b] = b, a
    return mapping


def _first_divergence(ids: tuple[int, ...], recheck: tuple[int, ...]) -> int | None:
    if ids == recheck:
        return None
    return next(
        (p for p, (a, b) in enumerate(zip(ids, recheck)) if a != b),
        min(len(ids), len(recheck)),
    )


def retokenize_encode_oracle(x: bytes, key, vocab: Vocabulary) -> tuple[bool, int | None]:
    """encode_text's (retokenization_safe, strict StabilityError position) by
    retokenizing the whole rendering; position is None when strict passes."""
    ids = encode_ids(reference_tokenize(x, vocab), key).ids
    rendered = detokenize(ids, vocab)
    if rendered.startswith(ID_STREAM_MAGIC.encode("ascii")):
        return False, 0
    pos = _first_divergence(ids, reference_tokenize(rendered, vocab).ids)
    return pos is None, pos


def retokenize_decode_oracle(x_alien: bytes, key, vocab: Vocabulary) -> bytes:
    """decode_text on rendered text (no ID-stream header) by re-encoding the
    plaintext in full; raises StabilityError with the first divergent token."""
    plain_ids = decode_ids(reference_tokenize(x_alien, vocab), key).ids
    plain = detokenize(plain_ids, vocab)
    roundtrip = detokenize(encode_ids(reference_tokenize(plain, vocab), key), vocab)
    if roundtrip != x_alien:
        pos = _first_divergence(plain_ids, reference_tokenize(plain, vocab).ids)
        raise StabilityError("alien text is not a stable rendering", position=pos)
    return plain
