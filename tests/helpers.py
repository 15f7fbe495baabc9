"""Shared fixture builders (synthetic vocabularies and embedding stores) and
reference oracles."""

from __future__ import annotations

import builtins
import re
from collections import Counter
from pathlib import Path

import numpy as np

from alienlang import (
    BijectionKey,
    BuildConfig,
    EmbeddingStore,
    FormatError,
    StabilityError,
    UnknownTokenError,
    Vocabulary,
    decode_ids,
    detokenize,
    encode_ids,
    reference_tokenize,
    select_mask,
)
from alienlang.bijection import KEY_FORMAT_VERSION, bucket_index
from alienlang.fileio import parse_json
from alienlang.seeding import derive_rng
from alienlang.translator import ID_STREAM_MAGIC
from alienlang.vocab import _surrogate_encode, check_ids, first_non_id

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


def identity_key(vocab: Vocabulary) -> BijectionKey:
    """A rho=0 key for the vocabulary: empty mask, encode is identity."""
    return BijectionKey(KEY_FORMAT_VERSION, vocab.fingerprint, BuildConfig(rho=0.0), {})


def random_vocab(
    rng: np.random.Generator,
    n: int,
    min_len: int = 3,
    max_len: int = 10,
    specials: int = 0,
    letters: bytes = LOWER.encode(),
) -> Vocabulary:
    """n unique random tokens spelled from `letters` (lowercase by default);
    the last `specials` ids are special."""
    alphabet = np.frombuffer(letters, dtype=np.uint8)
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


def markov_ngram_inputs(
    rng: np.random.Generator,
    ids: int,
    successors: int,
    mix: float,
    sizes: tuple[int, int, int],
    sentence: int,
) -> tuple[list, list, list]:
    """n-gram attack inputs drawn from a Markov source over ids 0..ids-1.

    Each next id is, with probability ``mix``, one of the previous id's
    ``successors`` fixed successors, and otherwise a Zipf draw over all ids,
    so contexts are dense.  A random permutation stands in for the key.
    ``sizes`` gives the leaked, evaluation and public token counts, cut into
    sequences of at most ``sentence`` ids.  Returns (leaked pairs,
    evaluation pairs, public corpus).
    """
    table = rng.integers(0, ids, size=(ids, successors))
    zipf = 1.0 / np.arange(1, ids + 1)
    zipf /= zipf.sum()
    perm = rng.permutation(ids)

    def sentences(total: int) -> list[list[int]]:
        out = []
        for start in range(0, total, sentence):
            length = min(sentence, total - start)
            seq = rng.choice(ids, size=length, p=zipf)
            pick = rng.integers(0, successors, size=length)
            for i in np.flatnonzero(rng.random(length) < mix):
                if i:  # in ascending order, so seq[i - 1] is already final
                    seq[i] = table[seq[i - 1], pick[i]]
            out.append(seq.tolist())
        return out

    def aligned(plains: list[list[int]]) -> list[tuple]:
        return [(plain, perm[plain].tolist()) for plain in plains]

    leaked, evaluated, public = (sentences(total) for total in sizes)
    return aligned(leaked), aligned(evaluated), public


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


def oracle_tokenize(text: bytes, vocab: Vocabulary) -> list[int] | int:
    """Greedy longest match the slow way: at each offset, try every entry length
    that fits in the rest of the text, longest first.  Returns the ids, or the
    offset at which no entry matches."""
    lengths = sorted({len(t) for t in vocab.token_to_id}, reverse=True)
    ids: list[int] = []
    pos = 0
    while pos < len(text):
        fits = [n for n in lengths if pos + n <= len(text) and text[pos : pos + n] in vocab.token_to_id]
        if not fits:
            return pos
        ids.append(vocab.token_to_id[text[pos : pos + fits[0]]])
        pos += fits[0]
    return ids


def reference_load_vocab(path, specials_path=None) -> Vocabulary:
    """``load_vocab`` entry by entry: each string is checked and encoded, each
    special looked up and each id folded in turn, in the order that decides
    which fault a malformed file reports."""

    def reject_duplicates(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise FormatError(f"duplicate token string {key!r} in vocab file")
            out[key] = value
        return out

    obj = parse_json(
        Path(path).read_bytes(), "vocab file", dict,
        errors="surrogateescape", object_pairs_hook=reject_duplicates,
    )
    entries = [(_surrogate_encode(tok_str), tid) for tok_str, tid in obj.items()]
    special_ids: list[int] = []
    if specials_path is not None:
        spec_list = parse_json(
            Path(specials_path).read_bytes(), "specials file", list, errors="surrogateescape"
        )
        token_map = {tok: tid for tok, tid in entries}
        for tok_str in spec_list:
            if not isinstance(tok_str, str):
                raise FormatError(f"specials file entry {tok_str!r} is not a token string")
            tok = _surrogate_encode(tok_str)
            if tok not in token_map:
                raise UnknownTokenError(f"special token {tok_str!r} absent from vocab")
            special_ids.append(token_map[tok])

    bad = first_non_id([tid for _, tid in entries])
    if bad is not None:
        tok, tid = entries[bad]
        raise FormatError(f"token id {tid!r} of {tok!r} is not an integer")
    id_to_token: dict[int, bytes] = {}
    for tok, tid in entries:
        if tid in id_to_token:
            raise FormatError(f"duplicate token id {tid}")
        id_to_token[tid] = tok
    check_ids(special_ids, FormatError)
    return Vocabulary(id_to_token=id_to_token, specials=frozenset(special_ids))


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
    """``build_key``'s mapping, the slow way: see :func:`reference_greedy_walk`."""
    return reference_greedy_walk(vocab, store, config)[0]


def reference_greedy_walk(
    vocab: Vocabulary, store: EmbeddingStore, config: BuildConfig
) -> tuple[dict[int, int], dict[int, int]]:
    """``build_key``'s mapping, the slow way: an oracle for the retrieval -> pairing handoff.

    Per bucket cell, each masked token's candidates are the first ``k`` of all
    other members sorted by (-cosine, id), each scored
    ``edit - mu * (1 - cos)`` with :func:`oracle_levenshtein`.  Tokens are
    walked in ascending order, each pairing with its best-scoring available
    candidate (ties to the lower id); leftovers are paired by the same seeded
    shuffle as ``build_key``.  With exact cosines (:func:`axis_store`) float
    summation order cannot matter, so the mappings must be equal.

    Also returns, for each greedily paired token, the token whose turn in
    the walk paired it (the token itself, or the one that took it).
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
    paired_by: dict[int, int] = {}
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
                paired_by[i] = paired_by[partner] = i
                available -= {i, partner}
        leftovers = np.asarray([i for i in members if i in available], dtype=np.int64)
        shuffled = derive_rng("fallback", config.seed, cell).permutation(leftovers).tolist()
        if len(shuffled) % 2 == 1:
            fp = shuffled.pop()
            mapping[fp] = fp
        for a, b in zip(shuffled[0::2], shuffled[1::2]):
            mapping[a], mapping[b] = b, a
    return mapping, paired_by


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
