"""Shared fixture builders (synthetic vocabularies and embedding stores) and
reference oracles."""

from __future__ import annotations

import numpy as np

from alienlang import (
    EmbeddingStore,
    StabilityError,
    Vocabulary,
    decode_ids,
    detokenize,
    encode_ids,
    reference_tokenize,
)
from alienlang.translator import ID_STREAM_MAGIC

LOWER = "abcdefghijklmnopqrstuvwxyz"


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
