"""Shared fixture builders: synthetic vocabularies and embedding stores."""

from __future__ import annotations

import numpy as np

from alienlang import EmbeddingStore, Vocabulary

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
