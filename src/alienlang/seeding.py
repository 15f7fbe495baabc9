"""Deterministic, domain-separated seed derivation.

All randomized steps (mask selection, bucket assignment, fallback pairing)
draw from independent streams derived from the one user-facing seed.  Domain
separation means changing a parameter that feeds one stream (say, rho) never
reshuffles another (say, bucket layout).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

import numpy as np

_PREFIX = b"alienlang.v1"


def _blob(part: object) -> bytes:
    """One part as hashed: length-prefixed so ("ab", "c") and ("a", "bc") differ."""
    blob = part if isinstance(part, bytes) else str(part).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob


def _state(parts: Iterable[object]):
    """A blake2b state that has consumed the prefix and ``parts``."""
    h = hashlib.blake2b(digest_size=16)
    h.update(_PREFIX)
    for part in parts:
        h.update(_blob(part))
    return h


def derive_seed(*parts: object) -> int:
    """128-bit integer seed from a domain string plus arbitrary parts.

    Parts are length-prefixed before hashing so ("ab", "c") and ("a", "bc")
    derive different seeds.
    """
    return int.from_bytes(_state(parts).digest(), "big")


def derive_seeds(parts: Iterable[object], lasts: Iterable[object]) -> list[int]:
    """``derive_seed(*parts, last)`` for each of ``lasts``.

    The shared ``parts`` are hashed once, and that state is copied per last.
    """
    copy = _state(parts).copy
    seeds = []
    for last in lasts:
        h = copy()
        h.update(_blob(last))
        seeds.append(int.from_bytes(h.digest(), "big"))
    return seeds


def derive_rng(*parts: object) -> np.random.Generator:
    """PCG64 generator seeded from :func:`derive_seed` of the parts."""
    return np.random.default_rng(derive_seed(*parts))
