"""The batched edit-distance kernel against an independent brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alienlang import ArgumentError, editdist
from helpers import oracle_levenshtein


KNOWN_CASES = [
    (b"", b"", 0),
    (b"abc", b"", 3),
    (b"", b"xyz", 3),
    (b"kitten", b"sitting", 3),
    (b"flaw", b"lawn", 2),
    (b"come", b"comes", 1),
    (b"come", b"world", 4),
    (b"come", b"cup", 3),
    (b"come", b"here", 3),
    (b"come", b"hello", 5),
    (b"ab", b"cd", 2),
    (b"same", b"same", 0),
    (b"\0", b"", 1),
    (b"a\0", b"a", 1),
    (b"\0\0\0", b"\0", 2),
]


def by_bytes(batch, left, right):
    """``batch`` over the pairs ``(left[i], right[i])`` of two lists of byte strings."""
    n = len(left)
    return batch(np.arange(n), np.arange(n, n + len(right)), [*left, *right])


@pytest.mark.parametrize("a,b,expected", KNOWN_CASES)
def test_known_distances(a, b, expected):
    assert editdist.levenshtein(a, b) == expected
    assert oracle_levenshtein(a, b) == expected


# NUL is the kernel's padding byte, so it must be an ordinary byte to the result.
@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80), st.binary(max_size=80))
def test_matches_oracle(a, b):
    assert editdist.levenshtein(a, b) == oracle_levenshtein(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.binary(max_size=80), st.binary(max_size=80)), max_size=12))
def test_mixed_batch_matches_oracle(pairs):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    expected = [oracle_levenshtein(a, b) for a, b in pairs]
    assert by_bytes(editdist.levenshtein_batch, left, right).tolist() == expected


def test_word_boundary_lengths_in_one_batch():
    # Shorter sides of 0, 1, 63 and 64 bytes take the bit kernel (or the empty
    # shortcut); 65 and 130 take the DP.  All of them share one batch.
    rng = np.random.default_rng(3)
    lengths = (0, 1, 63, 64, 65, 130)
    alphabet = np.frombuffer(b"\0\x01ab", dtype=np.uint8)

    def draw(n):
        return rng.choice(alphabet, size=n).tobytes()

    left, right = [], []
    for la in lengths:
        for lb in lengths:
            left.append(draw(la))
            right.append(draw(lb))
    left.append(b"\0" * 64)
    right.append(b"\0" * 130)
    got = by_bytes(editdist.levenshtein_batch, left, right)
    assert got.dtype == np.int32
    assert got.tolist() == [oracle_levenshtein(a, b) for a, b in zip(left, right)]


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=70), st.binary(max_size=70))
def test_symmetry(a, b):
    assert editdist.levenshtein(a, b) == editdist.levenshtein(b, a)


def _draw_pairs(seed, count, max_len):
    rng = np.random.default_rng(seed)

    def draw():
        return bytes(rng.integers(97, 100, size=int(rng.integers(0, max_len)), dtype=np.uint8))

    return [draw() for _ in range(count)], [draw() for _ in range(count)]


def test_batch_matches_scalar():
    left, right = _draw_pairs(7, 200, 70)
    batch = by_bytes(editdist.levenshtein_batch, left, right)
    assert batch.tolist() == [oracle_levenshtein(a, b) for a, b in zip(left, right)]
    assert batch.tolist() == [editdist.levenshtein(a, b) for a, b in zip(left, right)]


def test_many_chunks_match_oracle(monkeypatch):
    # A small chunk splits the batch into many kernel passes over length-sorted
    # pairs; every distance must still land at its own index.
    monkeypatch.setattr(editdist, "_CHUNK", 7)
    left, right = _draw_pairs(8, 200, 70)
    batch = by_bytes(editdist.levenshtein_batch, left, right)
    assert batch.tolist() == [oracle_levenshtein(a, b) for a, b in zip(left, right)]


def test_empty_batch():
    assert editdist.levenshtein_batch([], [], []).shape == (0,)
    assert editdist.normalized_batch([], [], []).shape == (0,)


def test_batch_length_mismatch():
    with pytest.raises(ValueError):
        by_bytes(editdist.levenshtein_batch, [b"a"], [b"a", b"b"])


def test_normalized():
    assert editdist.normalized_levenshtein(b"ab", b"cd") == 1.0
    assert editdist.normalized_levenshtein(b"", b"") == 0.0
    assert editdist.normalized_levenshtein(b"abcd", b"abce") == 0.25


def test_normalized_batch():
    out = by_bytes(editdist.normalized_batch, [b"ab", b"abcd", b""], [b"cd", b"abce", b""])
    assert out.tolist() == [1.0, 0.25, 0.0]


# ---------------------------------------------------------------------------
# The index form: pairs as indices into one list of surfaces


def _all_pairs(surfaces):
    """Every ordered pair of indices, self-pairs included."""
    n = len(surfaces)
    return [i for i in range(n) for _ in range(n)], [j for _ in range(n) for j in range(n)]


def _assert_index_form(left, right, surfaces):
    expected = [oracle_levenshtein(surfaces[i], surfaces[j]) for i, j in zip(left, right)]
    got = editdist.levenshtein_batch(left, right, surfaces)
    assert got.dtype == np.int32
    assert got.tolist() == expected
    # the same pairs laid out as one surface per pair side give the same distances
    byte_form = by_bytes(
        editdist.levenshtein_batch, [surfaces[i] for i in left], [surfaces[j] for j in right]
    )
    assert byte_form.tolist() == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_form_matches_oracle(data):
    surfaces = data.draw(st.lists(st.binary(max_size=80), min_size=1, max_size=8))
    index = st.integers(0, len(surfaces) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=24))
    _assert_index_form([i for i, _ in pairs], [j for _, j in pairs], surfaces)


def test_index_form_edge_bytes_and_lengths():
    # NUL (the old padding byte), bytes >= 0x80, empty surfaces, and shorter
    # sides on both sides of the 64-byte word.
    surfaces = [
        b"",
        b"\0",
        b"\0\0a",
        b"a\0\0",
        bytes(range(0x80, 0x90)),
        b"\xff\x80\0" * 3,
        b"ab\x80\0" * 16,  # 64 bytes
        b"ab\x80\0" * 16 + b"\0",  # 65 bytes
        b"\0" * 70,
        b"\xfe" * 130,
    ]
    _assert_index_form(*_all_pairs(surfaces), surfaces)


def test_index_form_one_byte_alphabet():
    surfaces = [b"a" * n for n in range(0, 140, 9)]
    left, right = _all_pairs(surfaces)
    _assert_index_form(left, right, surfaces)
    got = editdist.levenshtein_batch(left, right, surfaces).tolist()
    assert got == [abs(len(surfaces[i]) - len(surfaces[j])) for i, j in zip(left, right)]


def test_index_form_every_byte_value():
    rng = np.random.default_rng(11)
    every = bytes(range(256))
    # windows of all 256 byte values as patterns, plus random full-range strings
    surfaces = [every[lo : lo + 64] for lo in range(0, 256, 32)]
    surfaces += [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes() for n in (1, 7, 40, 64, 90)]
    _assert_index_form(*_all_pairs(surfaces), surfaces)


def test_index_form_many_chunks(monkeypatch):
    monkeypatch.setattr(editdist, "_CHUNK", 5)
    rng = np.random.default_rng(12)
    surfaces = _draw_pairs(13, 40, 70)[0]
    left = rng.integers(0, len(surfaces), size=300).tolist()
    right = rng.integers(0, len(surfaces), size=300).tolist()
    _assert_index_form(left, right, surfaces)


def test_index_form_accepts_arrays_and_normalizes():
    surfaces = [b"ab", b"cd", b"abcd", b"abce", b""]
    left, right = np.array([0, 2, 4, 3]), np.array([1, 3, 4, 3])
    assert editdist.levenshtein_batch(left, right, surfaces).tolist() == [2, 1, 0, 0]
    assert editdist.normalized_batch(left, right, surfaces).tolist() == [1.0, 0.25, 0.0, 0.0]


@pytest.mark.parametrize(
    "left,right", [([0], [2]), ([-1], [0]), ([0, 1], [1, 2]), ([2**70], [0])]
)
def test_index_form_rejects_out_of_range(left, right):
    with pytest.raises(IndexError):
        editdist.levenshtein_batch(left, right, [b"a", b"b"])


def test_index_form_length_mismatch():
    with pytest.raises(ValueError):
        editdist.levenshtein_batch([0], [0, 1], [b"a", b"b"])


def test_reoriented_kernel_matches_dp_in_both_orders():
    # The pattern is the longer side when it fits in a word and the shorter
    # one otherwise, and a pair runs in 16- or 64-bit words by its longer
    # side; every orientation and word size must agree with the plain DP.
    rng = np.random.default_rng(24)
    lengths = (0, 1, 15, 16, 17, 32, 33, 63, 64, 65, 100)
    surfaces = [rng.choice(np.frombuffer(b"ab\0\xff", np.uint8), size=n).tobytes() for n in lengths]
    surfaces += [b"a" * n for n in lengths]
    left, right = _all_pairs(surfaces)
    got = editdist.levenshtein_batch(left, right, surfaces).tolist()
    assert got == [editdist._dp(surfaces[i], surfaces[j]) for i, j in zip(left, right)]
    assert got == editdist.levenshtein_batch(right, left, surfaces).tolist()


@pytest.mark.parametrize(
    "left,right",
    [([0.9], [1]), ([0], [1.0]), ([True], [1]), ([0], [False]), (np.array([0.0]), [1])],
)
def test_non_integer_index_rejected(left, right):
    surfaces = [b"ab", b"cd"]
    for batch in (editdist.levenshtein_batch, editdist.normalized_batch):
        with pytest.raises(ArgumentError):
            batch(left, right, surfaces)


def test_numpy_integer_list_index_accepted():
    surfaces = [b"kitten", b"sitting"]
    for left in (list(np.arange(2)), [np.int32(0), 1], [np.uint8(0), np.uint8(1)]):
        assert editdist.levenshtein_batch(left, [1, 0], surfaces).tolist() == [3, 3]
    with pytest.raises(ArgumentError):
        editdist.levenshtein_batch([np.float64(0.0)], [1], surfaces)


@pytest.mark.parametrize("a,b", [("kitten", "sitting"), (b"kitten", bytearray(b"sitting")), (None, b"")])
def test_non_bytes_surface_rejected(a, b):
    for scalar in (editdist.levenshtein, editdist.normalized_levenshtein):
        with pytest.raises(ArgumentError):
            scalar(a, b)
    for batch in (editdist.levenshtein_batch, editdist.normalized_batch):
        with pytest.raises(ArgumentError):
            batch([0], [1], [a, b])


def test_passes_stay_within_the_index_budget(monkeypatch):
    # A pass holds pairs x its longest text <= _CHUNK table-index entries, or a
    # single pair; every distance still lands at its own index.
    monkeypatch.setattr(editdist, "_CHUNK", 100)
    passes = []
    distances = editdist.Surfaces.distances

    def spy(self, pat, txt, m, n, word):
        passes.append((len(pat), int(n.max())))
        return distances(self, pat, txt, m, n, word)

    monkeypatch.setattr(editdist.Surfaces, "distances", spy)
    rng = np.random.default_rng(25)
    surfaces = [rng.integers(97, 100, size=n, dtype=np.uint8).tobytes() for n in range(1, 140, 11)]
    _assert_index_form(*_all_pairs(surfaces), surfaces)
    assert len(passes) > 10
    assert all(pairs * text <= 100 or pairs == 1 for pairs, text in passes)
