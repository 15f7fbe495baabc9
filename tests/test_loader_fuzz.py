"""Fuzz the JSON and embedding loaders: malformed input may only raise ToolkitError.

Covers the vocab file, the specials file, text and binary embedding files
and the summary file.  Each gets documents near its format's edges (huge
integers, deep nesting, lone surrogates, wrong JSON shapes, broken headers
and rows) as well as arbitrary bytes.  Text embedding headers stay small:
every file either declares at most ``MAX_CELLS`` matrix cells or has no
two-integer header at all, so even a loader that sized its matrix from the
header before reading a row would allocate little.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alienlang import ToolkitError, load_embeddings, load_vocab, read_summary
from helpers import in_ascii_embedding_grammar

MAX_CELLS = 4096


def as_json(doc) -> bytes:
    return json.dumps(doc).encode("ascii")


# JSON edge texts: deep nesting, an integer past the int-parsing digit limit,
# an id past 64 bits, lone surrogates (one that surrogateescape can carry, one
# it cannot) and documents of the wrong JSON type
EDGE_TEXTS = [
    "[" * 100_000,
    '{"a":' * 50_000,
    "9" * 5000,
    '{"a": ' + "9" * 5000 + "}",
    '{"a": 18446744073709551616}',
    '{"\\ud800": 1}',
    '{"\\udcff": 1}',
    '["\\ud800"]',
    '{"schema_version": 1, "reports": [' + "9" * 5000 + "]}",
    "[]",
    '"text"',
    "null",
]
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-5, 300),
        st.integers(),
        st.sampled_from([2**64 - 1, 2**64, -(2**63)]),
        st.floats(),
        st.text(max_size=6),
        st.sampled_from(["\ud800", "\udcff", "a", "b", "<s>"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=10,
)
TOKENS = st.one_of(
    st.sampled_from(["a", "b", "ab", "<s>", "\udcff", "\ud800", ""]), st.text(max_size=4)
)
vocab_documents = st.one_of(
    st.dictionaries(TOKENS, st.one_of(st.integers(0, 20), JSON_VALUES), max_size=6),
    JSON_VALUES,
).map(as_json)
specials_documents = st.one_of(st.lists(TOKENS, max_size=4), JSON_VALUES).map(as_json)


def json_files(documents):
    return st.one_of(
        documents,
        st.sampled_from(EDGE_TEXTS).map(lambda text: text.encode("ascii")),
        st.binary(max_size=200),
    )


VALID_VOCAB = json.dumps({"a": 0, "b": 1, "ab": 2, "<s>": 3}).encode("ascii")


def small_header(data: bytes) -> bool:
    """False if the first line of ``data`` is an "n d" header declaring over MAX_CELLS cells.

    The first line ends at the first LF, as the text loader's lines do; a
    first line that is not UTF-8 makes the loader fail before it reads a row.
    """
    first = data.split(b"\n", 1)[0].decode("utf-8", errors="replace")
    try:
        n, d = (int(p) for p in first.split())
    except ValueError:  # not two integers: the loader stops at the header
        return True
    return n * d <= MAX_CELLS


NUMBERS = [
    b"0", b"1", b"2", b"-1", b"0.5", b"1e999", b"nan", b"inf", b"x", b"9" * 5000,
    b"\xff", b"\xc3\xa9", "١".encode("utf-8"),  # Arabic-Indic one, which int() accepts
    b"1_0", b"+1", b"0x1p3",
]
DIM = st.one_of(st.integers(-1, 6).map(lambda v: str(v).encode("ascii")), st.sampled_from(NUMBERS))
text_embedding_files = st.one_of(
    st.builds(
        lambda n, d, rows: b"%s %s\n" % (n, d) + b"".join(b" ".join(row) + b"\n" for row in rows),
        DIM,
        DIM,
        st.lists(st.lists(st.sampled_from(NUMBERS), max_size=8), max_size=8),
    ),
    st.binary(max_size=200),
).filter(small_header)


def aemb(version: int, n: int, d: int, payload: bytes) -> bytes:
    return struct.pack("<4sIII", b"AEMB", version, n, d) + payload


UINT32 = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
FLOATS = st.lists(st.floats(width=32), max_size=12).map(lambda vs: struct.pack(f"<{len(vs)}f", *vs))
binary_embedding_files = st.one_of(
    st.builds(
        aemb, st.sampled_from([1, 2]), UINT32, UINT32, st.one_of(FLOATS, st.binary(max_size=48))
    ),
    st.binary(max_size=40).map(lambda tail: b"AEMB" + tail),
)
summary_documents = st.one_of(
    st.fixed_dictionaries(
        {"schema_version": st.one_of(st.just(1), JSON_VALUES)},
        optional={"reports": JSON_VALUES},
    ),
    JSON_VALUES,
).map(as_json)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def only_toolkit_errors(fn, *args):
    try:
        return fn(*args)
    except ToolkitError:
        return None


@settings(max_examples=300, deadline=None)
@given(json_files(vocab_documents))
def test_load_vocab_fuzz(scratch, data):
    path = scratch / "vocab.json"
    path.write_bytes(data)
    only_toolkit_errors(load_vocab, path)


@settings(max_examples=200, deadline=None)
@given(json_files(specials_documents))
def test_load_specials_fuzz(scratch, data):
    vocab, specials = scratch / "vocab.json", scratch / "specials.json"
    vocab.write_bytes(VALID_VOCAB)
    specials.write_bytes(data)
    only_toolkit_errors(load_vocab, vocab, specials)


@settings(max_examples=300, deadline=None)
@given(text_embedding_files)
def test_load_text_embeddings_fuzz(scratch, data):
    path = scratch / "emb.txt"
    path.write_bytes(data)
    if only_toolkit_errors(load_embeddings, path) is not None:
        assert in_ascii_embedding_grammar(data)


@settings(max_examples=200, deadline=None)
@given(binary_embedding_files)
def test_load_binary_embeddings_fuzz(scratch, data):
    path = scratch / "emb.aemb"
    path.write_bytes(data)
    only_toolkit_errors(load_embeddings, path)


@settings(max_examples=200, deadline=None)
@given(json_files(summary_documents))
def test_read_summary_fuzz(scratch, data):
    path = scratch / "summary.json"
    path.write_bytes(data)
    only_toolkit_errors(read_summary, path)
