"""Fuzz the line-format readers: malformed input may only raise ToolkitError.

Each reader gets bytes built from fragments that sit near its format's edges
(signs, underscores, non-ASCII digits, stray carriage returns, bytes that are
not UTF-8, broken headers) as well as arbitrary binary.
"""

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alienlang import (
    ToolkitError,
    alienize_dataset,
    decode_text,
    identity_key,
    read_id_stream,
    read_pretokenized,
)
from alienlang.cli import _is_id_list, _read_records
from alienlang.translator import ID_STREAM_MAGIC, restore_dataset
from helpers import byte_complete_vocab

VOCAB = byte_complete_vocab(extra_tokens=[b"ab", b"the"])
KEY = identity_key(VOCAB)
HEADER = f"{ID_STREAM_MAGIC} fingerprint={VOCAB.fingerprint:016x}\n".encode("ascii")

ID_FRAGMENTS = [
    b"0", b"7", b"42", b"258", b"999999", b"9" * 5000, b" ", b"\t", b"\n", b"\r",
    b"-", b"+", b"_", b"x", b"0x1f", b"1.5", b"\x00", b"\xff", b"\xc3\xa9",
    "١٢".encode("utf-8"),  # Arabic-Indic digits, which int() would accept
    " ".encode("utf-8"),  # a non-ASCII space, which str.split() would accept
]


def near(fragments, max_size=40):
    joined = st.lists(st.sampled_from(fragments), max_size=max_size).map(b"".join)
    return st.one_of(joined, st.binary(max_size=200))


id_lines = near(ID_FRAGMENTS)
headers = st.sampled_from(
    [
        HEADER,
        HEADER.upper(),
        f"{ID_STREAM_MAGIC} fingerprint={VOCAB.fingerprint:x}\n".encode("ascii"),
        f"{ID_STREAM_MAGIC} fingerprint=zz\n".encode("ascii"),
        f"{ID_STREAM_MAGIC} fingerprint=\n".encode("ascii"),
        f"{ID_STREAM_MAGIC} fingerprint=١\n".encode("utf-8"),
        f"{ID_STREAM_MAGIC} fingerprint={'f' * 40}\n".encode("ascii"),
        f"{ID_STREAM_MAGIC} fp=00\n".encode("ascii"),
        f"{ID_STREAM_MAGIC}\n".encode("ascii"),
        f"{ID_STREAM_MAGIC} fingerprint=00 extra\n".encode("ascii"),
        f"{ID_STREAM_MAGIC}\xff\n".encode("latin-1"),
        b"",
    ]
)

# JSON texts near the dataset, pair and probe-eval shapes
STRINGS = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["\ud800", "\udcff", "#alien-ids v1", "#alien-ids v1 fingerprint=zz\n1"]),
    st.sampled_from([HEADER.decode("ascii") + "1 2\n", HEADER.decode("ascii") + "١\n"]),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 300), st.floats(allow_nan=False), STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=12,
)
FIELDS = ["messages", "instruction", "response", "content", "role", "plain", "alien", "reference"]
RECORDS = st.one_of(
    JSON_VALUES,
    st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=4),
    st.builds(
        lambda msgs: {"messages": msgs},
        st.lists(st.dictionaries(st.sampled_from(["role", "content"]), JSON_VALUES), max_size=3),
    ),
)
record_lines = st.one_of(
    RECORDS.map(lambda value: json.dumps(value).encode("ascii")),
    near([b"{", b"}", b"[", b"]", b'"', b":", b",", b"1", b"\\u", b"\xff", b"\n", b"\r"]),
    st.just(b"[" * 100_000),
)
jsonl_files = st.lists(record_lines, max_size=4).map(lambda lines: b"\n".join(lines) + b"\n")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def only_toolkit_errors(fn, *args):
    try:
        fn(*args)
    except ToolkitError:
        pass


@settings(max_examples=200, deadline=None)
@given(id_lines)
def test_read_pretokenized_fuzz(scratch, data):
    path = scratch / "ids.txt"
    path.write_bytes(data)
    only_toolkit_errors(read_pretokenized, path)
    only_toolkit_errors(read_pretokenized, path, VOCAB)


@settings(max_examples=200, deadline=None)
@given(headers, id_lines)
def test_read_id_stream_fuzz(scratch, header, body):
    path = scratch / "stream.txt"
    path.write_bytes(header + body)
    only_toolkit_errors(read_id_stream, path)
    only_toolkit_errors(read_id_stream, path, VOCAB.fingerprint)


@settings(max_examples=200, deadline=None)
@given(headers, id_lines)
def test_decode_text_id_stream_fuzz(header, body):
    data = ID_STREAM_MAGIC.encode("ascii") + header[len(ID_STREAM_MAGIC) :] + body
    only_toolkit_errors(decode_text, data, KEY, VOCAB)


@settings(max_examples=150, deadline=None)
@given(jsonl_files)
def test_dataset_walkers_fuzz(scratch, data):
    src, dst = scratch / "in.jsonl", scratch / "out.jsonl"
    src.write_bytes(data)
    only_toolkit_errors(alienize_dataset, src, KEY, VOCAB, dst)
    only_toolkit_errors(alienize_dataset, src, KEY, VOCAB, dst, True)
    only_toolkit_errors(restore_dataset, src, KEY, VOCAB, dst)


@settings(max_examples=150, deadline=None)
@given(jsonl_files)
def test_cli_record_files_fuzz(scratch, data):
    path = scratch / "records.jsonl"
    path.write_bytes(data)
    known = partial(_is_id_list, vocab=VOCAB)
    only_toolkit_errors(_read_records, str(path), ("plain", "alien"), known, "ids")
    only_toolkit_errors(
        _read_records, str(path), ("alien", "reference"), lambda v: isinstance(v, str), "strings"
    )
