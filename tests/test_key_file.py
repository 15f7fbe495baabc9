"""Fuzz the key-file loader: malformed input may only raise ToolkitError.

Inputs are a valid key document with up to three fields replaced or
removed, and arbitrary bytes.  A document that does load must be an involution whose
save/load round trip is stable.  Any config that BuildConfig accepts must save
and reload to an equal config.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alienlang import (
    ArgumentError,
    BuildConfig,
    FormatError,
    ToolkitError,
    key_from_pairs,
    load_key,
    save_key,
)
from helpers import vocab_from

VOCAB = vocab_from([b"aa", b"bb", b"cc", b"dd", b"ee", b"<s>"], specials=[b"<s>"])
KEY = key_from_pairs(VOCAB, [(0, 3), (1, 4)], BuildConfig(k=5, seed=9, buckets=2), [2])


def valid_document() -> dict:
    return {
        "version": 1,
        "vocab_fingerprint": f"{KEY.vocab_fingerprint:016x}",
        "config": {
            "k": 5, "mu": 1.0, "rho": 1.0, "seed": 9, "buckets": 2,
            "greedy_batch": 50, "edit_mode": "normalized",
        },
        "fixed_points": [2],
        "mapping": [[0, 3], [1, 4]],
    }


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-5, 10),
        st.integers(),
        st.floats(),
        st.text(max_size=8),
        st.sampled_from(["raw", "normalized", "ff", "-1", "0x1f", "١", "\ud800"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
# paths into the document: top-level fields, config fields, pair entries and their ids
PATHS = st.sampled_from(
    [(name,) for name in valid_document()]
    + [("config", name) for name in valid_document()["config"]]
    + [("mapping", 0), ("mapping", 1), ("mapping", 0, 0), ("mapping", 1, 1), ("fixed_points", 0)]
)

DELETE = object()


def replace_at(doc, path, value):
    """Set (or delete) the field at ``path`` if an earlier edit left it reachable."""
    *parents, last = path
    try:
        for step in parents:
            doc = doc[step]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value
    except (KeyError, IndexError, TypeError):
        pass


@st.composite
def mutated_documents(draw):
    doc = valid_document()
    for _ in range(draw(st.integers(1, 3))):
        replace_at(doc, draw(PATHS), draw(st.one_of(st.just(DELETE), JSON_VALUES)))
    return json.dumps(doc).encode("utf-8")


key_files = st.one_of(
    mutated_documents(),
    st.binary(max_size=200),
    st.just(b"[" * 100_000),
    st.just(b'{"version": 1, "config": ' + b"9" * 5000 + b"}"),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_document_loads(scratch):
    path = scratch / "valid.json"
    path.write_text(json.dumps(valid_document()))
    assert load_key(path).mapping == KEY.mapping


@pytest.mark.parametrize(
    "field, value",
    [("mapping", [[-5, 0]]), ("mapping", [[-2, -1]]), ("fixed_points", [-1])],
)
def test_negative_ids_rejected(scratch, field, value):
    doc = valid_document()
    doc[field] = value
    path = scratch / "negative.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="non-negative|0 <= i < j"):
        load_key(path)


@settings(max_examples=300, deadline=None)
@given(key_files)
def test_load_key_fuzz(scratch, data):
    path, again = scratch / "key.json", scratch / "again.json"
    path.write_bytes(data)
    try:
        key = load_key(path)
    except ToolkitError:
        return
    key.validate()
    save_key(key, again)
    back = load_key(again)
    assert (back.mapping, back.config, back.vocab_fingerprint) == (
        key.mapping,
        key.config,
        key.vocab_fingerprint,
    )


FIELD_VALUES = st.one_of(
    st.integers(-2, 200),
    st.integers(),
    st.sampled_from([10**400, 10**5000]),  # past float64, past the int/str conversion limit
    st.floats(),  # nan and both infinities included
    st.floats(0, 1),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.sampled_from(["raw", "normalized"]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(0, 1).map(np.float64),
)
CONFIG_KWARGS = st.fixed_dictionaries(
    {}, optional={f.name: FIELD_VALUES for f in fields(BuildConfig)}
)


@settings(max_examples=300, deadline=None)
@given(CONFIG_KWARGS)
def test_any_config_that_constructs_round_trips(scratch, kwargs):
    try:
        config = BuildConfig(**kwargs)
    except ArgumentError:
        return
    path = scratch / "config.json"
    save_key(key_from_pairs(VOCAB, [(0, 3)], config), path)
    assert load_key(path).config == config
