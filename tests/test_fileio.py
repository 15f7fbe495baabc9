"""Atomic output: a write that fails midway leaves the previous file as it was."""

import json

import numpy as np
import pytest

import alienlang.fileio as fileio
from alienlang import (
    BuildConfig,
    EmbeddingStore,
    emit_summary,
    key_from_pairs,
    save_embeddings,
    save_key,
    save_vocab,
    write_pretokenized,
)
from alienlang.cli import main
from alienlang.fileio import atomic_write
from alienlang.translator import alienize_dataset
from helpers import half_write_open, vocab_from

VOCAB = vocab_from([b"a", b"b", b"c", b"d"])
KEY = key_from_pairs(VOCAB, [(0, 1)], BuildConfig(k=3))
STORE = EmbeddingStore(rows=np.eye(4))
PREVIOUS = b"previous contents\n"


def test_failed_block_leaves_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(PREVIOUS)
    with pytest.raises(RuntimeError):
        with atomic_write(path, "wb") as fp:
            fp.write(b"partial")
            raise RuntimeError("stop")
    assert path.read_bytes() == PREVIOUS
    assert list(tmp_path.iterdir()) == [path]


def test_completed_block_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(PREVIOUS)
    with atomic_write(path, encoding="utf-8") as fp:
        fp.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [path]


def _cli(*argv):
    """A CLI run writing to ``{out}``; its exit code."""
    return lambda d, out: main([a.format(d=d, out=out) for a in argv])


VOCAB_KEY = ("--vocab", "{d}/vocab.json", "--key", "{d}/key.json")
WRITERS = {
    "save_key": lambda d, out: save_key(KEY, out),
    "emit_summary": lambda d, out: emit_summary([{"records": 1}], out),
    "write_pretokenized": lambda d, out: write_pretokenized([[0, 1], [2]], out),
    "save_vocab": lambda d, out: save_vocab(VOCAB, out),
    "save_embeddings binary": lambda d, out: save_embeddings(STORE, out),
    "alienize_dataset": lambda d, out: alienize_dataset(d / "data.jsonl", KEY, VOCAB, out),
    "cli encode": _cli("encode", *VOCAB_KEY, "{d}/text.txt", "{out}"),
    "cli encode --ids": _cli("encode", *VOCAB_KEY, "--ids", "{d}/ids.txt", "{out}"),
    "cli decode": _cli("decode", *VOCAB_KEY, "{d}/text.txt", "{out}"),
    "cli decode --ids": _cli("decode", *VOCAB_KEY, "--ids", "{d}/ids.txt", "{out}"),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_write_failing_midway_leaves_previous_file(tmp_path, monkeypatch, writer):
    save_vocab(VOCAB, tmp_path / "vocab.json")
    save_key(KEY, tmp_path / "key.json")
    (tmp_path / "text.txt").write_bytes(b"abcd")
    (tmp_path / "ids.txt").write_text("0 1 2\n")
    (tmp_path / "data.jsonl").write_text(json.dumps({"instruction": "abcd"}) + "\n")
    inputs = sorted(tmp_path.iterdir())
    out = tmp_path / "out"
    out.write_bytes(PREVIOUS)
    monkeypatch.setattr(fileio, "open", half_write_open, raising=False)
    if writer.startswith("cli"):
        assert WRITERS[writer](tmp_path, out) == 1  # the CLI reports the OSError
    else:
        with pytest.raises(OSError):
            WRITERS[writer](tmp_path, out)
    assert out.read_bytes() == PREVIOUS
    assert sorted(tmp_path.iterdir()) == sorted([*inputs, out])  # no temp file left behind
