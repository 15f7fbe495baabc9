"""Lossless translation between plaintext and alien form under a key.

The canonical transport form is the token-ID sequence; rendered text is a
view.  Rendering an ID sequence and re-tokenizing it does not always
reproduce the same IDs (adjacent alien tokens can merge), so every rendered
document is checked for that fixpoint and flagged.  Unsafe renderings fall
back to the ID-stream transport format (:func:`to_wire` makes that choice),
so losslessness never depends on retokenization behavior.  A rendering that
begins with the ID-stream header is unsafe too, since decoding would read it
as an ID stream.

The fixpoint is checked without tokenizing twice by
:func:`~alienlang.vocab.first_merge`, the one owner of the retokenization
rule.  :func:`encode_text` thus tokenizes once, and
:attr:`AlienDocument.merge_at` records the first token that would merge.  The
text path of :func:`decode_text` tokenizes once too, and re-encodes in full
only when the decoded tokens are not a fixpoint.
"""

from __future__ import annotations

import io
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .bijection import BijectionKey, check_key
from .errors import ArgumentError, CompatibilityError, CoverageError, FormatError, StabilityError
from .fileio import atomic_write, parse_json
from .vocab import (
    TokenSequence,
    Vocabulary,
    _parse_fingerprint,
    detokenize,
    first_merge,
    parse_id_line,
    read_lines,
    reference_tokenize,
    write_id_lines,
)

ID_STREAM_MAGIC = "#alien-ids v1"


@dataclass(frozen=True)
class AlienDocument:
    """An alien-side document: IDs plus an optional rendered text view.

    ``merge_at`` is the index of the first token that retokenizing
    ``rendered`` would absorb into a longer entry, the reason the rendering
    is unsafe.  It is None for a safe rendering, and for one that is unsafe
    only because it starts with the ID-stream header.
    """

    ids: TokenSequence
    rendered: bytes | None = None
    retokenization_safe: bool = False
    merge_at: int | None = None


def _check_fingerprint(seq: TokenSequence, key: BijectionKey) -> None:
    if seq.fingerprint is not None and seq.fingerprint != key.vocab_fingerprint:
        raise CompatibilityError("sequence and key belong to different vocabularies")


def encode_ids(z: TokenSequence, key: BijectionKey) -> TokenSequence:
    """Apply the key elementwise; unmasked and special IDs pass through."""
    _check_fingerprint(z, key)
    mapping = key.mapping
    return TokenSequence(
        ids=tuple(map(mapping.get, z.ids, z.ids)),
        fingerprint=key.vocab_fingerprint,
    )


def decode_ids(z_alien: TokenSequence, key: BijectionKey) -> TokenSequence:
    """Inverse of :func:`encode_ids`; identical map because keys are involutions."""
    return encode_ids(z_alien, key)


def _translate(x: bytes, key: BijectionKey, vocab: Vocabulary) -> tuple[TokenSequence, bytes]:
    """The text pipeline both ways: tokenize, map through the key, render."""
    ids = encode_ids(reference_tokenize(x, vocab), key)
    return ids, detokenize(ids, vocab)


def encode_text(
    x: bytes,
    key: BijectionKey,
    vocab: Vocabulary,
    strict: bool = False,
) -> AlienDocument:
    """Tokenize, remap, render; verify the retokenization fixpoint."""
    if key.vocab_fingerprint != vocab.fingerprint:
        raise CompatibilityError("key was built for a different vocabulary")
    ids, rendered = _translate(x, key, vocab)
    if rendered.startswith(ID_STREAM_MAGIC.encode("ascii")):
        # decode_text would parse this rendering as an ID stream.
        if strict:
            raise StabilityError("rendered text starts with the ID-stream header", position=0)
        return AlienDocument(ids=ids, rendered=rendered, retokenization_safe=False)
    merge = first_merge(ids.ids, rendered, vocab)
    if strict and merge is not None:
        raise StabilityError(
            f"rendered text does not retokenize to the transmitted ids (first divergence "
            f"at token {merge.index}: {merge.token!r} merges into {merge.entry!r})",
            position=merge.index,
        )
    at = None if merge is None else merge.index
    return AlienDocument(ids=ids, rendered=rendered, retokenization_safe=at is None, merge_at=at)


def decode_text(
    x_alien: bytes | AlienDocument,
    key: BijectionKey,
    vocab: Vocabulary,
) -> bytes:
    """Recover plaintext from an alien document or rendered alien bytes.

    ID-form input bypasses retokenization entirely.  Text-form input is
    tokenized and decoded; it is accepted at once when the decoded tokens are
    a retokenization fixpoint, since the plaintext then re-encodes to exactly
    the input.  Otherwise it is re-encoded in full as a stability check: if
    the result does not reproduce the input, the rendering was unstable and
    the ID form is needed (the StabilityError's ``position`` is the first
    decoded token that merges).
    """
    if key.vocab_fingerprint != vocab.fingerprint:
        raise CompatibilityError("key was built for a different vocabulary")
    if isinstance(x_alien, AlienDocument):
        return detokenize(decode_ids(x_alien.ids, key), vocab)
    if not isinstance(x_alien, bytes):
        raise ArgumentError("decode_text expects bytes or an AlienDocument")
    if x_alien.startswith(ID_STREAM_MAGIC.encode("ascii")):
        seqs = read_id_stream(x_alien, vocab)
        return b"".join(detokenize(decode_ids(s, key), vocab) for s in seqs)
    plain_ids, plain = _translate(x_alien, key, vocab)  # the key is an involution
    merge = first_merge(plain_ids.ids, plain, vocab)
    # a fixpoint re-encodes to exactly x_alien; anything else is re-encoded in full
    if merge is not None and _translate(plain, key, vocab)[1] != x_alien:
        raise StabilityError(
            "alien text is not a stable rendering (ID form unavailable); "
            "transport the document as an ID stream instead",
            position=merge.index,
        )
    return plain


def to_wire(doc: AlienDocument, key: BijectionKey) -> bytes:
    """A document's wire bytes: its rendering if retokenization-safe, else an ID stream."""
    if doc.retokenization_safe:
        return doc.rendered
    buf = io.StringIO()
    write_id_stream(buf, [doc.ids], key.vocab_fingerprint)
    return buf.getvalue().encode("ascii")


def write_id_stream(target, sequences: Iterable[Iterable[int]], fingerprint: int) -> None:
    """Write the ID-stream transport format (header line plus ID lines)."""
    own = isinstance(target, (str, Path))
    with atomic_write(target, encoding="ascii") if own else nullcontext(target) as fp:
        fp.write(f"{ID_STREAM_MAGIC} fingerprint={fingerprint:016x}\n")
        write_id_lines(fp, sequences)


def read_id_stream(source, vocab: Vocabulary) -> list[TokenSequence]:
    """Read an ID file (a path, its bytes or a file object): one sequence of IDs per line.

    Line 1 may be the ID-stream header, whose fingerprint must be the
    vocabulary's.  Every ID must be in ``vocab``; an error names its line.
    """
    sequences = []
    for lineno, line in read_lines(source):
        if lineno == 1 and line.startswith(ID_STREAM_MAGIC.split()[0]):
            parts = line.split()
            if parts[:2] != ID_STREAM_MAGIC.split() or len(parts) != 3:
                raise FormatError("line 1: missing or malformed ID-stream header")
            name, _, value = parts[2].partition("=")
            if name != "fingerprint":
                raise FormatError("line 1: ID-stream header lacks a hexadecimal fingerprint")
            fingerprint = _parse_fingerprint(value, "line 1: ID-stream header fingerprint")
            if fingerprint != vocab.fingerprint:
                raise CompatibilityError("ID stream belongs to a different vocabulary")
            continue
        sequences.append(parse_id_line(line, lineno, vocab))
    return sequences


@dataclass
class DatasetSummary:
    records: int
    tokens: int
    unsafe_renderings: int


def read_jsonl(source) -> Iterator[tuple[int, dict]]:
    """Yield (line number, JSON object) for each non-blank line of a JSONL source."""
    for lineno, line in read_lines(source):
        if line.strip():
            yield lineno, parse_json(line, f"line {lineno}: record", dict)


def _walk_record(record: dict, field_fn: Callable[[str], str]) -> dict:
    """Apply ``field_fn`` to every content field a record holds, leaving the rest verbatim.

    The content fields are ``instruction``, ``response`` and each message's
    ``content``, whichever of them the record holds.
    """
    if not record.keys() & {"messages", "instruction", "response"}:
        raise FormatError('record has neither "messages" nor "instruction"/"response"')
    out = dict(record)
    if "messages" in record:
        msgs = record["messages"]
        if not isinstance(msgs, list):
            raise FormatError('"messages" must be an array')
        if not all(isinstance(m, dict) and isinstance(m.get("content"), str) for m in msgs):
            raise FormatError('each message needs a string "content" field')
        out["messages"] = [{**m, "content": field_fn(m["content"])} for m in msgs]
    for name in ("instruction", "response"):
        if name in record:
            if not isinstance(record[name], str):
                raise FormatError(f'"{name}" must be a string')
            out[name] = field_fn(record[name])
    return out


def alienize_dataset(
    input_path: str | Path,
    key: BijectionKey,
    vocab: Vocabulary,
    output_path: str | Path,
    strict: bool = False,
) -> DatasetSummary:
    """Emit the alienized twin of a JSONL dataset, preserving structure.

    Every content field a record holds is translated: ``instruction``,
    ``response`` and each ``content`` of a ``messages`` array of {"role",
    "content"} objects.  Unknown fields pass through unchanged.  In
    lenient mode an unstable rendering is emitted as an embedded ID stream;
    in strict mode it aborts.  The output is written atomically, so a failure
    leaves it as it was.
    """
    check_key(key, vocab)
    stats = DatasetSummary(records=0, tokens=0, unsafe_renderings=0)

    def translate(text: str) -> str:
        doc = encode_text(text.encode("utf-8", errors="surrogateescape"), key, vocab, strict)
        stats.tokens += len(doc.ids)
        stats.unsafe_renderings += not doc.retokenization_safe
        return to_wire(doc, key).decode("utf-8", errors="surrogateescape")

    # the input opens first, so a missing input creates no temp file
    with open(input_path, "rb") as src, atomic_write(output_path, encoding="utf-8") as dst:
        for lineno, record in read_jsonl(src):
            try:
                out = _walk_record(record, translate)
            except StabilityError as e:
                raise FormatError(f"line {lineno}: unstable rendering: {e}") from e
            except (FormatError, CoverageError, UnicodeEncodeError) as e:
                # UnicodeEncodeError: a lone surrogate from a \ud800 escape
                raise FormatError(f"line {lineno}: {e}") from e
            dst.write(json.dumps(out, ensure_ascii=True, sort_keys=False) + "\n")
            stats.records += 1
    return stats
