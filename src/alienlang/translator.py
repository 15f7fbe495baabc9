"""Lossless translation between plaintext and alien form under a key.

The canonical transport form is the token-ID sequence; rendered text is a
view.  Rendering an ID sequence and re-tokenizing it does not always
reproduce the same IDs (adjacent alien tokens can merge), so every rendered
document is checked for that fixpoint and flagged.  Unsafe renderings fall
back to the ID-stream transport format, so losslessness never depends on
retokenization behavior.  A rendering that begins with the ID-stream header
is unsafe too, since decoding would read it as an ID stream.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .bijection import BijectionKey
from .errors import ArgumentError, CompatibilityError, FormatError, StabilityError
from .vocab import TokenSequence, Vocabulary, detokenize, reference_tokenize

ID_STREAM_MAGIC = "#alien-ids v1"


@dataclass(frozen=True)
class AlienDocument:
    """An alien-side document: IDs plus an optional rendered text view."""

    ids: TokenSequence
    rendered: bytes | None = None
    retokenization_safe: bool = False


def _check_fingerprint(seq: TokenSequence, key: BijectionKey) -> None:
    if seq.fingerprint is not None and seq.fingerprint != key.vocab_fingerprint:
        raise CompatibilityError("sequence and key belong to different vocabularies")


def encode_ids(z: TokenSequence, key: BijectionKey) -> TokenSequence:
    """Apply the key elementwise; unmasked and special IDs pass through."""
    _check_fingerprint(z, key)
    mapping = key.mapping
    return TokenSequence(
        ids=tuple(mapping.get(i, i) for i in z.ids),
        fingerprint=key.vocab_fingerprint,
    )


def decode_ids(z_alien: TokenSequence, key: BijectionKey) -> TokenSequence:
    """Inverse of :func:`encode_ids`; identical map because keys are involutions."""
    return encode_ids(z_alien, key)


def encode_text(
    x: bytes,
    key: BijectionKey,
    vocab: Vocabulary,
    strict: bool = False,
    tokenizer=None,
) -> AlienDocument:
    """Tokenize, remap, render; verify the retokenization fixpoint.

    ``tokenizer`` may override the reference tokenizer with any callable
    (bytes, vocab) -> TokenSequence.
    """
    if key.vocab_fingerprint != vocab.fingerprint:
        raise CompatibilityError("key was built for a different vocabulary")
    tok = tokenizer or reference_tokenize
    ids = encode_ids(tok(x, vocab), key)
    rendered = detokenize(ids, vocab)
    if rendered.startswith(ID_STREAM_MAGIC.encode("ascii")):
        # decode_text would parse this rendering as an ID stream.
        if strict:
            raise StabilityError("rendered text starts with the ID-stream header", position=0)
        return AlienDocument(ids=ids, rendered=rendered, retokenization_safe=False)
    recheck = tok(rendered, vocab)
    safe = recheck.ids == ids.ids
    if strict and not safe:
        pos = next(
            (p for p, (a, b) in enumerate(zip(ids.ids, recheck.ids)) if a != b),
            min(len(ids.ids), len(recheck.ids)),
        )
        raise StabilityError(
            f"rendered text does not retokenize to the transmitted ids "
            f"(first divergence at token {pos})",
            position=pos,
        )
    return AlienDocument(ids=ids, rendered=rendered, retokenization_safe=safe)


def decode_text(
    x_alien: bytes | AlienDocument,
    key: BijectionKey,
    vocab: Vocabulary,
    tokenizer=None,
) -> bytes:
    """Recover plaintext from an alien document or rendered alien bytes.

    ID-form input bypasses retokenization entirely.  Text-form input is
    re-encoded after decoding as a stability check: if the result does not
    reproduce the input, the rendering was unstable and the ID form is needed.
    """
    if key.vocab_fingerprint != vocab.fingerprint:
        raise CompatibilityError("key was built for a different vocabulary")
    if isinstance(x_alien, AlienDocument):
        return detokenize(decode_ids(x_alien.ids, key), vocab)
    if not isinstance(x_alien, bytes):
        raise ArgumentError("decode_text expects bytes or an AlienDocument")
    if x_alien.startswith(ID_STREAM_MAGIC.encode("ascii")):
        seqs = read_id_stream(io.StringIO(x_alien.decode("ascii")), key.vocab_fingerprint)
        return b"".join(detokenize(decode_ids(s, key), vocab) for s in seqs)
    tok = tokenizer or reference_tokenize
    ids = tok(x_alien, vocab)
    plain = detokenize(decode_ids(ids, key), vocab)
    roundtrip = detokenize(encode_ids(tok(plain, vocab), key), vocab)
    if roundtrip != x_alien:
        raise StabilityError(
            "alien text is not a stable rendering (ID form unavailable); "
            "transport the document as an ID stream instead"
        )
    return plain


def write_id_stream(
    target, sequences: Iterable[TokenSequence | Sequence[int]], fingerprint: int
) -> None:
    """Write the ID-stream transport format (header line plus ID lines)."""
    own = isinstance(target, (str, Path))
    fp = open(target, "w", encoding="ascii") if own else target
    try:
        fp.write(f"{ID_STREAM_MAGIC} fingerprint={fingerprint:016x}\n")
        for seq in sequences:
            ids = seq.ids if isinstance(seq, TokenSequence) else tuple(seq)
            fp.write(" ".join(str(i) for i in ids) + "\n")
    finally:
        if own:
            fp.close()


def read_id_stream(source, expect_fingerprint: int | None = None) -> list[TokenSequence]:
    """Parse the ID-stream transport format, checking the fingerprint header."""
    own = isinstance(source, (str, Path))
    fp = open(source, "r", encoding="ascii") if own else source
    try:
        header = fp.readline().rstrip("\n")
        parts = header.split()
        if parts[: 2] != ID_STREAM_MAGIC.split() or len(parts) != 3:
            raise FormatError("missing or malformed ID-stream header")
        if not parts[2].startswith("fingerprint="):
            raise FormatError("ID-stream header lacks a fingerprint")
        fingerprint = int(parts[2].split("=", 1)[1], 16)
        if expect_fingerprint is not None and fingerprint != expect_fingerprint:
            raise CompatibilityError("ID stream belongs to a different vocabulary")
        out = []
        for lineno, line in enumerate(fp, start=2):
            line = line.strip()
            try:
                ids = tuple(int(t) for t in line.split()) if line else ()
            except ValueError as e:
                raise FormatError(f"line {lineno}: not a space-separated ID list") from e
            out.append(TokenSequence(ids=ids, fingerprint=fingerprint))
        return out
    finally:
        if own:
            fp.close()


def _id_stream_text(ids: TokenSequence, fingerprint: int) -> str:
    buf = io.StringIO()
    write_id_stream(buf, [ids], fingerprint)
    return buf.getvalue()


@dataclass
class DatasetSummary:
    records: int
    tokens: int
    unsafe_renderings: int

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "tokens": self.tokens,
            "unsafe_renderings": self.unsafe_renderings,
        }


class DatasetFormatError(FormatError):
    """A JSONL record could not be parsed or has an unsupported shape."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _translate_field(
    text: str, key: BijectionKey, vocab: Vocabulary, strict: bool, stats: DatasetSummary
) -> str:
    raw = text.encode("utf-8", errors="surrogateescape")
    doc = encode_text(raw, key, vocab, strict=strict)
    stats.tokens += len(doc.ids)
    if doc.retokenization_safe:
        return doc.rendered.decode("utf-8", errors="surrogateescape")
    stats.unsafe_renderings += 1
    return _id_stream_text(doc.ids, key.vocab_fingerprint)


def _restore_field(text: str, key: BijectionKey, vocab: Vocabulary) -> str:
    raw = text.encode("utf-8", errors="surrogateescape")
    return decode_text(raw, key, vocab).decode("utf-8", errors="surrogateescape")


def transform_record(
    record: dict, key: BijectionKey, vocab: Vocabulary, strict: bool, stats: DatasetSummary
) -> dict:
    """Translate the content fields of one record, leaving the rest verbatim."""
    out = dict(record)
    if "messages" in record:
        if not isinstance(record["messages"], list):
            raise FormatError('"messages" must be an array')
        msgs = []
        for msg in record["messages"]:
            if not isinstance(msg, dict) or not isinstance(msg.get("content"), str):
                raise FormatError('each message needs a string "content" field')
            new = dict(msg)
            new["content"] = _translate_field(msg["content"], key, vocab, strict, stats)
            msgs.append(new)
        out["messages"] = msgs
        return out
    if "instruction" in record or "response" in record:
        for field_name in ("instruction", "response"):
            if field_name in record:
                if not isinstance(record[field_name], str):
                    raise FormatError(f'"{field_name}" must be a string')
                out[field_name] = _translate_field(record[field_name], key, vocab, strict, stats)
        return out
    raise FormatError('record has neither "messages" nor "instruction"/"response"')


def alienize_dataset(
    input_path: str | Path,
    key: BijectionKey,
    vocab: Vocabulary,
    output_path: str | Path,
    strict: bool = False,
) -> DatasetSummary:
    """Emit the alienized twin of a JSONL dataset, preserving structure.

    Supported record shapes: {"instruction", "response"} and {"messages":
    [{"role", "content"}, ...]}.  Unknown fields pass through unchanged.  In
    lenient mode an unstable rendering is emitted as an embedded ID stream;
    in strict mode it aborts.
    """
    stats = DatasetSummary(records=0, tokens=0, unsafe_renderings=0)
    with open(input_path, "r", encoding="utf-8") as src, open(
        output_path, "w", encoding="utf-8"
    ) as dst:
        for lineno, line in enumerate(src, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise FormatError("record is not a JSON object")
                translated = transform_record(record, key, vocab, strict, stats)
            except StabilityError as e:
                raise DatasetFormatError(lineno, f"unstable rendering: {e}") from e
            except FormatError as e:
                raise DatasetFormatError(lineno, str(e)) from e
            except json.JSONDecodeError as e:
                raise DatasetFormatError(lineno, f"invalid JSON: {e}") from e
            dst.write(json.dumps(translated, ensure_ascii=True, sort_keys=False) + "\n")
            stats.records += 1
    return stats


def restore_dataset(
    input_path: str | Path,
    key: BijectionKey,
    vocab: Vocabulary,
    output_path: str | Path,
) -> DatasetSummary:
    """Inverse of :func:`alienize_dataset` for content fields (test utility)."""
    stats = DatasetSummary(records=0, tokens=0, unsafe_renderings=0)
    with open(input_path, "r", encoding="utf-8") as src, open(
        output_path, "w", encoding="utf-8"
    ) as dst:
        for lineno, line in enumerate(src, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(lineno, f"invalid JSON: {e}") from e
            out = dict(record)
            if "messages" in record:
                out["messages"] = [
                    {**m, "content": _restore_field(m["content"], key, vocab)}
                    for m in record["messages"]
                ]
            else:
                for field_name in ("instruction", "response"):
                    if field_name in record:
                        out[field_name] = _restore_field(record[field_name], key, vocab)
            dst.write(json.dumps(out, ensure_ascii=True, sort_keys=False) + "\n")
            stats.records += 1
    return stats
