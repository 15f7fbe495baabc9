"""Vocabularies, the reference tokenizer, and ID lines.

A :class:`Vocabulary` stores its id -> token table and its special ids;
the reverse table and the fingerprint are derived from those on
construction, however the vocabulary is made.

Token strings are byte sequences throughout, so vocabularies containing
raw-byte tokens load and round-trip losslessly.  In the JSON vocab file,
non-UTF-8 bytes are carried as lone-surrogate escapes (``"\\udcff"`` is the
single byte 0xFF); Python's json module accepts these in both directions.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ArgumentError, CoverageError, FormatError, ToolkitError, UnknownTokenError
from .fileio import atomic_write, parse_json

# Ids and text embedding numbers are ASCII decimal: int() also takes signs, underscores
# and non-ASCII digits, and str.split() splits at non-ASCII spaces.
DIGIT = "[0-9]"
_ID_LINE = re.compile(rf"(?:{DIGIT}|\s)*", re.ASCII)


def first_non_id(values: Sequence) -> int | None:
    """The index of the first of ``values`` that is not a token id, or None if each is one.

    A token id is an int that is not a bool: True, 2.0 or np.int64(2) would look up as an id.
    """
    if {int}.issuperset(map(type, values)):
        return None
    return next(i for i, value in enumerate(values) if type(value) is not int)


def check_ids(ids: Sequence, error: type[ToolkitError]) -> None:
    """Raise ``error`` naming the first of ``ids`` that is not a token id."""
    bad = first_non_id(ids)
    if bad is not None:
        raise error(f"token id {ids[bad]!r} is not an int")


def check_count(name: str, value, least: int) -> None:
    """Raise ArgumentError unless ``value`` is an int, not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArgumentError(f"{name} must be int, not {type(value).__name__}")
    if value < least:
        raise ArgumentError(f"{name} must be >= {least}")


def _surrogate_encode(s: str) -> bytes:
    try:
        return s.encode("utf-8", errors="surrogateescape")
    except UnicodeEncodeError as e:  # a lone surrogate outside U+DC80..U+DCFF carries no byte
        raise FormatError(f"token string {s!r} holds a surrogate that is not a byte escape") from e


def _surrogate_decode(b: bytes) -> str:
    return b.decode("utf-8", errors="surrogateescape")


def _fingerprint(id_to_token: dict[int, bytes], specials: frozenset[int]) -> int:
    """64-bit content hash over sorted (id, string) pairs plus the special set."""
    h = hashlib.blake2b(digest_size=8)
    h.update(b"vocab-fp-v1")
    for tid in sorted(id_to_token):
        tok = id_to_token[tid]
        try:
            h.update(struct.pack("<QQ", tid, len(tok)))
        except struct.error as e:
            raise FormatError(f"token id {tid} does not fit in 64 bits") from e
        h.update(tok)
    h.update(b"|specials|")
    for tid in sorted(specials):
        h.update(struct.pack("<Q", tid))
    return int.from_bytes(h.digest(), "big")


def _parse_fingerprint(text: object, what: str) -> int:
    """A fingerprint written as 1-16 hexadecimal digits; anything else raises FormatError."""
    if not (isinstance(text, str) and re.fullmatch(r"[0-9a-fA-F]{1,16}", text)):
        raise FormatError(f"{what} {text!r} is not 1-16 hexadecimal digits")
    return int(text, 16)


@dataclass(frozen=True)
class TokenSequence:
    """An ordered token-ID sequence tied to a vocabulary fingerprint."""

    ids: tuple[int, ...]
    fingerprint: int | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token-string <-> token-ID table with a designated special set."""

    id_to_token: dict[int, bytes]
    specials: frozenset[int]
    token_to_id: dict[bytes, int] = field(init=False)
    fingerprint: int = field(init=False)

    def __post_init__(self):
        # Each check is one pass in C: loading a large vocabulary runs them all.
        table = self.id_to_token
        check_ids(tuple(table), FormatError)
        if not all(table.values()):
            raise FormatError("empty token string is not allowed")
        if min(table, default=0) < 0:
            raise FormatError(f"negative token id {min(table)}")
        token_to_id = dict(zip(table.values(), table))
        if len(token_to_id) != len(table):
            tok = next(tok for tid, tok in table.items() if token_to_id[tok] != tid)
            raise FormatError(f"duplicate token string {tok!r}")
        check_ids(tuple(self.specials), FormatError)
        missing = self.specials.difference(table)
        if missing:
            raise UnknownTokenError(f"special ids not in vocabulary: {sorted(missing)}")
        object.__setattr__(self, "token_to_id", token_to_id)
        object.__setattr__(self, "fingerprint", _fingerprint(table, self.specials))

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[tuple[bytes, int]],
        special_ids: Iterable[int] = (),
    ) -> "Vocabulary":
        entries = list(entries)
        bad = first_non_id([tid for _, tid in entries])
        if bad is not None:
            tok, tid = entries[bad]
            raise FormatError(f"token id {tid!r} of {tok!r} is not an integer")
        id_to_token: dict[int, bytes] = {}
        for tok, tid in entries:
            if not isinstance(tok, bytes):
                tok = _surrogate_encode(tok)
            if tid in id_to_token:
                raise FormatError(f"duplicate token id {tid}")
            id_to_token[tid] = tok
        special_ids = list(special_ids)
        check_ids(special_ids, FormatError)  # before repeats fold: True would fold into 1
        return cls(id_to_token=id_to_token, specials=frozenset(special_ids))

    def __len__(self) -> int:
        return len(self.id_to_token)

    @cached_property
    def _lengths_by_first_byte(self) -> tuple[tuple[int, ...], ...]:
        """For each byte value, the lengths of the entries starting with it,
        longest first: the match lengths the greedy tokenizer tries there.
        Derived on first use."""
        lengths: list[set[int]] = [set() for _ in range(256)]
        for tok in self.token_to_id:
            lengths[tok[0]].add(len(tok))
        return tuple(tuple(sorted(found, reverse=True)) for found in lengths)

    @cached_property
    def extension_lengths(self) -> dict[int, tuple[int, ...]]:
        """For each token that is a proper prefix of another entry, the lengths
        of the entries extending it, ascending.

        Only these tokens can be absorbed into a longer match when a rendering
        is retokenized (see :func:`first_merge`).  Derived on first use, so
        loading a vocabulary does not pay for it; the first encode or decode
        in a process does.  Entries are grouped by length and their prefixes
        looked up with ``map``, which keeps the per-prefix work in C.
        """
        table = self.token_to_id
        by_length: dict[int, list[bytes]] = {}
        for tok in table:
            by_length.setdefault(len(tok), []).append(tok)
        longer: dict[int, list[int]] = {}
        for length in sorted(by_length):
            tokens = by_length[length]
            prefix_ids: set[int | None] = set()
            for cut in range(1, length):
                prefix_ids.update(map(table.get, map(itemgetter(slice(cut)), tokens)))
            prefix_ids.discard(None)
            for tid in prefix_ids:
                longer.setdefault(tid, []).append(length)
        return {tid: tuple(lengths) for tid, lengths in longer.items()}

    @property
    def permutable_ids(self) -> tuple[int, ...]:
        """All non-special token IDs, ascending (the set I)."""
        return tuple(tid for tid in sorted(self.id_to_token) if tid not in self.specials)

    def token_of(self, tid: int) -> bytes:
        try:
            return self.id_to_token[tid]
        except KeyError:
            raise UnknownTokenError(f"unknown token id {tid}") from None

    def sequence(self, ids: Iterable[int]) -> TokenSequence:
        """Wrap raw IDs as a TokenSequence, checking the whole sequence at once for membership."""
        ids = tuple(ids)
        check_ids(ids, ArgumentError)
        return self._known_sequence(ids)

    def _known_sequence(self, ids: tuple[int, ...]) -> TokenSequence:
        """``ids``, all of type int, as a TokenSequence once each is found in the vocabulary."""
        table = self.id_to_token
        if not all(map(table.__contains__, ids)):
            raise UnknownTokenError(f"unknown token id {next(t for t in ids if t not in table)}")
        return TokenSequence(ids=ids, fingerprint=self.fingerprint)


def load_vocab(path: str | Path, specials_path: str | Path | None = None) -> Vocabulary:
    """Load a vocabulary from a JSON object {token_string: id}.

    The optional specials file is a JSON array of token strings; each must
    resolve to a vocabulary entry.
    """

    def reject_duplicates(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise FormatError(f"duplicate token string {key!r} in vocab file")
            out[key] = value
        return out

    obj = parse_json(
        Path(path).read_bytes(), "vocab file", dict,
        errors="surrogateescape", object_pairs_hook=reject_duplicates,
    )
    entries = [(_surrogate_encode(tok_str), tid) for tok_str, tid in obj.items()]

    special_ids: list[int] = []
    if specials_path is not None:
        spec_list = parse_json(
            Path(specials_path).read_bytes(), "specials file", list, errors="surrogateescape"
        )
        token_map = {tok: tid for tok, tid in entries}
        for tok_str in spec_list:
            if not isinstance(tok_str, str):
                raise FormatError(f"specials file entry {tok_str!r} is not a token string")
            tok = _surrogate_encode(tok_str)
            if tok not in token_map:
                raise UnknownTokenError(f"special token {tok_str!r} absent from vocab")
            special_ids.append(token_map[tok])

    return Vocabulary.from_entries(entries, special_ids)


def save_vocab(vocab: Vocabulary, path: str | Path, specials_path: str | Path | None = None) -> None:
    """Write a vocabulary (and optionally its specials) back to JSON files."""
    obj = {_surrogate_decode(tok): tid for tid, tok in sorted(vocab.id_to_token.items())}
    with atomic_write(path, encoding="utf-8") as fp:
        fp.write(json.dumps(obj, ensure_ascii=True, indent=0) + "\n")
    if specials_path is not None:
        names = [_surrogate_decode(vocab.id_to_token[tid]) for tid in sorted(vocab.specials)]
        with atomic_write(specials_path, encoding="utf-8") as fp:
            fp.write(json.dumps(names, ensure_ascii=True) + "\n")


def reference_tokenize(text: bytes, vocab: Vocabulary) -> TokenSequence:
    """Greedy longest-match tokenization from the left.

    Deterministic by construction, and concatenating the matched token strings
    reproduces the input exactly, which gives the detokenize round-trip for
    free.  This is a reference tokenizer, not a BPE reimplementation; real
    tokenizers interoperate through pretokenized ID streams instead.
    """
    if not isinstance(text, bytes):
        raise ArgumentError("reference_tokenize expects bytes")
    ids: list[int] = []
    table = vocab.token_to_id
    lengths = vocab._lengths_by_first_byte
    pos = 0
    n = len(text)
    while pos < n:
        # A slice past the end is the rest of the text, the longest match there.
        for length in lengths[text[pos]]:
            piece = text[pos : pos + length]
            tid = table.get(piece)
            if tid is not None:
                ids.append(tid)
                pos += len(piece)
                break
        else:
            raise CoverageError(
                f"no token matches input at byte offset {pos} "
                f"(next bytes: {text[pos : pos + 8]!r})"
            )
    return TokenSequence(ids=tuple(ids), fingerprint=vocab.fingerprint)


class Merge(NamedTuple):
    """Token ``index``, the string ``token``, is absorbed by ``entry`` on retokenization."""

    index: int
    token: bytes
    entry: bytes


def first_merge(ids: Iterable[int], rendered: bytes, vocab: Vocabulary) -> Merge | None:
    """The first token that retokenizing ``rendered`` would not reproduce.

    ``rendered`` is the concatenation of the tokens ``ids``.  Greedy longest
    match reproduces token ``t_i`` at its byte offset unless a longer entry
    matches there, and any such entry starts with ``t_i``; so only tokens in
    :attr:`Vocabulary.extension_lengths` are tested, at their own offsets.
    Returns None when ``ids`` is a retokenization fixpoint of ``rendered``;
    otherwise the :class:`Merge` of the first token whose offset greedy
    matching would cover with a longer entry, which is where
    ``reference_tokenize(rendered)`` first differs from ``ids``, and of the
    longest entry matching there.
    """
    table = vocab.token_to_id
    tokens = vocab.id_to_token
    extensions = vocab.extension_lengths
    n = len(rendered)
    pos = 0
    for i, tid in enumerate(ids):
        longer = extensions.get(tid)
        if longer is not None:
            for length in reversed(longer):  # longest first: the entry greedy matching takes
                if pos + length <= n and rendered[pos : pos + length] in table:
                    return Merge(i, tokens[tid], rendered[pos : pos + length])
        pos += len(tokens[tid])
    return None


def detokenize(ids: Iterable[int], vocab: Vocabulary) -> bytes:
    """Concatenate token strings in order."""
    try:
        return b"".join(map(vocab.id_to_token.__getitem__, ids))
    except KeyError as e:
        raise UnknownTokenError(f"unknown token id {e.args[0]}") from None


def read_lines(source) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) from a path, a byte string or a file object.

    The one line reader of every line format.  Lines end at each newline
    byte; a line whose bytes are not UTF-8 raises :class:`FormatError` naming it.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fp:
            yield from read_lines(fp)
        return
    for lineno, line in enumerate(io.BytesIO(source) if isinstance(source, bytes) else source, 1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"line {lineno}: not UTF-8 ({e.reason} at byte {e.start})") from e
        yield lineno, line


def parse_id_line(line: str, lineno: int, vocab: Vocabulary) -> TokenSequence:
    """Parse one line of space-separated decimal token IDs, each in ``vocab``."""
    if _ID_LINE.fullmatch(line):
        try:
            return vocab._known_sequence(tuple(map(int, line.split())))
        except UnknownTokenError as e:
            raise UnknownTokenError(f"line {lineno}: {e}") from None
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(f"line {lineno}: not a space-separated ID list")


def write_id_lines(fp, sequences: Iterable[Iterable[int]]) -> None:
    """Write each sequence to a text file object as one line of space-separated IDs."""
    for seq in sequences:
        fp.write(" ".join(map(str, seq)) + "\n")


def write_pretokenized(sequences: Iterable[Iterable[int]], path: str | Path) -> None:
    with atomic_write(path, encoding="utf-8") as fp:
        write_id_lines(fp, sequences)
