import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alienlang import (
    ArgumentError,
    CoverageError,
    EmbeddingStore,
    FormatError,
    TokenSequence,
    UnknownTokenError,
    Vocabulary,
    detokenize,
    key_from_pairs,
    load_key,
    load_vocab,
    read_id_stream,
    reference_tokenize,
    save_key,
    save_vocab,
    write_pretokenized,
)
from alienlang.attacks import frequency_hypotheses, ngram_hypotheses
from alienlang.vocab import first_merge, parse_id_line
from helpers import byte_complete_vocab, identity_key, oracle_tokenize, vocab_from


def write_vocab_file(tmp_path, mapping, specials=None):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(mapping), encoding="utf-8")
    spath = None
    if specials is not None:
        spath = tmp_path / "specials.json"
        spath.write_text(json.dumps(specials), encoding="utf-8")
    return path, spath


class TestLoadVocab:
    def test_no_specials_all_permutable(self, tmp_path):
        path, _ = write_vocab_file(tmp_path, {c: i for i, c in enumerate("abcdef")})
        vocab = load_vocab(path)
        assert len(vocab.permutable_ids) == 6

    def test_two_specials_reduce_permutable(self, tmp_path):
        path, spath = write_vocab_file(
            tmp_path, {c: i for i, c in enumerate("abcdef")}, specials=["a", "f"]
        )
        vocab = load_vocab(path, spath)
        assert len(vocab.permutable_ids) == 4
        assert vocab.specials == {0, 5}

    def test_same_file_loaded_twice_equal_fingerprints(self, tmp_path):
        path, spath = write_vocab_file(
            tmp_path, {c: i for i, c in enumerate("abcdef")}, specials=["a"]
        )
        v1 = load_vocab(path, spath)
        v2 = load_vocab(path, spath)
        assert v1.fingerprint == v2.fingerprint
        # independent recomputation of the declared hash construction
        h = hashlib.blake2b(digest_size=8)
        h.update(b"vocab-fp-v1")
        for tid in sorted(v1.id_to_token):
            tok = v1.id_to_token[tid]
            h.update(struct.pack("<QQ", tid, len(tok)))
            h.update(tok)
        h.update(b"|specials|")
        for tid in sorted(v1.specials):
            h.update(struct.pack("<Q", tid))
        assert v1.fingerprint == int.from_bytes(h.digest(), "big")

    def test_duplicate_id_rejected(self):
        with pytest.raises(FormatError):
            Vocabulary.from_entries([(b"a", 0), (b"b", 0)])

    def test_special_id_outside_the_table_rejected(self):
        with pytest.raises(UnknownTokenError, match=r"^special ids not in vocabulary: \[5\]$"):
            Vocabulary.from_entries([(b"a", 0)], special_ids=[5])

    @pytest.mark.parametrize(
        "tid",
        [True, 1.5, "1", None, np.int64(1)],
        ids=["bool", "float", "str", "none", "numpy"],
    )
    def test_non_integer_id_rejected(self, tid):
        with pytest.raises(FormatError, match=r"token id .* of b'b' is not an integer"):
            Vocabulary.from_entries([(b"a", 0), (b"b", tid)])

    @pytest.mark.parametrize("text", ['{"a": true}', '{"a": 1.5}', '{"a": "1"}', '{"a": null}'])
    def test_vocab_file_non_integer_id_rejected(self, tmp_path, text):
        path = tmp_path / "vocab.json"
        path.write_text(text, encoding="ascii")
        with pytest.raises(FormatError, match="is not an integer"):
            load_vocab(path)

    def test_duplicate_string_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text('{"a": 0, "a": 1}', encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocab(path)

    def test_special_absent_is_reference_error(self, tmp_path):
        path, spath = write_vocab_file(tmp_path, {"a": 0}, specials=["zz"])
        with pytest.raises(UnknownTokenError):
            load_vocab(path, spath)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,  # nesting deeper than the JSON parser recurses
            '{"a": ' + "9" * 5000 + "}",  # an integer past the int-parsing digit limit
            '{"a": 18446744073709551616}',  # an id that does not fit in 64 bits
            '{"\\ud800": 0}',  # a lone surrogate that carries no byte
            # the escapes of bytes c3 bf and the character they encode: one token twice
            '{"\\udcc3\\udcbf": 0, "\\u00ff": 1}',
        ],
        ids=["deep", "huge-int", "id-past-64-bits", "lone-surrogate", "escape-spells-utf8"],
    )
    def test_malformed_vocab_file_rejected(self, tmp_path, text):
        path = tmp_path / "vocab.json"
        path.write_text(text, encoding="ascii")
        with pytest.raises(FormatError):
            load_vocab(path)

    def test_vocab_file_array_refused_with_shared_message(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text('["a", "b"]', encoding="ascii")
        with pytest.raises(FormatError, match="^vocab file must hold a JSON object, not list$"):
            load_vocab(path)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, "[" + "9" * 5000 + "]", '["\\ud800"]'],
        ids=["deep", "huge-int", "lone-surrogate"],
    )
    def test_malformed_specials_file_rejected(self, tmp_path, text):
        path, spath = write_vocab_file(tmp_path, {"a": 0}, specials=[])
        spath.write_text(text, encoding="ascii")
        with pytest.raises(FormatError):
            load_vocab(path, spath)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([(b"a", -1)], "^negative token id -1$"),
            ([(b"a", 0), (b"a", 1)], "^duplicate token string b'a'$"),
            # a str token is its UTF-8 bytes, a lone surrogate escaping one byte
            ([("\udcc3\udcbf", 0), ("\u00ff", 1)], r"^duplicate token string b'\\xc3\\xbf'$"),
        ],
        ids=["negative-id", "duplicate-bytes", "duplicate-after-encoding"],
    )
    def test_bad_entries_rejected(self, entries, message):
        with pytest.raises(FormatError, match=message):
            Vocabulary.from_entries(entries)

    def test_str_tokens_are_their_utf8_bytes(self):
        vocab = Vocabulary.from_entries([("\u00ff", 0), ("a\udcff", 1)])
        assert vocab.id_to_token == {0: b"\xc3\xbf", 1: b"a\xff"}

    def test_empty_token_rejected(self):
        with pytest.raises(FormatError):
            Vocabulary.from_entries([(b"", 0)])

    def test_raw_byte_tokens_round_trip(self, tmp_path):
        vocab = vocab_from([b"\xff", b"\x00\xfe", b"plain"])
        vpath = tmp_path / "v.json"
        spath = tmp_path / "s.json"
        save_vocab(vocab, vpath, spath)
        reloaded = load_vocab(vpath, spath)
        assert reloaded.id_to_token == vocab.id_to_token
        assert reloaded.fingerprint == vocab.fingerprint


class TestFingerprint:
    def test_entry_perturbation_changes_fingerprint(self):
        base = vocab_from([b"a", b"b", b"c"])
        changed = vocab_from([b"a", b"b", b"d"])
        assert base.fingerprint != changed.fingerprint

    def test_special_set_changes_fingerprint(self):
        plain = vocab_from([b"a", b"b", b"c"])
        special = vocab_from([b"a", b"b", b"c"], specials=[b"c"])
        assert plain.fingerprint != special.fingerprint


class TestReferenceTokenize:
    def test_empty_input(self):
        vocab = vocab_from([b"a"])
        assert reference_tokenize(b"", vocab).ids == ()

    def test_exact_single_token(self):
        vocab = vocab_from([b"hello", b"h"])
        assert reference_tokenize(b"hello", vocab).ids == (0,)

    def test_greedy_longest_match_hand_trace(self):
        # "aab": position 0 matches "a" (no "aa"); position 1 matches "ab".
        vocab = vocab_from([b"ab", b"a", b"b"])
        assert reference_tokenize(b"aab", vocab).ids == (1, 0)

    def test_coverage_error_reports_offset(self):
        vocab = vocab_from([b"a"])
        with pytest.raises(Exception) as exc_info:
            reference_tokenize(b"aaz", vocab)
        assert "2" in str(exc_info.value)

    def test_direct_construction_tokenizes_like_from_entries(self):
        entries = [(b"a", 0), (b"ab", 1), (b"b", 2)]
        built = Vocabulary.from_entries(entries)
        direct = Vocabulary(id_to_token={tid: tok for tok, tid in entries}, specials=frozenset())
        for text in (b"", b"a", b"abba", b"babab"):
            assert reference_tokenize(text, direct) == reference_tokenize(text, built)

    @pytest.mark.parametrize("text", ["abc", bytearray(b"abc"), memoryview(b"abc")])
    def test_input_that_is_not_bytes_rejected(self, text):
        with pytest.raises(ArgumentError, match="^reference_tokenize expects bytes$"):
            reference_tokenize(text, vocab_from([b"a", b"b", b"c"]))

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_oracle_on_vocabularies_that_are_not_byte_complete(self, trial):
        # Entries of 1-5 bytes over "abcde" leave some bytes without a token,
        # and most texts end inside a proper prefix of the longest entry.
        rng = np.random.default_rng(5300 + trial)
        alphabet = list(b"abcde")
        tokens = {bytes(rng.choice(alphabet, size=int(rng.integers(1, 6))).tolist()) for _ in range(14)}
        tokens = sorted(tokens | {bytes([c]) for c in b"abcd" if rng.random() < 0.8})
        vocab = vocab_from(tokens)
        longest = max(tokens, key=len)
        for _ in range(40):
            picks = rng.integers(0, len(tokens), size=int(rng.integers(0, 8)))
            text = b"".join(tokens[i] for i in picks.tolist())
            if rng.random() < 0.3:
                text += bytes(rng.choice(alphabet, size=3).tolist())
            text += longest[: int(rng.integers(0, len(longest)))]
            expected = oracle_tokenize(text, vocab)
            if isinstance(expected, list):
                assert list(reference_tokenize(text, vocab).ids) == expected
                continue
            with pytest.raises(CoverageError) as err:
                reference_tokenize(text, vocab)
            assert str(err.value) == (
                f"no token matches input at byte offset {expected} "
                f"(next bytes: {text[expected : expected + 8]!r})"
            )

    def test_deterministic(self):
        vocab = byte_complete_vocab(extra_tokens=[b"ab", b"abc"])
        text = b"abcabx" * 7
        assert reference_tokenize(text, vocab).ids == reference_tokenize(text, vocab).ids


class TestDirectConstruction:
    """A vocabulary's reverse table and fingerprint come from its table, never from its caller."""

    def test_round_trips_and_matches_from_entries(self):
        direct = Vocabulary(id_to_token={0: b"a", 1: b"b"}, specials=frozenset())
        ids = reference_tokenize(b"ab", direct)
        assert ids.ids == (0, 1)
        assert detokenize(ids, direct) == b"ab"
        built = Vocabulary.from_entries([(b"a", 0), (b"b", 1)])
        assert (direct.token_to_id, direct.fingerprint) == (built.token_to_id, built.fingerprint)

    @pytest.mark.parametrize("name, value", [("token_to_id", {b"a": 0}), ("fingerprint", 0)])
    def test_derived_fields_are_not_arguments(self, name, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            Vocabulary(id_to_token={0: b"a"}, specials=frozenset(), **{name: value})

    def test_duplicate_token_string_rejected(self):
        with pytest.raises(FormatError, match="^duplicate token string b'a'$"):
            Vocabulary(id_to_token={0: b"a", 1: b"a"}, specials=frozenset())

    @pytest.mark.parametrize(
        "table, specials, error, message",
        [
            ({0: b"a", "1": b"b"}, (), FormatError, "^token id '1' is not an int$"),
            ({0: b"", 1: b"a"}, (), FormatError, "^empty token string is not allowed$"),
            ({-1: b"a", 0: b"b"}, (), FormatError, "^negative token id -1$"),
            ({0: b"a", 1: b"b"}, (5,), UnknownTokenError, r"^special ids not in vocabulary: \[5\]$"),
            ({0: b"a", 1: b"b"}, (True,), FormatError, "^token id True is not an int$"),
        ],
        ids=["str-id", "empty-string", "negative-id", "special-outside", "special-bool"],
    )
    def test_from_entries_checks_hold_for_a_direct_construction(self, table, specials, error, message):
        with pytest.raises(error, match=message):
            Vocabulary(id_to_token=table, specials=frozenset(specials))


class TestDetokenize:
    def test_empty(self):
        vocab = vocab_from([b"a"])
        assert detokenize(TokenSequence(ids=()), vocab) == b""

    def test_concatenation_identity(self):
        vocab = vocab_from([b"ab", b"a", b"b"])
        seq = reference_tokenize(b"aabab", vocab)
        assert detokenize(seq, vocab) == b"aabab"

    def test_unknown_id_rejected(self):
        vocab = vocab_from([b"a"])
        with pytest.raises(UnknownTokenError, match="unknown token id 5"):
            detokenize([0, 5, 0], vocab)
        with pytest.raises(UnknownTokenError, match="^unknown token id 7$"):
            vocab.token_of(7)

    def test_round_trip_1000_random_byte_strings(self):
        vocab = byte_complete_vocab(extra_tokens=[b"the", b"ing", b"\xc3\xa9", b"qu"])
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            text = bytes(rng.integers(0, 256, size=int(rng.integers(0, 120)), dtype=np.uint8))
            assert detokenize(reference_tokenize(text, vocab), vocab) == text


class TestFirstMerge:
    def test_extension_lengths(self):
        vocab = vocab_from([b"a", b"ab", b"abc", b"b", b"bcd", b"c"])
        assert vocab.extension_lengths == {0: (2, 3), 1: (3,), 3: (3,)}

    def test_extension_lengths_derived_on_first_use(self):
        vocab = vocab_from([b"a", b"ab"])
        assert "extension_lengths" not in vocab.__dict__
        assert vocab.extension_lengths is vocab.extension_lengths

    def test_fixpoint_is_none(self):
        vocab = vocab_from([b"a", b"ab", b"b", b"c"])
        assert first_merge((1, 0, 3), b"abac", vocab) is None
        assert first_merge((), b"", vocab) is None

    def test_index_of_first_absorbed_token(self):
        vocab = vocab_from([b"a", b"ab", b"b", b"c"])
        # "c", "a", "b" renders "cab", which retokenizes as "c", "ab"
        assert first_merge((3, 0, 2, 0, 2), b"cabab", vocab) == (1, b"a", b"ab")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_tokenize_detokenize_identity_property(text):
    vocab = byte_complete_vocab(extra_tokens=[b"ab", b"ba", b"aaa"])
    assert detokenize(reference_tokenize(text, vocab), vocab) == text


class TestPretokenizedStreams:
    def test_round_trip(self, tmp_path):
        vocab = vocab_from([b"a", b"b", b"c"])
        path = tmp_path / "ids.txt"
        seqs = [vocab.sequence([0, 1, 2]), vocab.sequence([]), vocab.sequence([2, 2])]
        write_pretokenized(seqs, path)
        back = read_id_stream(path, vocab)
        assert [s.ids for s in back] == [(0, 1, 2), (), (2, 2)]
        assert all(s.fingerprint == vocab.fingerprint for s in back)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("1 2\nx y\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            read_id_stream(path, vocab_from([b"a", b"b", b"c"]))

    @pytest.mark.parametrize("line", ["1_0 2\n", "+5\n", "-0\n"])
    def test_only_ascii_decimal_digits(self, line):
        # int() alone reads these as 10 2, 5 and 0
        with pytest.raises(FormatError, match="line 4: not a space-separated ID list"):
            parse_id_line(line, 4, byte_complete_vocab())

    def test_sequence_validates_membership(self):
        vocab = vocab_from([b"a"])
        with pytest.raises(UnknownTokenError):
            vocab.sequence([0, 7])

    @pytest.mark.parametrize("bad", [True, 2.0, np.int64(1), "1"])
    def test_sequence_refuses_ids_that_are_not_int(self, bad):
        # True and 2.0 hash as 1 and 2, so a membership test alone admits them
        vocab = vocab_from([b"a", b"b", b"c"])
        with pytest.raises(ArgumentError, match="is not an int"):
            vocab.sequence([0, bad])


ABC = vocab_from([b"a", b"b", b"c"])


def key_file(tmp_path, mapping: list, fixed_points: list) -> Path:
    """A saved key file for ``ABC`` holding ``mapping`` and ``fixed_points``."""
    path = tmp_path / "key.json"
    save_key(identity_key(ABC), path)
    doc = json.loads(path.read_text())
    doc.update(mapping=mapping, fixed_points=fixed_points)
    path.write_text(json.dumps(doc))
    return path


# name: (the module's error, a call that passes ``bad`` where a token id belongs)
ID_ENTRY_POINTS = {
    "from_entries": (FormatError, lambda bad, _: Vocabulary.from_entries([(b"a", 0), (b"b", bad)])),
    "from_entries-special": (
        FormatError, lambda bad, _: Vocabulary.from_entries([(b"a", 0), (b"b", 1)], [bad])
    ),
    "sequence": (ArgumentError, lambda bad, _: ABC.sequence([0, bad])),
    "embedding-row": (ArgumentError, lambda bad, _: EmbeddingStore(rows=np.eye(3)).row(bad)),
    "frequency-corpus": (ArgumentError, lambda bad, _: frequency_hypotheses([(0, bad)], [0], 1)),
    "ngram-pair-side": (
        ArgumentError, lambda bad, _: ngram_hypotheses([((0, bad), (1, 2))], [((), (1,))], 2)
    ),
    "ngram-reference": (
        ArgumentError, lambda bad, _: ngram_hypotheses([((0,), (1,))], [((), (1,))], 2, [(0, bad)])
    ),
    "key_from_pairs-pair": (ArgumentError, lambda bad, _: key_from_pairs(ABC, [(bad, 2)])),
    "key_from_pairs-fixed-point": (
        ArgumentError, lambda bad, _: key_from_pairs(ABC, [(0, 2)], fixed_points=[bad])
    ),
    # True, 1.0 and np.int64(1) equal 1, so a repeat check before the id check would fold them
    "key_from_pairs-repeated-fixed-point": (
        ArgumentError, lambda bad, _: key_from_pairs(ABC, [(0, 2)], fixed_points=[1, bad])
    ),
    "load_key-pair": (FormatError, lambda bad, tmp: load_key(key_file(tmp, [[bad, 2]], []))),
    "load_key-fixed-point": (FormatError, lambda bad, tmp: load_key(key_file(tmp, [], [bad]))),
}
NOT_IDS = {"bool": True, "float": 1.0, "numpy": np.int64(1), "str": "1"}


@pytest.mark.parametrize(
    "entry, name",
    # a numpy integer has no JSON form of its own: in a key file it is written as 1
    [
        (entry, name)
        for entry in ID_ENTRY_POINTS
        for name in NOT_IDS
        if not (entry.startswith("load_key") and name == "numpy")
    ],
)
def test_id_rule_at_every_entry_point(tmp_path, entry, name):
    error, call = ID_ENTRY_POINTS[entry]
    bad = NOT_IDS[name]
    with pytest.raises(error) as err:
        call(bad, tmp_path)
    assert repr(bad) in str(err.value)
