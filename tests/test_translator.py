import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alienlang.translator as translator
from alienlang import (
    BijectionKey,
    BuildConfig,
    CompatibilityError,
    FormatError,
    StabilityError,
    TokenSequence,
    UnknownTokenError,
    alienize_dataset,
    build_key,
    decode_ids,
    decode_text,
    encode_ids,
    encode_text,
    identity_key,
    key_from_pairs,
    read_id_stream,
    reference_tokenize,
    write_id_stream,
)
from alienlang.translator import to_wire
from helpers import (
    byte_complete_vocab,
    random_vocab,
    retokenize_decode_oracle,
    retokenize_encode_oracle,
    unit_store,
    vocab_from,
)


def full_rho_key(seed=0, n=40):
    rng = np.random.default_rng(seed)
    vocab = random_vocab(rng, n, specials=2)
    store = unit_store(rng, n, 8)
    key = build_key(vocab, store, BuildConfig(k=5, seed=seed, rho=1.0))
    return vocab, key


class TestEncodeIds:
    def test_rho_zero_identity(self):
        vocab = vocab_from([b"a", b"b", b"c"])
        key = identity_key(vocab)
        z = vocab.sequence([0, 1, 2, 1])
        assert encode_ids(z, key).ids == (0, 1, 2, 1)

    def test_specials_pass_through(self):
        vocab, key = full_rho_key(seed=1)
        specials = sorted(vocab.specials)
        z = vocab.sequence(specials * 3)
        assert encode_ids(z, key).ids == tuple(specials * 3)

    def test_involution_self_inverse(self):
        vocab, key = full_rho_key(seed=2)
        rng = np.random.default_rng(0)
        ids = [int(i) for i in rng.choice(sorted(vocab.id_to_token), size=200)]
        z = vocab.sequence(ids)
        assert encode_ids(encode_ids(z, key), key).ids == z.ids

    def test_length_preserved(self):
        vocab, key = full_rho_key(seed=3)
        z = vocab.sequence(list(vocab.id_to_token)[:17])
        assert len(encode_ids(z, key)) == 17

    def test_fingerprint_mismatch_rejected(self):
        vocab, key = full_rho_key(seed=4)
        other = vocab_from([b"x", b"y"])
        z = other.sequence([0, 1])
        with pytest.raises(CompatibilityError):
            encode_ids(z, key)

    def test_unfingerprinted_sequence_allowed(self):
        _, key = full_rho_key(seed=5)
        z = TokenSequence(ids=(0, 1))
        encode_ids(z, key)  # no fingerprint to check; must not raise


class TestDecodeIds:
    def test_inverse_law_many_sequences(self):
        vocab, key = full_rho_key(seed=6)
        rng = np.random.default_rng(1)
        universe = sorted(vocab.id_to_token)
        for _ in range(300):
            ids = [int(i) for i in rng.choice(universe, size=int(rng.integers(0, 50)))]
            z = vocab.sequence(ids)
            assert decode_ids(encode_ids(z, key), key).ids == z.ids

    def test_empty(self):
        vocab, key = full_rho_key(seed=7)
        assert decode_ids(vocab.sequence([]), key).ids == ()

    def test_matches_independent_inverse_map_oracle(self):
        vocab, key = full_rho_key(seed=8)
        inverse = {}
        for i, j in key.mapping.items():
            inverse[j] = i  # built the opposite way around on purpose
        rng = np.random.default_rng(2)
        ids = [int(i) for i in rng.choice(sorted(vocab.id_to_token), size=500)]
        got = decode_ids(vocab.sequence(ids), key).ids
        expected = tuple(inverse.get(i, i) for i in ids)
        assert got == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=39), max_size=40))
def test_decode_encode_property(ids):
    vocab, key = full_rho_key(seed=9)
    z = vocab.sequence(ids)
    assert decode_ids(encode_ids(z, key), key).ids == tuple(ids)


class TestEncodeText:
    def test_empty_document_safe(self):
        vocab, key = full_rho_key(seed=10)
        doc = encode_text(b"", key, vocab)
        assert doc.ids.ids == () and doc.rendered == b"" and doc.retokenization_safe

    def test_rho_zero_renders_input(self):
        vocab = byte_complete_vocab()
        key = identity_key(vocab)
        doc = encode_text(b"hello world", key, vocab)
        assert doc.rendered == b"hello world"
        assert doc.retokenization_safe

    def test_single_byte_vocab_always_safe(self):
        # with only single-byte tokens nothing can merge on retokenization
        vocab = byte_complete_vocab()
        store = unit_store(np.random.default_rng(3), len(vocab), 8)
        key = build_key(vocab, store, BuildConfig(k=4, seed=0, rho=1.0))
        rng = np.random.default_rng(4)
        for _ in range(1000):
            text = bytes(rng.integers(0, 256, size=int(rng.integers(0, 60)), dtype=np.uint8))
            doc = encode_text(text, key, vocab, strict=True)
            assert doc.retokenization_safe

    def test_unsafe_rendering_flagged_and_strict_raises(self):
        # map x->a and y->b; encoding "xy" renders "ab", which retokenizes
        # as the single token "ab" rather than ["a", "b"]
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        doc = encode_text(b"xy", key, vocab)
        assert doc.rendered == b"ab"
        assert not doc.retokenization_safe
        with pytest.raises(StabilityError) as exc_info:
            encode_text(b"xy", key, vocab, strict=True)
        assert exc_info.value.position == 0

    def test_header_collision_is_unsafe(self):
        # a rendering that starts with the ID-stream header would be parsed
        # as an ID stream by decode_text, so it must not be called safe
        vocab = byte_complete_vocab()
        key = identity_key(vocab)
        text = b"#alien-ids v1 hello"
        doc = encode_text(text, key, vocab)
        assert doc.rendered == text
        assert not doc.retokenization_safe
        assert decode_text(doc, key, vocab) == text
        buf = io.StringIO()
        write_id_stream(buf, [doc.ids], key.vocab_fingerprint)
        assert decode_text(buf.getvalue().encode("ascii"), key, vocab) == text
        with pytest.raises(StabilityError) as exc_info:
            encode_text(text, key, vocab, strict=True)
        assert exc_info.value.position == 0

    def test_mismatched_key_rejected(self):
        vocab, _ = full_rho_key(seed=11)
        other_vocab = vocab_from([b"q"])
        key = identity_key(other_vocab)
        with pytest.raises(CompatibilityError):
            encode_text(b"", key, vocab)


class TestDecodeText:
    def test_round_trip_on_safe_documents(self):
        vocab = byte_complete_vocab(extra_tokens=[b"the", b"and"])
        store = unit_store(np.random.default_rng(5), len(vocab), 8)
        key = build_key(vocab, store, BuildConfig(k=6, seed=1, rho=0.7))
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(200):
            text = bytes(rng.integers(32, 127, size=int(rng.integers(0, 80)), dtype=np.uint8))
            doc = encode_text(text, key, vocab)
            if doc.retokenization_safe:
                assert decode_text(doc.rendered, key, vocab) == text
                checked += 1
        assert checked > 100

    def test_document_input_bypasses_retokenization(self):
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        doc = encode_text(b"xy", key, vocab)  # unsafe rendering
        assert decode_text(doc, key, vocab) == b"xy"

    def test_unstable_text_raises(self):
        # "xy" decodes to "ab", but "ab" re-encodes to "ab" (the merged
        # token is unmapped), so "xy" cannot be a stable rendering
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        with pytest.raises(StabilityError):
            decode_text(b"xy", key, vocab)

    def test_id_stream_text_accepted(self):
        vocab, key = full_rho_key(seed=12)
        some_id = vocab.permutable_ids[0]
        alien = encode_ids(vocab.sequence([some_id] * 4), key)
        buf = io.StringIO()
        write_id_stream(buf, [alien], key.vocab_fingerprint)
        plain = decode_text(buf.getvalue().encode("ascii"), key, vocab)
        assert plain == vocab.token_of(some_id) * 4

    def test_matches_oracle_composition(self):
        vocab, key = full_rho_key(seed=13)
        inverse = {j: i for i, j in key.mapping.items()}
        rng = np.random.default_rng(7)
        ids = [int(i) for i in rng.choice(sorted(vocab.id_to_token), size=30)]
        alien_doc = encode_text(
            b"".join(vocab.token_of(i) for i in ids), key, vocab
        )
        expected = b"".join(
            vocab.token_of(inverse.get(i, i)) for i in alien_doc.ids
        )
        assert decode_text(alien_doc, key, vocab) == expected


@st.composite
def prefix_heavy_cases(draw):
    """A 2-3 letter vocabulary of 1-4 byte tokens holding every single letter,
    a random involutive key over it, and a text over the same letters."""
    alphabet = b"abc"[: draw(st.integers(2, 3))]
    letters = st.sampled_from(sorted(alphabet))
    longer = draw(st.lists(st.lists(letters, min_size=2, max_size=4).map(bytes), max_size=14, unique=True))
    vocab = vocab_from([bytes([c]) for c in alphabet] + longer)
    order = draw(st.permutations(range(len(vocab))))
    npairs = draw(st.integers(0, len(vocab) // 2))
    pairs = [tuple(sorted(order[2 * i : 2 * i + 2])) for i in range(npairs)]
    text = bytes(draw(st.lists(letters, max_size=16)))
    return vocab, key_from_pairs(vocab, pairs), text


def outcome(fn, *args):
    """A call's result, or its exception's type and position."""
    try:
        return fn(*args)
    except StabilityError as e:
        return StabilityError, e.position


class TestRetokenizationFixpoint:
    @settings(max_examples=400, deadline=None)
    @given(prefix_heavy_cases())
    def test_matches_full_retokenization(self, case):
        vocab, key, text = case
        safe, position = retokenize_encode_oracle(text, key, vocab)
        doc = encode_text(text, key, vocab)
        assert (doc.retokenization_safe, doc.merge_at) == (safe, position)
        strict = outcome(encode_text, text, key, vocab, True)
        assert strict == (doc if safe else (StabilityError, position))
        for alien in (text, doc.rendered):
            assert outcome(decode_text, alien, key, vocab) == outcome(
                retokenize_decode_oracle, alien, key, vocab
            )

    def test_fallback_accepts_what_the_boundary_check_rejects(self):
        # "cde" tokenizes as cd|e and decodes to x|yz = "xyz"; x extends to
        # "xy", so the boundary check fails, but "xyz" retokenizes as xy|z,
        # which encodes to c|de = "cde": the full re-encode check accepts.
        vocab = vocab_from([b"c", b"d", b"e", b"cd", b"de", b"x", b"y", b"z", b"yz", b"xy"])
        # cd<->x, e<->yz, xy<->c, z<->de, d<->y
        key = key_from_pairs(vocab, [(3, 5), (2, 8), (0, 9), (4, 7), (1, 6)])
        assert decode_text(b"cde", key, vocab) == b"xyz"
        with pytest.raises(StabilityError) as exc_info:
            encode_text(b"xyz", key, vocab, strict=True)
        assert exc_info.value.position == 0

    def test_merge_at_and_strict_reason(self):
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        assert encode_text(b"yxy", key, vocab).merge_at == 1
        assert encode_text(b"yx", key, vocab).merge_at is None
        with pytest.raises(StabilityError, match=r"token 1: b'a' merges into b'ab'") as exc_info:
            encode_text(b"yxy", key, vocab, strict=True)
        assert exc_info.value.position == 1

    def test_strict_reason_names_the_longest_absorbing_entry(self):
        vocab = vocab_from([b"x", b"y", b"z", b"a", b"b", b"c", b"ab", b"abc"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4), (2, 5)])
        with pytest.raises(StabilityError, match=r"token 0: b'a' merges into b'abc'"):
            encode_text(b"xyz", key, vocab, strict=True)

    def test_rendering_greedy_cannot_cover_is_unsafe(self):
        # "xy" renders a|bc = "abc"; greedy retokenization takes "ab" and then
        # finds no token for "c", so the rendering is unsafe, not an error
        vocab = vocab_from([b"x", b"y", b"a", b"ab", b"bc"])
        key = key_from_pairs(vocab, [(0, 2), (1, 4)])
        doc = encode_text(b"xy", key, vocab)
        assert (doc.rendered, doc.retokenization_safe, doc.merge_at) == (b"abc", False, 0)
        with pytest.raises(StabilityError, match=r"b'a' merges into b'ab'"):
            encode_text(b"xy", key, vocab, strict=True)

    def test_header_collision_has_no_merge(self):
        vocab = byte_complete_vocab()
        doc = encode_text(b"#alien-ids v1", identity_key(vocab), vocab)
        assert not doc.retokenization_safe and doc.merge_at is None

    def test_decode_fallback_error_carries_position(self):
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        with pytest.raises(StabilityError) as exc_info:
            decode_text(b"yxy", key, vocab)
        assert exc_info.value.position == 1

    def test_safe_traffic_tokenizes_once(self, monkeypatch):
        calls = []

        def counting(text, vocab):
            calls.append(text)
            return reference_tokenize(text, vocab)

        monkeypatch.setattr(translator, "reference_tokenize", counting)
        vocab = byte_complete_vocab(extra_tokens=[b"the", b"and"])
        store = unit_store(np.random.default_rng(5), len(vocab), 8)
        key = build_key(vocab, store, BuildConfig(k=6, seed=1, rho=0.7))
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(100):
            text = bytes(rng.integers(32, 127, size=int(rng.integers(0, 80)), dtype=np.uint8))
            calls.clear()
            doc = encode_text(text, key, vocab)
            assert calls == [text]
            if doc.retokenization_safe:
                calls.clear()
                assert decode_text(doc.rendered, key, vocab) == text
                assert calls == [doc.rendered]
                checked += 1
        assert checked > 50


class TestRhoEffect:
    def test_changed_fraction_tracks_rho(self):
        rng = np.random.default_rng(8)
        vocab = random_vocab(rng, 2000, specials=4)
        store = unit_store(rng, 2000, 8)
        permutable = vocab.permutable_ids
        positions = rng.choice(permutable, size=20_000)
        for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
            key = build_key(vocab, store, BuildConfig(k=4, seed=3, rho=rho))
            z = vocab.sequence(int(i) for i in positions)
            out = encode_ids(z, key)
            changed = sum(1 for a, b in zip(z.ids, out.ids) if a != b)
            assert abs(changed / len(z) - rho) < 0.03


class TestIdStream:
    VOCAB = byte_complete_vocab()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.txt"
        seqs = [TokenSequence(ids=(1, 2, 3)), TokenSequence(ids=())]
        write_id_stream(path, seqs, fingerprint=self.VOCAB.fingerprint)
        back = read_id_stream(path, self.VOCAB)
        assert [s.ids for s in back] == [(1, 2, 3), ()]
        assert all(s.fingerprint == self.VOCAB.fingerprint for s in back)

    def test_header_fingerprint_checked(self, tmp_path):
        path = tmp_path / "stream.txt"
        write_id_stream(path, [TokenSequence(ids=(1,))], fingerprint=self.VOCAB.fingerprint ^ 1)
        with pytest.raises(CompatibilityError, match="different vocabulary"):
            read_id_stream(path, self.VOCAB)

    @pytest.mark.parametrize(
        "text", ["0x_b8116aab61bbef6", "0xff", "+ff", "-1", "f_f", "", "1" * 17, "\u0661"]
    )
    def test_malformed_fingerprint_rejected(self, text):
        with pytest.raises(FormatError, match="fingerprint"):
            read_id_stream(f"#alien-ids v1 fingerprint={text}\n1 2\n".encode("utf-8"), self.VOCAB)

    @pytest.mark.parametrize("header", ["#alien-ids v1\n", "#alien-ids v2 fingerprint=00\n"])
    def test_malformed_header_rejected(self, header):
        with pytest.raises(FormatError, match="line 1: missing or malformed ID-stream header"):
            read_id_stream(f"{header}1 2\n".encode("ascii"), self.VOCAB)

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1 2 3\n\n255\n", encoding="utf-8")
        back = read_id_stream(path, self.VOCAB)
        assert [s.ids for s in back] == [(1, 2, 3), (), (255,)]
        assert all(s.fingerprint == self.VOCAB.fingerprint for s in back)

    @pytest.mark.parametrize("header", [True, False])
    def test_unknown_id_names_its_line(self, header):
        lines = ["1 2", "", "3 999999 4"]
        if header:
            lines.insert(0, f"#alien-ids v1 fingerprint={self.VOCAB.fingerprint:016x}")
        with pytest.raises(UnknownTokenError, match=f"line {len(lines)}: unknown token id 999999"):
            read_id_stream(("\n".join(lines) + "\n").encode("ascii"), self.VOCAB)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(json.dumps(rec) + "\n")


def restored_records(path, key, vocab):
    """An alienized JSONL file's instruction/response records, fields through decode_text."""

    def back(text):
        raw = text.encode("utf-8", errors="surrogateescape")
        return decode_text(raw, key, vocab).decode("utf-8", errors="surrogateescape")

    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for rec in records:
        rec.update({f: back(rec[f]) for f in ("instruction", "response") if f in rec})
    return records


class TestAlienizeDataset:
    def _setup(self, seed=0, rho=1.0):
        vocab = byte_complete_vocab(extra_tokens=[b"the", b"and", b"ing"])
        store = unit_store(np.random.default_rng(seed), len(vocab), 8)
        key = build_key(vocab, store, BuildConfig(k=5, seed=seed, rho=rho))
        return vocab, key

    def test_empty_file(self, tmp_path):
        vocab, key = self._setup()
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text("", encoding="utf-8")
        summary = alienize_dataset(src, key, vocab, dst)
        assert summary.records == 0 and summary.tokens == 0
        assert dst.read_text() == ""

    def test_rho_zero_content_unchanged(self, tmp_path):
        vocab = byte_complete_vocab()
        key = identity_key(vocab)
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        records = [{"instruction": "say hi", "response": "hi", "id": 7}]
        write_jsonl(src, records)
        alienize_dataset(src, key, vocab, dst)
        out = json.loads(dst.read_text().strip())
        assert out == records[0]

    def test_structure_and_metadata_preserved(self, tmp_path):
        vocab, key = self._setup(seed=1)
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        rec = {
            "messages": [
                {"role": "user", "content": "hello there", "turn": 1},
                {"role": "assistant", "content": "general"},
            ],
            "meta": {"source": "unit"},
        }
        write_jsonl(src, [rec])
        alienize_dataset(src, key, vocab, dst)
        out = json.loads(dst.read_text().strip())
        assert out["meta"] == {"source": "unit"}
        assert out["messages"][0]["role"] == "user"
        assert out["messages"][0]["turn"] == 1
        assert out["messages"][0]["content"] != "hello there"

    def test_round_trip_through_restore(self, tmp_path):
        vocab, key = self._setup(seed=2)
        src = tmp_path / "in.jsonl"
        mid = tmp_path / "alien.jsonl"
        rng = np.random.default_rng(9)
        records = []
        for i in range(100):
            n1, n2 = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            records.append(
                {
                    "instruction": "".join(chr(c) for c in rng.integers(32, 127, size=n1)),
                    "response": "".join(chr(c) for c in rng.integers(32, 127, size=n2)),
                    "idx": i,
                }
            )
        write_jsonl(src, records)
        summary = alienize_dataset(src, key, vocab, mid)
        assert summary.records == 100
        assert restored_records(mid, key, vocab) == records

    def test_malformed_line_reports_number(self, tmp_path):
        vocab, key = self._setup()
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text('{"instruction": "a", "response": "b"}\nnot json\n', encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            alienize_dataset(src, key, vocab, dst)

    def test_array_line_refused_with_shared_message(self, tmp_path):
        vocab, key = self._setup()
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text('{"instruction": "a"}\n["a", "b"]\n', encoding="utf-8")
        with pytest.raises(FormatError, match="^line 2: record must hold a JSON object, not list$"):
            alienize_dataset(src, key, vocab, dst)

    def test_untokenizable_record_reports_number(self, tmp_path):
        vocab = vocab_from([b"a", b"b", b"c", b"x"])
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"instruction": "abc"}, {"instruction": "abz", "response": "x"}])
        with pytest.raises(FormatError, match="^line 2: no token matches input at byte offset 2"):
            alienize_dataset(src, identity_key(vocab), vocab, dst)

    def test_failed_record_leaves_output_untouched(self, tmp_path):
        vocab = vocab_from([b"a", b"b", b"c", b"x"])
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"instruction": "abc"}, {"instruction": "abz"}])
        with pytest.raises(FormatError, match="^line 2"):
            alienize_dataset(src, identity_key(vocab), vocab, dst)
        assert list(tmp_path.iterdir()) == [src]  # no output and no temp file
        dst.write_bytes(b'{"instruction": "earlier"}\n')
        with pytest.raises(FormatError, match="^line 2"):
            alienize_dataset(src, identity_key(vocab), vocab, dst)
        assert dst.read_bytes() == b'{"instruction": "earlier"}\n'
        assert sorted(tmp_path.iterdir()) == [src, dst]

    @pytest.mark.parametrize("mapping", [{1: 3, 3: 1}, {1: 7, 7: 1}])
    @pytest.mark.parametrize("fn", [alienize_dataset])
    def test_unfit_key_rejected_before_any_record(self, tmp_path, fn, mapping):
        # id 3 is the special <s>; id 7 is not in the vocabulary
        vocab = vocab_from([b"a", b"b", b"c", b"<s>", b"d"], specials=[b"<s>"])
        key = BijectionKey(1, vocab.fingerprint, BuildConfig(), mapping)
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"instruction": "abc"}])
        with pytest.raises(CompatibilityError):
            fn(src, key, vocab, dst)
        assert list(tmp_path.iterdir()) == [src]

    def test_unknown_shape_rejected(self, tmp_path):
        vocab, key = self._setup()
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"text": "no known fields"}])
        with pytest.raises(FormatError, match="line 1"):
            alienize_dataset(src, key, vocab, dst)

    def test_unsafe_rendering_embedded_as_id_stream(self, tmp_path):
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"instruction": "xy", "response": "x"}])
        summary = alienize_dataset(src, key, vocab, dst)
        assert summary.unsafe_renderings == 1
        out = json.loads(dst.read_text().strip())
        assert out["instruction"].startswith("#alien-ids v1")
        assert restored_records(dst, key, vocab) == [{"instruction": "xy", "response": "x"}]

    def test_fields_are_the_wire_form_of_their_encoding(self, tmp_path):
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        # "xy" renders "ab", which retokenizes as one token; "yx" renders "ba"
        record = {"instruction": "xy", "response": "yx", "id": 3}
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [record])
        alienize_dataset(src, key, vocab, dst)
        out = json.loads(dst.read_text().strip())
        docs = {name: encode_text(record[name].encode(), key, vocab) for name in ("instruction", "response")}
        assert [doc.retokenization_safe for doc in docs.values()] == [False, True]
        for name, doc in docs.items():
            assert out[name] == to_wire(doc, key).decode("ascii")
        assert out["id"] == 3

    def test_header_collision_round_trip(self, tmp_path):
        vocab = byte_complete_vocab()
        key = identity_key(vocab)
        record = {"instruction": "#alien-ids v1 hello", "response": "#alien-ids v1x"}
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [record])
        summary = alienize_dataset(src, key, vocab, dst)
        assert summary.unsafe_renderings == 2
        out = json.loads(dst.read_text().strip())
        assert out["instruction"].startswith("#alien-ids v1 fingerprint=")
        assert restored_records(dst, key, vocab) == [record]

    def test_strict_mode_aborts_on_unsafe(self, tmp_path):
        vocab = vocab_from([b"x", b"y", b"ab", b"a", b"b"])
        key = key_from_pairs(vocab, [(0, 3), (1, 4)])
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"instruction": "xy", "response": "x"}])
        with pytest.raises(FormatError, match="line 1"):
            alienize_dataset(src, key, vocab, dst, strict=True)
