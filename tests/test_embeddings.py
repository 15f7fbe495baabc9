import re

import numpy as np
import pytest

from alienlang import (
    ArgumentError,
    CoverageError,
    DegenerateInputError,
    EmbeddingStore,
    FormatError,
    Vocabulary,
    derive_proxy_store,
    load_embeddings,
    normalize,
    proxy_embed,
    save_embeddings,
)
from alienlang import embeddings
from alienlang.embeddings import topk_cosine
from helpers import axis_store, unit_store, vocab_from


class TestLoadStore:
    def test_binary_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((3, 4)).astype(np.float32)
        store = EmbeddingStore(rows=rows)
        path = tmp_path / "emb.bin"
        save_embeddings(store, path)
        back = load_embeddings(path)
        assert back.n == 3 and back.d == 4
        assert np.array_equal(back.rows.astype(np.float32), rows)

    def test_text_format_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\n0 1.0 2.0 3.0\n1 4.0 5.0 6.0\n", encoding="utf-8")
        store = load_embeddings(path)
        assert store.n == 2 and store.d == 3
        assert np.array_equal(store.rows, [[1, 2, 3], [4, 5, 6]])

    def test_text_round_trip(self, tmp_path):
        # rows written with repr() load back bit for bit
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((5, 3))
        path = tmp_path / "emb.txt"
        lines = [f"{tid} " + " ".join(map(repr, row.tolist())) for tid, row in enumerate(rows)]
        path.write_text("5 3\n" + "\n".join(lines) + "\n", encoding="utf-8")
        assert np.array_equal(load_embeddings(path).rows, rows)

    def test_text_rows_in_any_order(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\n2 5 6\n\n0 1 2\n1 3 4\n", encoding="utf-8")
        assert np.array_equal(load_embeddings(path).rows, [[1, 2], [3, 4], [5, 6]])

    def test_text_empty_matrix(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 5\n", encoding="utf-8")
        assert load_embeddings(path).rows.shape == (0, 5)

    def test_text_values_take_sign_fraction_exponent_and_crlf(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\r\n01 -1.5e-2 +4E+1\r\n \t\r\n0 7 0.25e3\n")
        assert np.array_equal(load_embeddings(path).rows, [[7, 250], [-0.015, 40]])

    def test_nan_row_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\n0 1.0 nan\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 2: "):
            load_embeddings(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\n0 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 1: header declares 2 rows but the file has 1"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"2 1\n+1 0.5\n0 1\n", 2),  # a signed id, which int() takes
            (b"11 1\n1_0 0.5\n", 2),  # an underscore in an id
            ("2 1\n\u0661 0.5\n0 1\n".encode("utf-8"), 2),  # an Arabic-Indic one
            (b"+2 1\n0 1\n1 2\n", 1),  # a signed header
            (b"1 1\n0 1_0.5\n", 2),  # an underscore in a value, which float() takes
            (b"2 1\n0 1\n1 2.0\xff\n", 3),  # not UTF-8
            (b"1 1\r0 1\n", 1),  # a lone carriage return does not end a line
            (b"1 1\n0 0x1p3\n", 2),  # a hexadecimal float
            (b"9" * 5000 + b" 1\n", 1),  # more digits than int() converts
            (b"1 1\n" + b"9" * 5000 + b" 1\n", 2),
            (b"1 1\n0 1e999\n", 2),  # in the grammar, but float() overflows it to inf
        ],
        ids=[
            "signed-id", "underscore-id", "arabic-indic-id", "signed-header", "underscore-value",
            "not-utf8", "lone-cr", "hex-float", "huge-header", "huge-id", "1e999",
        ],
    )
    def test_text_outside_ascii_grammar_refused_naming_line(self, tmp_path, data, lineno):
        path = tmp_path / "emb.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^line {lineno}: "):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"1 2\nx 1.0 2.0\n",  # non-integer token id
            b"1 2\n0 1.0 abc\n",  # non-float value
            b"1 2\n0 1.0 \xff\n",  # not UTF-8
            b"\xfe\xff 2\n",  # not UTF-8 in the header
            b"-1 2\n",  # negative row count
            b"99999999999 99999999\n0 1.0\n",  # a header far larger than its rows
        ],
    )
    def test_malformed_text_rejected(self, tmp_path, data):
        path = tmp_path / "emb.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=r"^line \d+: "):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "rows, normalized, message",
        [
            (np.ones(3), False, "2-dimensional"),
            (np.ones((2, 2, 2)), False, "2-dimensional"),
            ([[1.0, np.nan]], False, "non-finite"),
            ([[1.0, -np.inf]], False, "non-finite"),
            ([[3.0, 4.0]], True, "not unit length"),
        ],
        ids=["1-d", "3-d", "nan", "inf", "not-unit"],
    )
    def test_invalid_store_rejected(self, rows, normalized, message):
        with pytest.raises(FormatError, match=message):
            EmbeddingStore(rows=rows, normalized=normalized)

    def test_binary_nan_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingStore(rows=np.ones((2, 2))), path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite"):
            load_embeddings(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingStore(rows=np.ones((2, 2))), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            load_embeddings(path)


class TestNormalize:
    def test_three_four_five(self):
        store = normalize(EmbeddingStore(rows=np.array([[3.0, 4.0]])))
        assert np.allclose(store.rows, [[0.6, 0.8]])

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(5)
        once = normalize(EmbeddingStore(rows=rng.standard_normal((10, 6))))
        twice = normalize(once)
        assert np.abs(twice.rows - once.rows).max() < 1e-7

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(EmbeddingStore(rows=np.array([[1.0, 0.0], [0.0, 0.0]])))


class TestProxyEmbed:
    def test_single_piece_exact(self):
        proxy_vocab = vocab_from([b"hel", b"lo", b"hello"])
        store = EmbeddingStore(rows=np.arange(9.0).reshape(3, 3))
        vec = proxy_embed(b"hello", proxy_vocab, store)
        assert np.array_equal(vec, store.rows[2])

    def test_two_pieces_mean(self):
        proxy_vocab = vocab_from([b"ab", b"cd"])
        u = np.array([1.0, 3.0])
        v = np.array([5.0, 7.0])
        store = EmbeddingStore(rows=np.stack([u, v]))
        vec = proxy_embed(b"abcd", proxy_vocab, store)
        assert np.array_equal(vec, (u + v) / 2)

    def test_matches_mean_of_subpieces_oracle(self):
        # independent oracle: recursive longest-match + plain mean
        proxy_tokens = [bytes([c]) for c in range(97, 123)] + [b"th", b"ing", b"er", b"qu"]
        proxy_vocab = vocab_from(proxy_tokens)
        rng = np.random.default_rng(41)
        store = EmbeddingStore(rows=rng.standard_normal((len(proxy_tokens), 8)))

        def oracle_pieces(text: bytes) -> list[int]:
            if not text:
                return []
            for length in range(len(text), 0, -1):
                tid = proxy_vocab.token_to_id.get(text[:length])
                if tid is not None:
                    return [tid] + oracle_pieces(text[length:])
            raise AssertionError("uncoverable")

        for _ in range(50):
            size = int(rng.integers(1, 12))
            text = bytes(rng.integers(97, 123, size=size, dtype=np.uint8))
            pieces = oracle_pieces(text)
            expected = np.mean([store.rows[p] for p in pieces], axis=0)
            assert np.allclose(proxy_embed(text, proxy_vocab, store), expected, atol=1e-12)

    def test_empty_token_string_rejected(self):
        store = EmbeddingStore(rows=np.eye(2))
        with pytest.raises(CoverageError, match="^empty token string has no subpieces$"):
            proxy_embed(b"", vocab_from([b"ab", b"cd"]), store)

    def test_linearity_under_scaling(self):
        proxy_vocab = vocab_from([b"ab", b"cd"])
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        base = proxy_embed(b"abcd", proxy_vocab, EmbeddingStore(rows=rows))
        scaled = proxy_embed(b"abcd", proxy_vocab, EmbeddingStore(rows=2.5 * rows))
        assert np.allclose(scaled, 2.5 * base)

    def test_derive_proxy_store_covers_all_ids(self):
        target = vocab_from([b"abcd", b"ab"])
        proxy_vocab = vocab_from([b"ab", b"cd"])
        store = EmbeddingStore(rows=np.array([[1.0, 0.0], [0.0, 1.0]]))
        derived = derive_proxy_store(target, proxy_vocab, store)
        assert derived.n == 2
        assert np.allclose(derived.rows[0], [0.5, 0.5])
        assert np.allclose(derived.rows[1], [1.0, 0.0])

    def test_derive_proxy_store_of_empty_vocabulary_has_no_rows(self):
        proxy_vocab = vocab_from([b"ab", b"cd"])
        store = EmbeddingStore(rows=np.array([[1.0, 0.0], [0.0, 1.0]]))
        derived = derive_proxy_store(Vocabulary.from_entries([]), proxy_vocab, store)
        assert derived.rows.shape == (0, 2)


def nearest(store, query_id, k, candidates):
    """One query's neighbours from a one-row topk_cosine call, empty slots dropped."""
    ids, sims = topk_cosine(store, [query_id], k, candidates)
    assert np.all(sims[ids < 0] == -np.inf)
    return [i for i in ids[0].tolist() if i >= 0]


def oracle_knn(store, query_id, k, candidates):
    """The first k of an exhaustive sort by (-cosine, id), as a set in id order."""
    scored = []
    q = store.rows[query_id]
    for cid in sorted(set(candidates)):
        if cid == query_id:
            continue
        scored.append((-float(np.dot(q, store.rows[cid])), cid))
    scored.sort()
    return sorted(cid for _, cid in scored[:k])


def assert_oracle_rows(store, queries, k, candidates, ids, sims):
    """Each row of a topk_cosine result, -1 slots dropped, is the oracle's set,
    and each -1 slot holds -inf."""
    assert ids.shape == sims.shape == (len(queries), min(k, len(set(candidates))))
    for r, qid in enumerate(queries):
        assert [i for i in ids[r].tolist() if i >= 0] == oracle_knn(store, qid, k, candidates)
        assert np.all(sims[r][ids[r] < 0] == -np.inf)


class TestKnn:
    def test_k_zero_rejected(self):
        store = unit_store(np.random.default_rng(0), 4, 3)
        with pytest.raises(ArgumentError):
            nearest(store, 0, 0, {0, 1})

    def test_requires_normalized(self):
        store = EmbeddingStore(rows=np.eye(3) * 2.0)
        with pytest.raises(ArgumentError):
            nearest(store, 0, 1, {0, 1, 2})

    def test_candidate_set_of_only_query(self):
        store = unit_store(np.random.default_rng(1), 4, 3)
        assert nearest(store, 2, 5, {2}) == []

    def test_empty_candidate_set(self):
        store = unit_store(np.random.default_rng(1), 4, 3)
        ids, sims = topk_cosine(store, [0, 1], 3, [])
        assert ids.shape == sims.shape == (2, 0)

    def test_orthonormal_tie_break_ascending(self):
        store = EmbeddingStore(rows=np.eye(6), normalized=True)
        assert nearest(store, 1, 3, set(range(6))) == [0, 2, 3]

    def test_random_store_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2024)
        store = unit_store(rng, 200, 16)
        for qid in [0, 7, 150, 199]:
            assert nearest(store, qid, 10, range(200)) == oracle_knn(store, qid, 10, range(200))

    def test_oracle_equality_various_sizes(self):
        rng = np.random.default_rng(99)
        for n in (10, 111, 1000):
            store = unit_store(rng, n, 8)
            cands = set(int(i) for i in rng.choice(n, size=max(3, n // 2), replace=False))
            qid = int(next(iter(cands)))
            for k in (1, 5, n):
                assert nearest(store, qid, k, cands) == oracle_knn(store, qid, k, cands)


class TestIdRange:
    @pytest.mark.parametrize(
        "query, candidates",
        [(-1, range(4)), (4, range(4)), (0, [-2, 1, 2]), (0, [1, 4]), (9, []), (2**63, range(4)),
         (0, [1, 2**64])],
    )
    def test_ids_without_rows_rejected(self, query, candidates):
        store = EmbeddingStore(rows=np.eye(4), normalized=True)
        with pytest.raises(CoverageError):
            topk_cosine(store, [0, query], 2, candidates)
        with pytest.raises(CoverageError):
            nearest(store, query, 2, candidates)

    @pytest.mark.parametrize(
        "k, queries, candidates, message",
        [
            (2.5, [0], range(4), "k must be int, not float"),
            (True, [0], range(4), "k must be int, not bool"),
            (0, [0], range(4), "k must be >= 1"),
            (2, [0.0], range(4), "query id 0.0 is not a token id"),
            (2, [True], range(4), "query id True is not a token id"),
            (2, np.array([0.0]), range(4), "query ids must be a 1-D integer array, not 1-D float64"),
            (2, [0], [1.5, 2], "candidate id 1.5 is not a token id"),
            (2, [0], {True, 2}, "candidate id True is not a token id"),
            (2, [0], np.array([True, False]), "candidate ids must be a 1-D integer array, not 1-D bool"),
            (2, 0, range(4), "query 0 is not a sequence of token ids"),
        ],
    )
    def test_non_int_k_and_ids_rejected(self, k, queries, candidates, message):
        # an id is never truncated to the int it rounds to
        store = EmbeddingStore(rows=np.eye(4), normalized=True)
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            topk_cosine(store, queries, k, candidates)


class TestTopkBatched:
    @pytest.mark.parametrize(
        "cands,queries,slices",
        [
            (256, 256, [256]),  # a bucket cell: one selection
            (4096, 200, [64, 64, 64, 8]),  # a flat build: the budget sets 64 rows
            (8192, 200, [32] * 6 + [8]),  # twice the candidates, half the rows
            (300, 1000, [873, 127]),  # a narrow row set takes wider slices
        ],
    )
    def test_cell_budget_sizes_slices(self, cands, queries, slices, monkeypatch):
        seen = []
        topk_rows = embeddings._topk_rows

        def spy(sims, *args):
            seen.append(sims.shape[0])
            return topk_rows(sims, *args)

        monkeypatch.setattr(embeddings, "_topk_rows", spy)
        store = unit_store(np.random.default_rng(cands), cands, 4)
        ids = np.arange(queries) % cands
        got, _ = topk_cosine(store, ids, 5, range(cands))
        assert seen == slices
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 0)  # one-row slices
        want, _ = topk_cosine(store, ids, 5, range(cands))
        assert np.array_equal(got, want)


class TestCandidateForms:
    """Every form of the same candidate set gives the same retrieval."""

    FORMS = {
        "list": list,
        "tuple": tuple,
        "set": set,
        "generator": lambda ids: (i for i in ids),
        "int32": lambda ids: np.asarray(ids, dtype=np.int32),
        "int64": lambda ids: np.asarray(ids, dtype=np.int64),
        "unsorted_with_repeats": lambda ids: np.asarray(ids[::-1] + ids[::3], dtype=np.int64),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("cands", [list(range(10, 60)), list(range(3, 90, 4))])
    def test_same_result_for_every_form(self, form, cands):
        store = unit_store(np.random.default_rng(31), 90, 5)
        queries = [12, 3, 59, 40, 80]
        want = topk_cosine(store, queries, 6, range(cands[0], cands[-1] + 1, cands[1] - cands[0]))
        got = topk_cosine(store, queries, 6, self.FORMS[form](cands))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert_oracle_rows(store, queries, 6, cands, *got)


class TestExactTies:
    """Every case runs through both selection paths."""

    @pytest.fixture(autouse=True, params=["by-value", "argpartition"])
    def selection(self, request, monkeypatch):
        narrow = 1 << 62 if request.param == "by-value" else 0  # candidates selected by value
        monkeypatch.setattr(embeddings, "_NARROW_CANDIDATES", narrow)

    @pytest.mark.parametrize("select", range(1, 10))
    def test_topk_matches_oracle_on_tied_rows(self, select, monkeypatch):
        rng = np.random.default_rng(900 + select)
        for _ in range(12):
            n = int(rng.integers(2, 40))
            store = axis_store(rng, n, int(rng.integers(1, 5)))
            size = int(rng.integers(1, n + 1))
            cands = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
            # slices of ``select`` rows: 32 B per similarity cell
            monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 32 * select * size)
            # queries include ids outside the candidate set, and repeats
            queries = [int(q) for q in rng.integers(0, n, size=int(rng.integers(1, n + 1)))]
            for k in {1, int(rng.integers(1, len(cands) + 1)), len(cands), len(cands) + 3}:
                ids, sims = topk_cosine(store, queries, k, cands)
                assert_oracle_rows(store, queries, k, cands, ids, sims)
                for r, qid in enumerate(queries):
                    found = ids[r] >= 0
                    assert sims[r][found].tolist() == [
                        float(store.rows[qid] @ store.rows[j]) for j in ids[r][found]
                    ]

    def test_knn_matches_oracle_on_tied_rows(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            store = axis_store(rng, n, int(rng.integers(1, 5)))
            size = int(rng.integers(1, n + 1))
            cands = set(int(i) for i in rng.choice(n, size=size, replace=False))
            qid = int(rng.integers(0, n))
            for k in (1, 2, 3, len(cands), len(cands) + 1):
                assert nearest(store, qid, k, cands) == oracle_knn(store, qid, k, cands)

    def test_tie_at_width_and_next_keeps_lowest_ids(self):
        # Query 0 = e_0.  Ids 20 and 33 also equal e_0 (cosine 1), ids 1-4 are
        # -e_0 (cosine -1) and the other 34 ids are e_1 (cosine 0).  For every
        # k from 3 to 36 the k-th and (k+1)-th values are both 0, and the 0s
        # left out of the k + 1 largest may have lower ids than ones kept.
        rows = np.tile([0.0, 1.0], (41, 1))
        rows[[0, 20, 33]] = [1.0, 0.0]
        rows[1:5] = [-1.0, 0.0]
        store = EmbeddingStore(rows=rows, normalized=True)
        zeros = [i for i in range(5, 41) if i not in (20, 33)]
        for k in range(1, 41):
            ids, _ = topk_cosine(store, [0], k, range(41))
            assert ids[0].tolist() == sorted(([20, 33] + zeros + [1, 2, 3, 4])[:k])
            assert ids[0].tolist() == oracle_knn(store, 0, k, range(41))

    def test_cut_straddles_a_tie(self):
        # query 0 = e_0; ids 2, 4, 6 also equal e_0 and ids 1, 3, 5 are e_1;
        # k=2 cuts through the three cosine-1 ties, which go to the lowest ids
        rows = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0]], dtype=float)
        store = EmbeddingStore(rows=rows, normalized=True)
        ids, sims = topk_cosine(store, [0], 2, range(7))
        assert ids.tolist() == [[2, 4]] and sims.tolist() == [[1.0, 1.0]]
        ids, _ = topk_cosine(store, [0], 5, range(7))
        assert ids.tolist() == [[1, 2, 3, 4, 6]]
        assert nearest(store, 0, 4, range(7)) == [1, 2, 4, 6]
