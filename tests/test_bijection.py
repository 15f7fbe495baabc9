import hashlib
import math
import re
import threading

import numpy as np
import pytest

from alienlang import (
    ArgumentError,
    BijectionKey,
    BuildConfig,
    CompatibilityError,
    CoverageError,
    EmbeddingStore,
    FormatError,
    Vocabulary,
    build_key,
    check_key,
    key_from_pairs,
    key_overlap,
    load_key,
    objective_value,
    opacity_report,
    pair_score,
    save_key,
    select_mask,
)
from alienlang import bijection, embeddings
from alienlang.bijection import bucket_index
from helpers import (
    axis_store,
    clustered_store,
    identity_key,
    oracle_levenshtein,
    positive_unit_store,
    random_vocab,
    reference_greedy_mapping,
    reference_greedy_walk,
    unit_store,
    vocab_from,
)

TABLE8_CANDIDATES = [
    # (surface, cosine, reference score at mu=2, true Levenshtein from "come")
    (b"comes", 0.92, 0.84, 1),
    (b"hello", 0.06, 2.12, 5),
    (b"world", 0.40, 2.80, 4),
    (b"cup", 0.07, 1.14, 3),
    (b"here", 0.80, 2.60, 3),
]


def table8_fixture():
    tokens = [b"come"] + [row[0] for row in TABLE8_CANDIDATES]
    vocab = vocab_from(tokens)
    rows = np.zeros((len(tokens), 2))
    rows[0] = [1.0, 0.0]
    for idx, (_, cos, _, _) in enumerate(TABLE8_CANDIDATES, start=1):
        rows[idx] = [cos, math.sqrt(1.0 - cos * cos)]
    return vocab, EmbeddingStore(rows=rows, normalized=True)


class TestPairScore:
    def test_reference_fixture_consistent_rows(self):
        # Four of the five published rows follow the raw-edit scoring rule
        # exactly; see test_reference_fixture_hello_row for the fifth.
        vocab, store = table8_fixture()
        for idx, (surface, cos, ref_score, true_edit) in enumerate(TABLE8_CANDIDATES, start=1):
            assert true_edit == oracle_levenshtein(b"come", surface)
            got = pair_score(0, idx, vocab, store, mu=2.0, edit_mode="raw")
            recomputed = true_edit - 2.0 * (1.0 - cos)
            assert got == pytest.approx(recomputed, abs=1e-9)
            if surface != b"hello":
                assert got == pytest.approx(ref_score, abs=1e-9)

    def test_reference_fixture_hello_row(self):
        # The published toy value 2.12 presumes edit("come","hello") == 4,
        # but the Levenshtein distance is 5, so the scoring rule gives 3.12.
        vocab, store = table8_fixture()
        got = pair_score(0, 2, vocab, store, mu=2.0, edit_mode="raw")
        assert got == pytest.approx(3.12, abs=1e-9)

    def test_same_token_rejected(self):
        vocab, store = table8_fixture()
        with pytest.raises(ArgumentError):
            pair_score(3, 3, vocab, store)

    @pytest.mark.parametrize("i, j", [(True, 3), (3, True), (1, 2.0), (np.int64(1), 2)])
    def test_non_id_rejected(self, i, j):
        vocab, store = table8_fixture()
        with pytest.raises(ArgumentError, match="is not an int"):
            pair_score(i, j, vocab, store)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mu": "x"}, "mu must be float, not str"),
            ({"mu": True}, "mu must be float, not bool"),
            ({"mu": float("nan")}, "mu must be finite and >= 0"),
            ({"mu": -1.0}, "mu must be finite and >= 0"),
            ({"edit_mode": "fuzzy"}, "edit_mode must be one of"),
        ],
    )
    def test_config_refused_as_by_build_config(self, kwargs, message):
        vocab, store = table8_fixture()
        with pytest.raises(ArgumentError, match=message):
            BuildConfig(**kwargs)
        with pytest.raises(ArgumentError, match=message):
            pair_score(0, 1, vocab, store, **kwargs)

    def test_special_rejected(self):
        vocab = vocab_from([b"a", b"b", b"<s>"], specials=[b"<s>"])
        store = unit_store(np.random.default_rng(0), 3, 4)
        with pytest.raises(ArgumentError):
            pair_score(0, 2, vocab, store)

    def test_symmetry(self):
        vocab, store = table8_fixture()
        for j in range(1, 6):
            assert pair_score(0, j, vocab, store, mu=1.3) == pair_score(j, 0, vocab, store, mu=1.3)

    def test_identical_strings_and_embeddings_score_zero(self):
        # distinct tokens never share a surface, so the score's terms are checked directly
        e = np.array([[0.6, 0.8]])
        edit = bijection._edit_terms([b"tok"], [0], [0], "normalized")
        score = bijection._pair_scores(edit, bijection._cosines(e, e), mu=5.0)
        assert score.tolist() == [pytest.approx(0.0)]

    def test_normalized_mode_hand_computed(self):
        # edit("ab","cd") = 2, normalized by max length 2 -> 1; orthogonal
        # unit embeddings -> d_sim = 1; mu=1 -> 1 - 1 = 0.
        vocab = vocab_from([b"ab", b"cd"])
        store = EmbeddingStore(rows=np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        assert pair_score(0, 1, vocab, store, mu=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        vocab, store = table8_fixture()
        scaled = EmbeddingStore(rows=store.rows * 37.5)
        for j in range(1, 6):
            assert pair_score(0, j, vocab, store, mu=2.0) == pytest.approx(
                pair_score(0, j, vocab, scaled, mu=2.0), abs=1e-12
            )


class TestSelectMask:
    def test_rho_zero_empty(self):
        assert select_mask(1, 0.0, range(100)) == frozenset()

    def test_rho_one_full(self):
        assert select_mask(1, 1.0, range(100)) == frozenset(range(100))

    def test_size_is_floor(self):
        ids = range(10)
        assert len(select_mask(5, 0.55, ids)) == math.floor(0.55 * 10)

    def test_deterministic(self):
        ids = range(1000)
        assert select_mask(42, 0.3, ids) == select_mask(42, 0.3, ids)

    def test_different_seed_overlap_near_hypergeometric(self):
        # two independent size-m subsets of n expect overlap m^2/n = 2500
        ids = range(10_000)
        a = select_mask(1, 0.5, ids)
        b = select_mask(2, 0.5, ids)
        overlap = len(a & b)
        sigma = math.sqrt(5000 * 0.5 * 0.5)  # ~35
        assert abs(overlap - 2500) < 5 * sigma

    @pytest.mark.parametrize("rho", [-0.1, 1.5, float("nan")])
    def test_rho_outside_unit_interval_rejected(self, rho):
        with pytest.raises(ArgumentError, match=r"^rho must lie in \[0, 1\]$"):
            select_mask(1, rho, range(10))

    @pytest.mark.parametrize("ids", [[True, 2], [1.5, 2], ["a"], [np.int64(1), 2], 7])
    def test_non_ids_rejected(self, ids):
        with pytest.raises(ArgumentError, match="permutable"):
            select_mask(0, 1.0, ids)

    def test_ids_in_any_order_with_repeats(self):
        ids = [9, 3, 3, 7, 1]
        assert select_mask(4, 0.5, ids) == select_mask(4, 0.5, [1, 3, 7, 9])
        assert select_mask(4, 0.5, np.array(ids)) == select_mask(4, 0.5, ids)

    def test_masks_nested_across_rho(self):
        ids = range(500)
        small = select_mask(7, 0.2, ids)
        large = select_mask(7, 0.7, ids)
        assert small <= large


def oracle_best_matching(members, score):
    """Exhaustive search over all perfect matchings (odd sets leave one out)."""

    def all_matchings(items):
        if len(items) <= 1:
            yield []
            return
        first = items[0]
        for idx in range(1, len(items)):
            rest = items[1:idx] + items[idx + 1 :]
            for matching in all_matchings(rest):
                yield [(first, items[idx])] + matching

    best_value = -math.inf
    best = None
    if len(members) % 2 == 1:
        pool = [
            (skip, [m for m in members if m != skip]) for skip in members
        ]
    else:
        pool = [(None, list(members))]
    for _, items in pool:
        for matching in all_matchings(items):
            value = sum(2.0 * score(i, j) for i, j in matching)
            if value > best_value:
                best_value = value
                best = matching
    return best_value, best


def build_instance(seed, n, d=6):
    rng = np.random.default_rng(seed)
    vocab = random_vocab(rng, n)
    store = positive_unit_store(rng, n, d)
    return vocab, store


class TestBuildKey:
    def test_rho_zero_identity(self):
        vocab, store = build_instance(0, 10)
        key = build_key(vocab, store, BuildConfig(rho=0.0, k=3, seed=1))
        assert key.mapping == {} and key.fixed_points == ()

    def test_requires_normalized_store(self):
        vocab, _ = build_instance(0, 10)
        store = EmbeddingStore(rows=np.ones((10, 3)))
        with pytest.raises(ArgumentError):
            build_key(vocab, store, BuildConfig(k=2))

    def test_odd_cell_has_one_fixed_point(self):
        vocab, store = build_instance(3, 5)
        key = build_key(vocab, store, BuildConfig(k=4, seed=9, buckets=1))
        assert len(key.fixed_points) == 1
        fp = key.fixed_points[0]
        assert key.mapping[fp] == fp

    def test_six_tokens_unique_partners_recovers_perfect_matching(self):
        # three well-separated embedding pairs: each token's only close
        # neighbor is its intended partner, so greedy must find the same
        # matching as exhaustive search over all 15 pairings
        vocab = vocab_from([b"alpha", b"omega", b"north", b"south", b"red", b"blue"])
        base = np.eye(3)
        rows = []
        for c in range(3):
            rows.append(base[c])
            bent = base[c] + 0.05 * base[(c + 1) % 3]
            rows.append(bent / np.linalg.norm(bent))
        store = EmbeddingStore(rows=np.array(rows), normalized=True)
        config = BuildConfig(k=5, mu=2.0, seed=0)
        key = build_key(vocab, store, config)

        def score(i, j):
            return pair_score(i, j, vocab, store, mu=2.0)

        best_value, best = oracle_best_matching(list(range(6)), score)
        greedy_pairs = {(min(i, j), max(i, j)) for i, j in key.mapping.items() if i != j}
        assert greedy_pairs == {(min(i, j), max(i, j)) for i, j in best}
        assert objective_value(key, vocab, store) == pytest.approx(best_value)

    def test_invariants_random_configs(self):
        rng = np.random.default_rng(2025)
        for trial in range(8):
            n = int(rng.integers(20, 120))
            vocab, store = build_instance(trial + 100, n)
            config = BuildConfig(
                k=int(rng.integers(1, 12)),
                mu=float(rng.uniform(0, 2)),
                rho=float(rng.choice([0.0, 0.25, 0.5, 0.8, 1.0])),
                seed=int(rng.integers(0, 2**63)),
                buckets=int(rng.integers(1, 5)),
                edit_mode=str(rng.choice(["normalized", "raw"])),
            )
            key = build_key(vocab, store, config)
            permutable = vocab.permutable_ids
            assert len(key.mask) == math.floor(config.rho * len(permutable))
            assert set(key.mapping) == key.mask
            for i, j in key.mapping.items():
                assert key.mapping[j] == i
                assert j in key.mask
            assert not (key.mask & vocab.specials)
            # at most one fixed point per bucket, only in odd cells
            cells = {}
            for i in key.mask:
                cells.setdefault(bucket_index(config.seed, config.buckets, i), []).append(i)
            fixed_by_cell = {}
            for fp in key.fixed_points:
                cell = bucket_index(config.seed, config.buckets, fp)
                assert cell not in fixed_by_cell
                fixed_by_cell[cell] = fp
                assert len(cells[cell]) % 2 == 1

    def test_rebuild_byte_identical(self, tmp_path):
        vocab, store = build_instance(7, 60)
        config = BuildConfig(k=6, seed=123, buckets=3, rho=0.8)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_key(build_key(vocab, store, config), p1)
        save_key(build_key(vocab, store, config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cells_pair_in_order_on_calling_thread(self, monkeypatch):
        vocab, store = build_instance(8, 80)
        config = BuildConfig(k=5, seed=5, buckets=4)  # ~20-member cells: quarters, several rounds
        expected = build_key(vocab, store, config)
        events = []  # per top-k call its cell and thread; None where a round is scored
        topk, edit_terms = bijection.topk_cosine, bijection._edit_terms

        def topk_spy(store, query_ids, *args, **kwargs):
            cell = bucket_index(config.seed, config.buckets, int(query_ids[0]))
            events.append((cell, threading.get_ident()))
            return topk(store, query_ids, *args, **kwargs)

        def edit_spy(*args):
            events.append(None)
            return edit_terms(*args)

        monkeypatch.setattr(bijection, "topk_cosine", topk_spy)
        monkeypatch.setattr(bijection, "_edit_terms", edit_spy)
        key = build_key(vocab, store, config, threads=4)  # accepted and ignored
        assert key.mapping == expected.mapping

        rounds, current = [], []
        for event in events:
            if event is None:
                rounds.append(current)
                current = []
            else:
                current.append(event)
        assert current == [] and len(rounds) > 1
        assert rounds[0] == [(cell, threading.get_ident()) for cell in range(4)]
        for calls in rounds:  # each round's batches on this thread, in ascending cell order
            cells = [cell for cell, _ in calls]
            assert cells == sorted(set(cells))
            assert {thread for _, thread in calls} == {threading.get_ident()}

    def test_embedding_scaling_leaves_key_unchanged(self, tmp_path):
        vocab, store = build_instance(9, 40)
        config = BuildConfig(k=4, seed=11)
        scaled = EmbeddingStore(rows=store.rows * 3.0)
        from alienlang import normalize

        key_a = build_key(vocab, store, config)
        key_b = build_key(vocab, normalize(scaled), config)
        assert key_a.mapping == key_b.mapping

    # 0 gives one-row batches and slices and one cell per group; 4 KiB gives
    # batches of 6-8 rows, slices of 3-4 and one cell per group
    @pytest.mark.parametrize("budget", [0, 1 << 12])
    def test_greedy_batch_width_does_not_change_bucketed_key(self, budget, monkeypatch):
        vocab, store = build_instance(12, 120)
        config = BuildConfig(k=30, seed=5, buckets=4)
        sizes = np.bincount([bucket_index(5, 4, i) for i in vocab.permutable_ids])
        assert sizes.min() < config.k + 1 < sizes.max()  # one cell's top-k takes all of it
        default = build_key(vocab, store, config)
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", budget)
        assert build_key(vocab, store, config).mapping == default.mapping
        assert default.mapping == reference_greedy_mapping(vocab, store, config)

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**100])
    @pytest.mark.parametrize("buckets", [2, 16, 1000])
    def test_bucket_layout_matches_bucket_index(self, seed, buckets):
        ids = list(range(0, 6000, 3))
        expected = [bucket_index(seed, buckets, i) for i in ids]
        assert bijection._bucket_layout(seed, buckets, ids) == expected

    def test_missing_embedding_row_is_coverage_error(self):
        vocab, _ = build_instance(11, 20)
        short_store = unit_store(np.random.default_rng(1), 10, 4)
        from alienlang import CoverageError

        with pytest.raises(CoverageError):
            build_key(vocab, short_store, BuildConfig(k=2))


def sparse_vocab(rng, n: int, specials: int, min_len: int = 3, max_len: int = 10) -> Vocabulary:
    """n random lowercase tokens of ``min_len`` to ``max_len`` bytes at sparse,
    unordered ids; ``specials`` of them, drawn at random, are special, so they
    interleave with the permutable ids."""
    tokens = random_vocab(rng, n, min_len, max_len).id_to_token
    ids = rng.choice(3 * n, size=n, replace=False)
    entries = [(tokens[p], int(tid)) for p, tid in enumerate(ids)]
    special_ids = [int(i) for i in rng.choice(ids, specials, replace=False)]
    return Vocabulary.from_entries(entries, special_ids)


class TestReferenceGreedy:
    """build_key against the exhaustive reference greedy in tests/helpers.py.

    Axis stores make every cosine exactly -1, 0 or 1, so rows are full of ties
    at the top-k cut, and the member ids of a cell are sparse: specials sit
    between them, ``rho < 1`` drops some and ``buckets > 1`` scatters the rest.
    The ``long`` trials draw tokens of 1-90 bytes, so pairs run in both kernel
    lanes, with either string as the pattern, and in the two-row DP; their
    cells are small because the oracle's DP is pure Python.
    """

    @pytest.mark.parametrize(
        "trial", [*range(24), *(pytest.param(t, id=f"long{t}") for t in range(24, 30))]
    )
    def test_build_key_matches_reference(self, trial, monkeypatch):
        rng = np.random.default_rng(4100 + trial)
        if trial < 24:
            n = int(rng.integers(8, 70))
            vocab = sparse_vocab(rng, n, specials=int(rng.integers(1, 6)))
        else:
            n = int(rng.integers(16, 48))
            vocab = sparse_vocab(rng, n, specials=int(rng.integers(1, 6)), min_len=1, max_len=90)
        store = axis_store(rng, max(vocab.id_to_token) + 1, int(rng.integers(1, 5)))
        config = BuildConfig(
            k=int(rng.integers(1, 9)),
            mu=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            rho=float(rng.choice([0.6, 0.85, 1.0])),
            seed=trial,
            buckets=int(rng.choice([1, 2, 3, 5])),
            edit_mode=str(rng.choice(["normalized", "raw"])),
        )
        # 1-8 KiB: batches and selection slices of a few rows, groups of one
        # cell or a few
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", int(rng.integers(1, 9)) << 10)
        key = build_key(vocab, store, config)
        assert key.mapping == reference_greedy_mapping(vocab, store, config)


class TestLazyGreedy:
    """The walk retrieves a cell in batches of the members still unpaired.

    A batch holds at most a quarter of its cell, so these small cells take
    several batches; a budget patched into ``embeddings._BLOCK_BYTES`` sets
    smaller ones.
    """

    @pytest.mark.parametrize("buckets", [1, 4])
    def test_batch_size_does_not_change_mapping(self, buckets, monkeypatch):
        rng = np.random.default_rng(2600 + buckets)
        vocab = sparse_vocab(rng, 160, specials=5)
        store = axis_store(rng, max(vocab.id_to_token) + 1, 6)
        config = BuildConfig(k=6, seed=9, buckets=buckets)
        keys = []
        for budget in (0, 1 << 12, embeddings._BLOCK_BYTES):
            monkeypatch.setattr(embeddings, "_BLOCK_BYTES", budget)
            keys.append(build_key(vocab, store, config))
        assert keys[0].mapping == keys[1].mapping == keys[2].mapping
        assert keys[0].mapping == reference_greedy_mapping(vocab, store, config)

    def test_only_unpaired_members_are_retrieved(self, monkeypatch):
        batches = []
        topk = bijection.topk_cosine

        def spy(store, query_ids, *args, **kwargs):
            batches.append(np.asarray(query_ids).tolist())
            return topk(store, query_ids, *args, **kwargs)

        monkeypatch.setattr(bijection, "topk_cosine", spy)
        rng = np.random.default_rng(2610)
        vocab = sparse_vocab(rng, 300, specials=5)
        store = axis_store(rng, max(vocab.id_to_token) + 1, 16)
        config = BuildConfig(k=30, seed=2)
        # one cell of m members: a budget of 7 similarity rows, 8 B a cell
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * 7 * len(vocab.permutable_ids))
        key = build_key(vocab, store, config)
        mapping, paired_by = reference_greedy_walk(vocab, store, config)
        assert key.mapping == mapping

        queried = [i for batch in batches for i in batch]
        assert queried == sorted(set(queried))  # ascending, none retrieved twice
        assert [len(b) for b in batches[:-1]] == [7] * (len(batches) - 1)
        # A batch forms once every turn before its first member has been
        # walked, so each member was still unpaired then.
        for batch in batches:
            assert all(paired_by.get(i, i) >= batch[0] for i in batch)
        # every member whose turn came while it was unpaired was retrieved
        assert {i for i in key.mask if paired_by.get(i, i) == i} <= set(queried)
        assert len(queried) <= 0.65 * len(key.mask)

    def test_cells_are_scored_in_rounds(self, monkeypatch):
        batches, scoring_calls = [], []
        topk, edit_terms = bijection.topk_cosine, bijection._edit_terms

        def topk_spy(store, query_ids, *args, **kwargs):
            batches.append(np.asarray(query_ids).tolist())
            return topk(store, query_ids, *args, **kwargs)

        def edit_spy(surfaces, left, right, edit_mode):
            scoring_calls.append(len(left))
            return edit_terms(surfaces, left, right, edit_mode)

        monkeypatch.setattr(bijection, "topk_cosine", topk_spy)
        monkeypatch.setattr(bijection, "_edit_terms", edit_spy)
        rng = np.random.default_rng(2620)
        vocab = sparse_vocab(rng, 300, specials=5)
        store = axis_store(rng, max(vocab.id_to_token) + 1, 16)
        config = BuildConfig(k=30, seed=4, buckets=4)
        key = build_key(vocab, store, config)
        mapping, paired_by = reference_greedy_walk(vocab, store, config)
        assert key.mapping == mapping

        by_cell: dict[int, list[list[int]]] = {}
        for batch in batches:
            cells = {bucket_index(config.seed, config.buckets, i) for i in batch}
            assert len(cells) == 1  # a batch never spans cells
            by_cell.setdefault(cells.pop(), []).append(batch)
        assert sorted(by_cell) == [0, 1, 2, 3]
        # one scoring call per round: as many as the longest cell has batches
        assert len(scoring_calls) == max(map(len, by_cell.values())) > 1
        for cell_batches in by_cell.values():
            queried = [i for batch in cell_batches for i in batch]
            assert queried == sorted(set(queried))  # ascending, none retrieved twice
            for batch in cell_batches:  # each member was unpaired when its batch formed
                assert all(paired_by.get(i, i) >= batch[0] for i in batch)

    def test_groups_of_cells_prepare_their_own_surfaces(self, monkeypatch):
        budget = 1 << 17
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", budget)
        batches, scored = [], []  # scored: the surfaces of each scoring call
        topk, edit_terms = bijection.topk_cosine, bijection._edit_terms

        def topk_spy(store, query_ids, *args, **kwargs):
            batches.append(np.asarray(query_ids).tolist())
            return topk(store, query_ids, *args, **kwargs)

        def edit_spy(surfaces, left, right, edit_mode):
            scored.append(surfaces)
            return edit_terms(surfaces, left, right, edit_mode)

        monkeypatch.setattr(bijection, "topk_cosine", topk_spy)
        monkeypatch.setattr(bijection, "_edit_terms", edit_spy)
        rng = np.random.default_rng(2625)
        vocab = sparse_vocab(rng, 400, specials=5)
        store = axis_store(rng, max(vocab.id_to_token) + 1, 16)
        config = BuildConfig(k=20, seed=3, buckets=6)
        key = build_key(vocab, store, config)
        assert key.mapping == reference_greedy_mapping(vocab, store, config)

        # consecutive cells while their match tables (10 B per surface and
        # distinct byte) and round matrices (64 B per candidate of a batch)
        # fit the budget, unless one cell is larger
        sizes: dict[int, int] = {}
        for i in sorted(key.mask):
            cell = bucket_index(config.seed, config.buckets, i)
            sizes[cell] = sizes.get(cell, 0) + 1
        alphabet = len(set(b"".join(map(vocab.token_of, key.mask))))
        groups, total = [], budget
        for cell in sorted(sizes):
            m = sizes[cell]
            batch = max(1, min(m // 4, budget // (8 * m)))
            cost = m * 10 * alphabet + batch * min(config.k, m) * 64
            if total + cost > budget:
                groups.append([])
                total = 0
            groups[-1].append(cell)
            total += cost
        assert 1 < len(groups) < len(sizes)  # some group holds several cells

        rounds: dict[int, int] = {}  # per cell, its number of batches
        for batch in batches:
            cell = bucket_index(config.seed, config.buckets, batch[0])
            rounds[cell] = rounds.get(cell, 0) + 1
        prepared = list(dict.fromkeys(scored))  # each group's surfaces, in order
        assert [len(s) for s in prepared] == [sum(sizes[c] for c in g) for g in groups]
        # a group's surfaces serve one scoring call per round of its longest cell
        assert [scored.count(s) for s in prepared] == [max(rounds[c] for c in g) for g in groups]

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_narrow_and_lone_cells_share_rounds(self, seed, monkeypatch):
        # a one-member cell and cells of at most k members pad their rows
        # beside wider cells in the same round matrix
        batch_cells, scoring_calls = [], []  # batch_cells: the cell of each batch
        topk, edit_terms = bijection.topk_cosine, bijection._edit_terms

        def topk_spy(store, query_ids, *args, **kwargs):
            batch_cells.append(bucket_index(seed, 12, int(query_ids[0])))
            return topk(store, query_ids, *args, **kwargs)

        def edit_spy(*args):
            scoring_calls.append(len(args[1]))
            return edit_terms(*args)

        monkeypatch.setattr(bijection, "topk_cosine", topk_spy)
        monkeypatch.setattr(bijection, "_edit_terms", edit_spy)
        rng = np.random.default_rng(seed)
        vocab = random_vocab(rng, 40)
        store = axis_store(rng, 40, 4)
        config = BuildConfig(k=6, seed=seed, buckets=12)
        cells: dict[int, list[int]] = {}
        for i in vocab.permutable_ids:
            cells.setdefault(bucket_index(seed, 12, i), []).append(i)
        sizes = sorted(map(len, cells.values()))
        assert sizes[0] == 1 and any(1 < m <= config.k for m in sizes) and sizes[-1] > config.k

        key = build_key(vocab, store, config)
        assert key.mapping == reference_greedy_mapping(vocab, store, config)
        for members in cells.values():
            if len(members) == 1:
                assert key.mapping[members[0]] == members[0]
        # one scoring call per round: as many as the cell with the most batches
        assert len(scoring_calls) == max(map(batch_cells.count, batch_cells)) > 1

    def test_a_cell_is_retrieved_in_quarters_at_most(self, monkeypatch):
        # ~200-member cells' similarities fit the budget whole, but a batch holds
        # at most a quarter of its cell, so members taken before their turn stay
        # unretrieved
        retrieved = []
        topk = bijection.topk_cosine

        def spy(store, query_ids, *args, **kwargs):
            retrieved.append(len(query_ids))
            return topk(store, query_ids, *args, **kwargs)

        monkeypatch.setattr(bijection, "topk_cosine", spy)
        rng = np.random.default_rng(2630)
        vocab = random_vocab(rng, 800)
        store = unit_store(rng, 800, 16)
        config = BuildConfig(k=50, seed=6, buckets=4)
        key = build_key(vocab, store, config)
        assert sum(retrieved) <= 0.75 * len(key.mask)
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 0)  # one-row batches
        assert build_key(vocab, store, config).mapping == key.mapping


def key_sha256(key, tmp_path) -> str:
    path = tmp_path / "key.json"
    save_key(key, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_instance():
    rng = np.random.default_rng(5150)
    vocab = random_vocab(rng, 700, specials=4)
    store = clustered_store(rng, 700, 16, clusters=20)
    # exact cosine ties, so retrieval cuts through tied values
    return vocab, store, axis_store(np.random.default_rng(5151), 700, 8)


class TestKeyBytesPinned:
    """The determinism contract: key files are byte-identical across releases.

    Digests are SHA-256 of the ``save_key`` bytes.  A change to any of them
    is a key-format change and needs a version bump.
    """

    CASES = {
        "flat": (BuildConfig(k=10, seed=1), None, False,
                 "bd9e479207280566daa9c61f18266f25a708b86856dfe0bc32681a23cc1a1e4f"),
        "buckets4_threads2": (BuildConfig(k=10, seed=2, buckets=4), 2, False,
                              "d78063b79f1217f72b9a304b4f2c1f0c762b5904c661721d03372aee49ebe407"),
        "raw": (BuildConfig(k=10, seed=3, mu=2.0, edit_mode="raw"), None, False,
                "17a1aef7f2fe91efbf3f3acf03c313c681dccf87b93ca7b818e914a578d2ac34"),
        "k_covers_cell": (BuildConfig(k=400, seed=4, buckets=4), None, False,
                          "cf9b13d507d86bcb2bcafe4a2a036571ed7c3edcf93ffad8e11c6bb78795e096"),
        "rho_half": (BuildConfig(k=10, seed=5, rho=0.5), None, False,
                     "864bb3a60ba36abe76ceea90b49ea691bf334bc11d150d9efff41ca8c628c76e"),
        # a key file records greedy_batch, which changes nothing else
        "batch1": (BuildConfig(k=10, seed=6, greedy_batch=1), None, False,
                   "57230d6ca9ba85b33c25645ae84776af0df246a1143404419f8700c2971e4960"),
        "batch64": (BuildConfig(k=10, seed=6, greedy_batch=64), None, False,
                    "ca929132d090881d4972e4aa8312bf3967f30883646de88441a3a281ac904a77"),
        "axis_ties": (BuildConfig(k=5, seed=7, buckets=2), None, True,
                      "bca556357fe4978a63bf0802f7f18542da882ec29ae82c5fae8c6b3deabbce90"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_key_sha256(self, name, tmp_path):
        config, threads, ties, digest = self.CASES[name]
        vocab, store, axis_store = pinned_instance()
        key = build_key(vocab, axis_store if ties else store, config, threads=threads)
        assert key_sha256(key, tmp_path) == digest

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_load_save_reproduces_bytes(self, name, tmp_path):
        config, threads, ties, _ = self.CASES[name]
        vocab, store, axis_store = pinned_instance()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_key(build_key(vocab, axis_store if ties else store, config, threads=threads), first)
        save_key(load_key(first), second)
        assert second.read_bytes() == first.read_bytes()

    # 0 gives one-row batches and slices and one cell per group; 2^40 one
    # group over the whole mask, quarter-cell batches and whole-batch slices
    @pytest.mark.parametrize("budget", [0, 1 << 12, 1 << 16, 1 << 18, 1 << 40])
    @pytest.mark.parametrize("name", ["flat", "buckets4_threads2", "raw", "axis_ties"])
    def test_budget_does_not_change_key_bytes(self, name, budget, tmp_path, monkeypatch):
        config, _, ties, digest = self.CASES[name]
        vocab, store, axis_store = pinned_instance()
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", budget)
        key = build_key(vocab, axis_store if ties else store, config)
        assert key_sha256(key, tmp_path) == digest

    def test_k_covers_every_cell(self):
        # the k_covers_cell case exercises k >= cell size only if no cell exceeds k
        vocab, _, _ = pinned_instance()
        sizes = np.bincount([bucket_index(4, 4, i) for i in vocab.permutable_ids])
        assert sizes.max() <= 400


class TestObjective:
    def test_empty_mapping_zero(self):
        vocab, store = build_instance(0, 10)
        key = identity_key(vocab)
        assert objective_value(key, vocab, store) == 0.0

    def test_single_pair_counts_twice(self):
        vocab, store = build_instance(1, 4)
        key = key_from_pairs(vocab, [(0, 1)])
        expected = 2.0 * pair_score(0, 1, vocab, store, mu=key.config.mu)
        assert objective_value(key, vocab, store) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "config",
        [BuildConfig(k=5, mu=0.7, seed=1, rho=0.9, buckets=3),
         BuildConfig(k=5, mu=2.0, seed=2, edit_mode="raw")],
        ids=["normalized", "raw"],
    )
    def test_matches_loop_over_pair_scores(self, config):
        vocab, store = build_instance(4, 61)
        key = build_key(vocab, store, config)
        loop = sum(
            pair_score(i, j, vocab, store, mu=config.mu, edit_mode=config.edit_mode)
            for i, j in key.mapping.items()
            if i != j
        )
        # float64 sums of ~60 terms of magnitude ~1, in another order
        assert objective_value(key, vocab, store) == pytest.approx(loop, rel=1e-12, abs=1e-12)

    def test_zero_embedding_rejected(self):
        vocab, store = build_instance(5, 4)
        rows = store.rows.copy()
        rows[1] = 0.0
        with pytest.raises(ArgumentError, match="zero embedding"):
            objective_value(key_from_pairs(vocab, [(0, 1)]), vocab, EmbeddingStore(rows=rows))
        with pytest.raises(ArgumentError, match="zero embedding"):
            pair_score(0, 1, vocab, EmbeddingStore(rows=rows))

    def test_store_without_a_pair_row_rejected(self):
        vocab, store = build_instance(5, 4)
        key = key_from_pairs(vocab, [(0, 3)])
        with pytest.raises(CoverageError, match="^no embedding row for token id 3$"):
            objective_value(key, vocab, EmbeddingStore(rows=store.rows[:3]))

    def test_fingerprint_mismatch(self):
        vocab, store = build_instance(2, 10)
        other_vocab, _ = build_instance(3, 10)
        key = identity_key(other_vocab)
        with pytest.raises(CompatibilityError):
            objective_value(key, vocab, store)

    def test_greedy_beats_mean_random_pairing(self):
        # fixed-seed statistical property over 5 instances of 100 tokens
        wins = 0
        for trial in range(5):
            vocab, store = build_instance(200 + trial, 100)
            config = BuildConfig(k=10, mu=0.5, seed=trial)
            key = build_key(vocab, store, config)
            greedy_obj = objective_value(key, vocab, store)
            rng = np.random.default_rng(trial)
            randoms = []
            for _ in range(100):
                perm = rng.permutation(sorted(key.mask))
                pairs = [(int(perm[i]), int(perm[i + 1])) for i in range(0, len(perm) - 1, 2)]
                rand_key = key_from_pairs(vocab, pairs, config)
                randoms.append(objective_value(rand_key, vocab, store))
            if greedy_obj > float(np.mean(randoms)):
                wins += 1
        assert wins == 5

    def test_small_instance_gap_at_least_80_percent(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            vocab, store = build_instance(300 + trial, n)
            config = BuildConfig(k=max(1, n - 1), mu=0.5, seed=trial)
            key = build_key(vocab, store, config)
            greedy_obj = objective_value(key, vocab, store)

            def score(i, j, _v=vocab, _s=store):
                return pair_score(i, j, _v, _s, mu=0.5)

            best_value, _ = oracle_best_matching(list(vocab.permutable_ids), score)
            assert best_value > 0
            assert greedy_obj >= 0.8 * best_value


class TestCheckKey:
    VOCAB = vocab_from([b"a", b"b", b"c", b"<s>", b"d"], specials=[b"<s>"])

    def key(self, mapping, fingerprint=None):
        fingerprint = self.VOCAB.fingerprint if fingerprint is None else fingerprint
        return BijectionKey(1, fingerprint, BuildConfig(), mapping)

    def test_fitting_key_passes(self):
        check_key(self.key({0: 1, 1: 0, 2: 4, 4: 2, 3: 3}), self.VOCAB)  # <s> fixed is harmless

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({1: 3, 3: 1}, "pairs special token id(s) [3]"),
            ({1: 7, 7: 1}, "outside the vocabulary: [7]"),
            ({-5: 0, 0: -5}, "outside the vocabulary: [-5]"),
        ],
    )
    def test_unfit_key_rejected(self, mapping, message):
        with pytest.raises(CompatibilityError, match=re.escape(message)):
            check_key(self.key(mapping), self.VOCAB)

    def test_validate_rejects_a_broken_involution(self):
        with pytest.raises(FormatError, match=r"^involution broken at pair \(0, 1\)$"):
            self.key({0: 1, 1: 1}).validate()

    def test_fingerprint_mismatch(self):
        with pytest.raises(CompatibilityError, match="different vocabulary"):
            check_key(self.key({0: 1, 1: 0}, fingerprint=self.VOCAB.fingerprint ^ 1), self.VOCAB)

    def test_objective_and_opacity_check_the_key(self):
        store = EmbeddingStore(rows=np.eye(5), normalized=True)
        with pytest.raises(CompatibilityError):
            objective_value(self.key({1: 7, 7: 1}), self.VOCAB, store)
        with pytest.raises(CompatibilityError):
            opacity_report(self.key({1: 3, 3: 1}), self.VOCAB)


class TestOverlap:
    def test_self_overlap_100(self):
        vocab, store = build_instance(0, 30)
        key = build_key(vocab, store, BuildConfig(k=3, seed=1))
        assert key_overlap(key, key) == 100.0

    def test_disjoint_masks_zero(self):
        vocab, _ = build_instance(1, 10)
        a = key_from_pairs(vocab, [(0, 1)])
        b = key_from_pairs(vocab, [(2, 3)])
        assert key_overlap(a, b) == 0.0

    def test_fingerprint_mismatch(self):
        va, sa = build_instance(2, 10)
        vb, _ = build_instance(3, 10)
        with pytest.raises(CompatibilityError):
            key_overlap(identity_key(va), identity_key(vb))

    def test_multi_bucket_seeds_diverge(self):
        vocab, store = build_instance(4, 200)
        keys = [
            build_key(vocab, store, BuildConfig(k=8, seed=s, buckets=8)) for s in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert key_overlap(keys[i], keys[j]) < 30.0


class TestOpacityReport:
    def test_every_pair_differs_unchanged_zero(self):
        vocab = vocab_from([b"aa", b"bb", b"cc", b"dd"])
        key = key_from_pairs(vocab, [(0, 1), (2, 3)])
        rep = opacity_report(key, vocab)
        assert rep.unchanged_fraction == 0.0
        assert rep.fixed_point_count == 0

    def test_only_fixed_points_are_unchanged(self):
        vocab = vocab_from([b"aa", b"bb", b"cc", b"dd"])
        rep = opacity_report(key_from_pairs(vocab, [(0, 1)], fixed_points=[2, 3]), vocab)
        assert rep.unchanged_fraction == 0.5
        assert rep.fixed_point_count == 2

    def test_rho_zero_flags_empty(self):
        vocab = vocab_from([b"a", b"b"])
        rep = opacity_report(identity_key(vocab), vocab)
        assert rep.empty_mapping
        assert rep.mean_normalized_edit is None

    def test_three_pair_mean_matches_hand_computed(self):
        # lev(aaaa,b)=4/4=1.0; lev(cc,cd)=1/2=0.5; lev(ee,ff)=2/2=1.0
        vocab = vocab_from([b"aaaa", b"b", b"cc", b"cd", b"ee", b"ff"])
        key = key_from_pairs(vocab, [(0, 1), (2, 3), (4, 5)])
        rep = opacity_report(key, vocab)
        assert rep.mean_normalized_edit == pytest.approx((1.0 + 0.5 + 1.0) / 3)
        assert rep.median_normalized_edit == pytest.approx(1.0)

    def test_fixed_point_counts_as_unchanged(self):
        vocab = vocab_from([b"aa", b"bb", b"zz"])
        key = key_from_pairs(vocab, [(0, 1)], fixed_points=[2])
        rep = opacity_report(key, vocab)
        assert rep.fixed_point_count == 1
        assert rep.unchanged_fraction == pytest.approx(1 / 3)


# config values of a type a key file cannot hold; BuildConfig and load_key refuse each
MALFORMED_CONFIG_VALUES = [
    ("k", 2.5),
    ("k", True),
    ("k", "3"),
    ("seed", "x"),
    ("seed", 1.0),
    ("seed", None),
    ("buckets", True),
    ("buckets", [2]),
    ("greedy_batch", 50.0),
    ("mu", "1"),
    ("mu", False),
    ("rho", None),
    ("rho", {"v": 1}),
    ("edit_mode", 1),
    ("edit_mode", None),
]


class TestSerialization:
    def test_round_trip_on_built_key(self, tmp_path):
        vocab, store = build_instance(5, 120)
        key = build_key(vocab, store, BuildConfig(k=7, seed=99, rho=0.9, buckets=2))
        path = tmp_path / "key.json"
        save_key(key, path)
        back = load_key(path)
        assert back.mapping == key.mapping
        assert back.mask == key.mask
        assert back.config == key.config
        assert back.vocab_fingerprint == key.vocab_fingerprint
        assert back.fixed_points == key.fixed_points

    def test_tampered_involution_rejected(self, tmp_path):
        import json as json_mod

        vocab, store = build_instance(6, 20)
        key = build_key(vocab, store, BuildConfig(k=3, seed=2))
        path = tmp_path / "key.json"
        save_key(key, path)
        doc = json_mod.loads(path.read_text())
        doc["mapping"][0][1] = doc["mapping"][1][1]  # reuse an id across pairs
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(FormatError):
            load_key(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import json as json_mod

        vocab, store = build_instance(6, 20)
        key = build_key(vocab, store, BuildConfig(k=3, seed=2))
        path = tmp_path / "key.json"
        save_key(key, path)
        doc = json_mod.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(FormatError):
            load_key(path)

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", '"key"', "3", "null"])
    def test_non_object_key_file_rejected(self, tmp_path, text):
        path = tmp_path / "key.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_key(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mapping", [["a", 3]]),
            ("mapping", [[1.5, 3]]),
            ("mapping", [[True, 3]]),
            ("mapping", 5),
            ("mapping", {"1": 3}),
            ("fixed_points", 5),
            ("fixed_points", ["4"]),
            ("fixed_points", [4.0]),
            ("fixed_points", [False]),
        ],
    )
    def test_malformed_id_fields_rejected(self, tmp_path, field, value):
        import json as json_mod

        vocab, store = build_instance(6, 20)
        key = build_key(vocab, store, BuildConfig(k=3, seed=2))
        path = tmp_path / "key.json"
        save_key(key, path)
        doc = json_mod.loads(path.read_text())
        doc[field] = value
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(FormatError):
            load_key(path)

    @pytest.mark.parametrize("field, value", MALFORMED_CONFIG_VALUES)
    def test_malformed_config_types_rejected(self, tmp_path, field, value):
        import json as json_mod

        vocab = vocab_from([b"aa", b"bb", b"cc"])
        path = tmp_path / "key.json"
        save_key(key_from_pairs(vocab, [(0, 1)], fixed_points=[2]), path)
        doc = json_mod.loads(path.read_text())
        doc["config"][field] = value
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(FormatError, match=field):
            load_key(path)

    @staticmethod
    def edited_key_file(tmp_path, edit):
        """A saved two-token key file with ``edit`` applied to its JSON document."""
        import json as json_mod

        path = tmp_path / "key.json"
        save_key(key_from_pairs(vocab_from([b"aa", b"bb"]), [(0, 1)]), path)
        doc = json_mod.loads(path.read_text())
        edit(doc)
        path.write_text(json_mod.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k", 0, "k must be >= 1"),
            ("edit_mode", "fuzzy", "edit_mode must be one of"),
            ("rho", 1.5, "rho must lie in"),
            ("mu", 10**400, "too large"),  # an int past float range
        ],
        ids=["k-0", "edit_mode-fuzzy", "rho-1.5", "mu-huge-int"],
    )
    def test_config_out_of_range_rejected(self, tmp_path, field, value, message):
        path = self.edited_key_file(tmp_path, lambda doc: doc["config"].update({field: value}))
        with pytest.raises(FormatError, match=f"key file config: .*{message}"):
            load_key(path)

    @pytest.mark.parametrize(
        "text",
        [
            "0x_b8116aab61bbef6",
            "0xb8116aab61bbef6",
            "+b8116aab61bbef6",
            "-1",
            "b811_6aab_61bb_ef6",
            " b8116aab61bbef6",
            "b8116aab61bbef6\n",
            "",
            "1" * 17,
            "\u0661",  # an Arabic-Indic digit
            12,
            None,
        ],
    )
    def test_malformed_fingerprint_rejected(self, tmp_path, text):
        path = self.edited_key_file(tmp_path, lambda doc: doc.update(vocab_fingerprint=text))
        with pytest.raises(FormatError, match="vocab_fingerprint"):
            load_key(path)

    @pytest.mark.parametrize(
        "text, value", [("ABCDEF0123456789", 0xABCDEF0123456789), ("0", 0), ("00ff", 255)]
    )
    def test_short_and_uppercase_fingerprint_accepted(self, tmp_path, text, value):
        path = self.edited_key_file(tmp_path, lambda doc: doc.update(vocab_fingerprint=text))
        assert load_key(path).vocab_fingerprint == value

    def test_integral_mu_and_rho_accepted(self, tmp_path):
        import json as json_mod

        vocab = vocab_from([b"aa", b"bb"])
        path = tmp_path / "key.json"
        save_key(key_from_pairs(vocab, [(0, 1)]), path)
        doc = json_mod.loads(path.read_text())
        doc["config"].update(mu=2, rho=1)
        path.write_text(json_mod.dumps(doc))
        assert load_key(path).config == BuildConfig(mu=2.0, rho=1.0)

    def test_fixed_points_derived_sorted(self, tmp_path):
        import json as json_mod

        vocab = vocab_from([b"aa", b"bb", b"cc", b"dd", b"ee"])
        key = key_from_pairs(vocab, [(1, 3)], fixed_points=[4, 0, 2])
        assert key.fixed_points == (0, 2, 4)
        assert key.mask == frozenset(range(5))
        path = tmp_path / "key.json"
        save_key(key, path)
        doc = json_mod.loads(path.read_text())
        doc["fixed_points"] = [4, 2, 0]  # hand-edited out of order
        path.write_text(json_mod.dumps(doc))
        back = load_key(path)
        assert back.fixed_points == (0, 2, 4) and back.mapping == key.mapping
        resaved = tmp_path / "resaved.json"
        save_key(back, resaved)
        assert json_mod.loads(resaved.read_text())["fixed_points"] == [0, 2, 4]

    @pytest.mark.parametrize(
        "mapping, fixed_points",
        [
            ([[0, 1]], [1]),
            ([[0, 1]], [2, 2]),
            ([[1, 1]], []),
            ([[2, 1]], []),
        ],
    )
    def test_broken_involution_rejected(self, tmp_path, mapping, fixed_points):
        import json as json_mod

        vocab = vocab_from([b"aa", b"bb", b"cc"])
        path = tmp_path / "key.json"
        save_key(identity_key(vocab), path)
        doc = json_mod.loads(path.read_text())
        doc.update(mapping=mapping, fixed_points=fixed_points)
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(FormatError):
            load_key(path)

    @pytest.mark.parametrize(
        "pairs, fixed_points",
        [
            ([(0, 1), (1, 2)], []),
            ([(0, 1)], [1]),
            ([(1, 1)], []),
            ([(0, 3)], []),  # id 3 is special
            ([(0, 9)], []),  # id 9 is not in the vocabulary
            ([(-1, 0)], []),  # nor is a negative id
        ],
    )
    def test_key_from_pairs_rejects_non_involutions(self, pairs, fixed_points):
        vocab = vocab_from([b"aa", b"bb", b"cc", b"<s>"], specials=[b"<s>"])
        with pytest.raises(ArgumentError):
            key_from_pairs(vocab, pairs, fixed_points=fixed_points)

    def test_bucket_assignment_reconstructible(self):
        # the bucket layout is not in the key file; it must be a pure function
        for tid in (0, 17, 123456):
            assert bucket_index(42, 7, tid) == bucket_index(42, 7, tid)
            assert 0 <= bucket_index(42, 7, tid) < 7


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"mu": -0.1},
            {"rho": 1.5},
            {"rho": -0.2},
            {"buckets": 0},
            {"greedy_batch": 0},
            {"edit_mode": "fuzzy"},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ArgumentError):
            BuildConfig(**kwargs)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ArgumentError):
            BuildConfig(mu=mu)

    @pytest.mark.parametrize(
        "field, value",
        MALFORMED_CONFIG_VALUES
        + [
            ("buckets", 2.5),
            ("seed", 1.5),
            ("seed", True),
            ("seed", np.int64(3)),
            pytest.param("mu", 10**400, id="mu-huge-int"),  # an int too large for a float
            pytest.param("rho", -(10**400), id="rho-huge-negative-int"),
            # past the int/str conversion limit, so neither JSON nor the seeding could read it
            pytest.param("seed", 10**5000, id="seed-5001-digits"),
        ],
    )
    def test_malformed_types_rejected_on_construction(self, field, value):
        with pytest.raises(ArgumentError, match=rf"^{field} (must be \w+, not|is too large)"):
            BuildConfig(**{field: value})
