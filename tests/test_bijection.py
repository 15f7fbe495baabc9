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
    EmbeddingStore,
    FormatError,
    Vocabulary,
    build_key,
    check_key,
    identity_key,
    key_from_pairs,
    key_overlap,
    load_key,
    objective_value,
    opacity_report,
    pair_score,
    save_key,
    select_mask,
)
from alienlang import bijection
from alienlang.bijection import bucket_index, score_strings
from helpers import (
    axis_store,
    clustered_store,
    oracle_levenshtein,
    positive_unit_store,
    random_vocab,
    reference_greedy_mapping,
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
        e = np.array([0.6, 0.8])
        assert score_strings(b"tok", b"tok", e, e, mu=5.0) == pytest.approx(0.0)

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
                cells.setdefault(key.bucket_of[i], []).append(i)
            fixed_by_cell = {}
            for fp in key.fixed_points:
                cell = key.bucket_of[fp]
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
        config = BuildConfig(k=5, seed=5, buckets=4)
        expected = build_key(vocab, store, config)
        calls = []
        pair_cell = bijection._greedy_pair_cell

        def recording(members, vocab, store, config, cell):
            calls.append((cell, threading.get_ident()))
            return pair_cell(members, vocab, store, config, cell)

        monkeypatch.setattr(bijection, "_greedy_pair_cell", recording)
        key = build_key(vocab, store, config, threads=4)  # accepted and ignored
        assert calls == [(cell, threading.get_ident()) for cell in range(4)]
        assert key.mapping == expected.mapping

    def test_embedding_scaling_leaves_key_unchanged(self, tmp_path):
        vocab, store = build_instance(9, 40)
        config = BuildConfig(k=4, seed=11)
        scaled = EmbeddingStore(rows=store.rows * 3.0)
        from alienlang import normalize

        key_a = build_key(vocab, store, config)
        key_b = build_key(vocab, normalize(scaled), config)
        assert key_a.mapping == key_b.mapping

    def test_greedy_batch_width_does_not_change_key(self):
        vocab, store = build_instance(10, 70)
        base = build_key(vocab, store, BuildConfig(k=5, seed=3, greedy_batch=1))
        wide = build_key(vocab, store, BuildConfig(k=5, seed=3, greedy_batch=64))
        assert base.mapping == wide.mapping

    def test_missing_embedding_row_is_coverage_error(self):
        vocab, _ = build_instance(11, 20)
        short_store = unit_store(np.random.default_rng(1), 10, 4)
        from alienlang import CoverageError

        with pytest.raises(CoverageError):
            build_key(vocab, short_store, BuildConfig(k=2))


def sparse_vocab(rng, n: int, specials: int) -> Vocabulary:
    """n random lowercase tokens at sparse, unordered ids; ``specials`` of them,
    drawn at random, are special, so they interleave with the permutable ids."""
    tokens = random_vocab(rng, n).id_to_token
    ids = rng.choice(3 * n, size=n, replace=False)
    entries = [(tokens[p], int(tid)) for p, tid in enumerate(ids)]
    special_ids = [int(i) for i in rng.choice(ids, specials, replace=False)]
    return Vocabulary.from_entries(entries, special_ids)


class TestReferenceGreedy:
    """build_key against the exhaustive reference greedy in tests/helpers.py.

    Axis stores make every cosine exactly -1, 0 or 1, so rows are full of ties
    at the top-k cut, and the member ids of a cell are sparse: specials sit
    between them, ``rho < 1`` drops some and ``buckets > 1`` scatters the rest.
    """

    @pytest.mark.parametrize("trial", range(24))
    def test_build_key_matches_reference(self, trial):
        rng = np.random.default_rng(4100 + trial)
        n = int(rng.integers(8, 70))
        vocab = sparse_vocab(rng, n, specials=int(rng.integers(1, 6)))
        store = axis_store(rng, max(vocab.id_to_token) + 1, int(rng.integers(1, 5)))
        config = BuildConfig(
            k=int(rng.integers(1, 9)),
            mu=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            rho=float(rng.choice([0.6, 0.85, 1.0])),
            seed=trial,
            buckets=int(rng.choice([1, 2, 3, 5])),
            greedy_batch=int(rng.integers(1, 9)),
            edit_mode=str(rng.choice(["normalized", "raw"])),
        )
        key = build_key(vocab, store, config)
        assert key.mapping == reference_greedy_mapping(vocab, store, config)


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
            score_strings(b"a", b"b", rows[0], rows[1], mu=1.0)

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
        assert back.bucket_of == key.bucket_of

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
        ],
    )
    def test_key_from_pairs_rejects_non_involutions(self, pairs, fixed_points):
        vocab = vocab_from([b"aa", b"bb", b"cc", b"<s>"], specials=[b"<s>"])
        with pytest.raises(ArgumentError):
            key_from_pairs(vocab, pairs, fixed_points=fixed_points)

    def test_bucket_assignment_reconstructible(self):
        # bucket_of never hits the key file; it must be a pure function
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
