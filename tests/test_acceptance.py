"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Fixtures are synthetic and seed-frozen; every expected value is either
hand-computed, brute-forced by an in-test oracle, or a published reference
value checked at its stated tolerance.
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from alienlang import (
    BuildConfig,
    EmbeddingStore,
    Vocabulary,
    bleu,
    build_key,
    decode_ids,
    decode_text,
    encode_ids,
    encode_text,
    frequency_attack,
    key_from_pairs,
    key_overlap,
    ngram_attack,
    nn_mapping_attack,
    objective_value,
    pair_score,
    recovery_ratio,
    rouge_l,
    save_key,
)
from alienlang.bijection import bucket_index
from helpers import (
    byte_complete_vocab,
    clustered_store,
    oracle_levenshtein,
    random_vocab,
    unit_store,
)
from test_bijection import TABLE8_CANDIDATES, oracle_best_matching, table8_fixture


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def small_alphabet_vocab(rng, n, alphabet=b"abcde", min_len=4, max_len=9, specials=8):
    """Tokens over a small alphabet, so surface similarity is graded the way
    a real subword vocabulary's is (shared stems and near-miss strings)."""
    letters = np.frombuffer(alphabet, dtype=np.uint8)
    seen, tokens = set(), []
    while len(tokens) < n:
        length = int(rng.integers(min_len, max_len + 1))
        tok = bytes(rng.choice(letters, size=length).astype(np.uint8))
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    entries = [(t, i) for i, t in enumerate(tokens)]
    return Vocabulary.from_entries(entries, range(n - specials, n))


def zipf_probs(count, exponent=1.1):
    ranks = np.arange(1, count + 1, dtype=np.float64)
    p = ranks**-exponent
    return p / p.sum()


# ---------------------------------------------------------------------------
# C1: losslessness


def test_c01_losslessness_id_and_text():
    with criterion("C01 losslessness"):
        rng = np.random.default_rng(101)
        vocab = byte_complete_vocab(
            extra_tokens=[b"the", b"and", b"ing", b"er", b"qu"], specials=[b"<s>", b"</s>"]
        )
        store = unit_store(rng, len(vocab), 16)
        key = build_key(vocab, store, BuildConfig(k=8, seed=0, rho=1.0))
        universe = np.asarray(sorted(vocab.id_to_token))
        start = time.monotonic()

        for _ in range(10_000):
            ids = [int(i) for i in rng.choice(universe, size=int(rng.integers(0, 64)))]
            z = vocab.sequence(ids)
            assert decode_ids(encode_ids(z, key), key).ids == z.ids

        for _ in range(1_000):
            text = bytes(rng.integers(0, 256, size=int(rng.integers(0, 120)), dtype=np.uint8))
            doc = encode_text(text, key, vocab)
            assert decode_text(doc, key, vocab) == text
            if doc.retokenization_safe:
                assert decode_text(doc.rendered, key, vocab) == text

        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"round-trip battery took {elapsed:.1f}s (budget 10s)"


# ---------------------------------------------------------------------------
# C2: reference scoring fixture (toy table); four sub-checks


def test_c02a_scoring_fixture_consistent_rows():
    with criterion("C02a toy-fixture scores (self-consistent rows)"):
        vocab, store = table8_fixture()
        expected = {b"comes": 0.84, b"world": 2.80, b"cup": 1.14, b"here": 2.60}
        for idx, (surface, _, _, _) in enumerate(TABLE8_CANDIDATES, start=1):
            if surface in expected:
                got = pair_score(0, idx, vocab, store, mu=2.0, edit_mode="raw")
                assert got == pytest.approx(expected[surface], abs=1e-9)


def oracle_table8_scores():
    """Each candidate's score at mu=2 from the oracle Levenshtein distance to
    "come" and the fixture's published cosine."""
    return {
        surface: oracle_levenshtein(b"come", surface) - 2.0 * (1.0 - cos)
        for surface, cos, _, _ in TABLE8_CANDIDATES
    }


def test_c02b_scoring_fixture_hello_row():
    # The published "hello" row (2.12) is an erratum: it presumes
    # edit("come", "hello") == 4, but the Levenshtein distance is 5 (four
    # substitutions and one insertion), so the rule gives 5 - 2*(1 - 0.06).
    with criterion("C02b toy-fixture score for 'hello' (Levenshtein edit)"):
        vocab, store = table8_fixture()
        surface, _, published_score, _ = TABLE8_CANDIDATES[1]
        assert surface == b"hello"
        got = pair_score(0, 2, vocab, store, mu=2.0, edit_mode="raw")
        assert got == pytest.approx(oracle_table8_scores()[surface], abs=1e-9)
        # the whole gap from the published value lies in the edit term
        published_edit = 4
        edit_gap = oracle_levenshtein(b"come", surface) - published_edit
        assert got - published_score == pytest.approx(edit_gap, abs=1e-9)


def test_c02c_scoring_fixture_selects_world():
    # The name refers to the published table's winner, "world", which
    # test_c02d still pins on the published inputs. With Levenshtein edits
    # the "hello" row scores highest.
    with criterion("C02c toy-fixture ranking (Levenshtein edit)"):
        vocab, store = table8_fixture()
        scores = {
            surface: pair_score(0, idx, vocab, store, mu=2.0, edit_mode="raw")
            for idx, (surface, _, _, _) in enumerate(TABLE8_CANDIDATES, start=1)
        }
        expected = oracle_table8_scores()
        expected_order = sorted(expected, key=expected.get, reverse=True)
        assert expected_order == [b"hello", b"world", b"here", b"cup", b"comes"]
        assert sorted(scores, key=scores.get, reverse=True) == expected_order
        assert max(scores, key=scores.get) == max(expected, key=expected.get)


def test_c02d_scoring_rule_reproduces_published_arithmetic():
    # the published table is internally consistent under the combination rule
    # S = edit - mu * (1 - cos) given its own stated edit distances
    with criterion("C02d scoring-rule arithmetic on published inputs"):
        published_edit = {b"comes": 1, b"hello": 4, b"world": 4, b"cup": 3, b"here": 3}
        scores = {}
        for surface, cos, ref_score, _ in TABLE8_CANDIDATES:
            scores[surface] = published_edit[surface] - 2.0 * (1.0 - cos)
            assert scores[surface] == pytest.approx(ref_score, abs=1e-9)
        assert max(scores, key=scores.get) == b"world"


# ---------------------------------------------------------------------------
# C3: key invariants over 20 random configs


def test_c03_key_invariants_twenty_random_configs(tmp_path):
    with criterion("C03 key invariants and rebuild determinism"):
        meta_rng = np.random.default_rng(303)
        for trial in range(20):
            n = int(meta_rng.integers(30, 200))
            rng = np.random.default_rng(1000 + trial)
            vocab = random_vocab(rng, n, specials=int(meta_rng.integers(0, 4)))
            store = unit_store(rng, n, 8)
            config = BuildConfig(
                k=int(meta_rng.integers(1, 15)),
                mu=float(meta_rng.uniform(0, 2)),
                rho=float(meta_rng.choice([0.0, 0.2, 0.5, 0.75, 1.0])),
                seed=int(meta_rng.integers(0, 2**62)),
                buckets=int(meta_rng.integers(1, 6)),
                edit_mode=str(meta_rng.choice(["normalized", "raw"])),
            )
            key = build_key(vocab, store, config)

            permutable = vocab.permutable_ids
            assert len(key.mask) == math.floor(config.rho * len(permutable))
            assert set(key.mapping) == key.mask
            for i, j in key.mapping.items():
                assert key.mapping[j] == i and j in key.mask
            assert not (key.mask & vocab.specials)

            cells: dict[int, list[int]] = {}
            for i in key.mask:
                cells.setdefault(bucket_index(config.seed, config.buckets, i), []).append(i)
            seen_cells = set()
            for fp in key.fixed_points:
                cell = bucket_index(config.seed, config.buckets, fp)
                assert cell not in seen_cells, "two fixed points in one bucket"
                seen_cells.add(cell)
                assert len(cells[cell]) % 2 == 1, "fixed point in an even bucket"

            p1 = tmp_path / f"k{trial}a.json"
            p2 = tmp_path / f"k{trial}b.json"
            save_key(key, p1)
            save_key(build_key(vocab, store, config), p2)
            assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# C4: greedy quality against brute force and random baselines


def test_c04_greedy_quality():
    with criterion("C04 greedy quality"):
        # (a) >= 80% of the exhaustive matching optimum on 50 tiny instances;
        # positive-orthant embeddings keep every matching's objective positive
        meta_rng = np.random.default_rng(404)
        for trial in range(50):
            n = int(meta_rng.integers(4, 9))
            rng = np.random.default_rng(2000 + trial)
            vocab = random_vocab(rng, n)
            rows = rng.uniform(0.05, 1.0, size=(n, 8))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            store = EmbeddingStore(rows=rows, normalized=True)
            config = BuildConfig(k=n, mu=0.25, seed=trial)
            key = build_key(vocab, store, config)
            greedy_obj = objective_value(key, vocab, store)

            def score(i, j, _v=vocab, _s=store):
                return pair_score(i, j, _v, _s, mu=0.25)

            best_value, _ = oracle_best_matching(list(vocab.permutable_ids), score)
            assert best_value > 0
            assert greedy_obj >= 0.8 * best_value, (
                f"instance {trial}: greedy {greedy_obj:.4f} < 80% of optimum {best_value:.4f}"
            )

        # (b) beats the mean of 100 random pairings on >= 19/20 instances
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(3000 + trial)
            vocab = random_vocab(rng, 100)
            rows = rng.uniform(0.05, 1.0, size=(100, 8))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            store = EmbeddingStore(rows=rows, normalized=True)
            config = BuildConfig(k=10, mu=0.5, seed=trial)
            key = build_key(vocab, store, config)
            greedy_obj = objective_value(key, vocab, store)
            baseline = []
            pair_rng = np.random.default_rng(9000 + trial)
            for _ in range(100):
                perm = pair_rng.permutation(sorted(key.mask))
                pairs = [(int(perm[i]), int(perm[i + 1])) for i in range(0, len(perm) - 1, 2)]
                rand_key = key_from_pairs(vocab, pairs, config)
                baseline.append(objective_value(rand_key, vocab, store))
            if greedy_obj > float(np.mean(baseline)):
                wins += 1
        assert wins >= 19, f"greedy beat the random-pairing mean on only {wins}/20 instances"


# ---------------------------------------------------------------------------
# C5: build budget at 32K scale


def test_c05_build_budget_32k(tmp_path):
    with criterion("C05 build budget (32K vocab, d=64, k=50)"):
        rng = np.random.default_rng(505)
        vocab = random_vocab(rng, 32_768, specials=8)
        store = unit_store(rng, 32_768, 64)
        start = time.monotonic()
        key = build_key(
            vocab,
            store,
            # the pinned key file records greedy_batch=512; the build ignores it
            BuildConfig(k=50, seed=0, rho=1.0, greedy_batch=512),
            threads=4,
        )
        elapsed = time.monotonic() - start
        assert len(key.mask) == len(vocab.permutable_ids)
        assert elapsed < 300.0, f"build took {elapsed:.1f}s (budget 300s)"
        # the determinism contract at scale: SHA-256 of the save_key bytes
        path = tmp_path / "key.json"
        save_key(key, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8f04b379d5f953c1ac870fff72968f80869616e8c90ac24e0b4b3d2694bb3032"
        )


# ---------------------------------------------------------------------------
# C6: key diversity across seeds


def test_c06_key_diversity_five_seeds():
    with criterion("C06 key diversity"):
        rng = np.random.default_rng(606)
        vocab = small_alphabet_vocab(rng, 5000)
        store = clustered_store(rng, 5000, 32, clusters=100, noise=0.08)
        keys = [
            build_key(vocab, store, BuildConfig(k=20, seed=seed, buckets=16))
            for seed in range(5)
        ]
        for i in range(5):
            for j in range(i + 1, 5):
                overlap = key_overlap(keys[i], keys[j])
                assert overlap < 5.0, f"seeds {i},{j}: overlap {overlap:.2f}% >= 5%"


# ---------------------------------------------------------------------------
# C7: frequency attack on a Zipfian corpus


def test_c07_frequency_attack_zipf():
    with criterion("C07 frequency attack"):
        rng = np.random.default_rng(707)
        vocab = random_vocab(rng, 10_000, specials=8)
        store = unit_store(rng, 10_000, 16)
        key = build_key(vocab, store, BuildConfig(k=10, seed=0, rho=1.0))
        ids = np.asarray(vocab.permutable_ids)
        p = zipf_probs(ids.size)
        observed_plain = rng.choice(ids, size=100_000, p=p)
        reference = rng.choice(ids, size=100_000, p=p)
        alien = [key.apply(int(i)) for i in observed_plain]
        rep = frequency_attack(alien, reference.tolist(), key, top_m=1000)
        assert rep.token_recovery < 0.01, (
            f"token recovery {rep.token_recovery:.4f} >= 1%"
        )


# ---------------------------------------------------------------------------
# C8: n-gram extrapolation attack grid


def test_c08_ngram_attack_grid():
    with criterion("C08 n-gram attack"):
        rng = np.random.default_rng(808)
        vocab = random_vocab(rng, 20_000, specials=8)
        store = unit_store(rng, 20_000, 16)
        key = build_key(vocab, store, BuildConfig(k=10, seed=0, rho=1.0, buckets=4))
        ids = np.asarray(vocab.permutable_ids)
        p = zipf_probs(ids.size)

        def sentences(count, length=20):
            return [[int(i) for i in rng.choice(ids, size=length, p=p)] for _ in range(count)]

        def to_pairs(plains):
            return [(tuple(s), tuple(key.apply(i) for i in s)) for s in plains]

        leak_pool = to_pairs(sentences(1000))
        eval_pairs = to_pairs(sentences(600))
        public_reference = sentences(2000)

        for budget in (10, 50, 1000):
            for n in (2, 3, 4):
                rep = ngram_attack(
                    leak_pool[:budget],
                    eval_pairs,
                    n=n,
                    truth=key,
                    reference_corpus=public_reference,
                )
                assert rep.bijection_recovery is not None
                assert rep.bijection_recovery <= 0.005, (
                    f"budget={budget} n={n}: bijection recovery "
                    f"{rep.bijection_recovery:.5f} > 0.5%"
                )


# ---------------------------------------------------------------------------
# C9: nearest-neighbor mapping attack


def test_c09_nn_attack():
    with criterion("C09 nn mapping attack"):
        rng = np.random.default_rng(909)
        vocab = small_alphabet_vocab(rng, 5000)
        store = clustered_store(rng, 5000, 32, clusters=50, noise=0.08)
        key = build_key(vocab, store, BuildConfig(k=100, seed=0, rho=1.0))
        rep = nn_mapping_attack(store, key)
        assert rep.token_recovery <= 0.05, (
            f"top-1 recovery {rep.token_recovery:.4f} > 5%"
        )

        # scorer validation: a key that deliberately pairs mutual nearest
        # neighbors must be recovered completely
        m = 100
        centers = rng.standard_normal((m, 16))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rows = np.empty((2 * m, 16))
        rows[0::2] = centers
        bent = centers + 0.01 * rng.standard_normal((m, 16))
        rows[1::2] = bent / np.linalg.norm(bent, axis=1, keepdims=True)
        twin_store = EmbeddingStore(rows=rows, normalized=True)
        twin_vocab = random_vocab(np.random.default_rng(910), 2 * m)
        twin_key = key_from_pairs(twin_vocab, [(2 * i, 2 * i + 1) for i in range(m)])
        worst = nn_mapping_attack(twin_store, twin_key)
        assert worst.token_recovery == 1.0


# ---------------------------------------------------------------------------
# C10: scoring oracles


def test_c10_scoring_oracles():
    with criterion("C10 scoring oracles"):
        identical = ["the quick brown fox jumps over", "pack my box with five dozen"]
        assert bleu(identical, identical) == pytest.approx(100.0, abs=1e-9)
        assert bleu(["aa bb cc dd"], ["ee ff gg hh"]) == 0.0

        # hand-counted fixture: 1-grams 7/9, 2-grams 4/7, 3-grams 1/5,
        # 4-grams 0/3; candidate length 9 vs reference length 10
        cands = ["the cat sat on the mat", "a dog barked"]
        refs = ["the cat is on the mat", "the dog barked loudly"]
        expected = (
            100.0
            * math.exp(1 - 10 / 9)
            * ((7 / 9) * (5 / 8) * (2 / 6) * (1 / 4)) ** 0.25
        )
        assert bleu(cands, refs) == pytest.approx(expected, abs=1e-6)

        assert rouge_l(["a b c d"], ["a c d e"]) == pytest.approx(0.75, abs=1e-12)

        assert recovery_ratio(52.92, 64.77) == pytest.approx(81.70, abs=0.01)


# ---------------------------------------------------------------------------
# C11: rho-effect on encode


def test_c11_rho_effect():
    with criterion("C11 rho effect"):
        rng = np.random.default_rng(1111)
        vocab = random_vocab(rng, 2000, specials=4)
        store = unit_store(rng, 2000, 8)
        permutable = np.asarray(vocab.permutable_ids)
        positions = rng.choice(permutable, size=20_000)  # uniform usage over I
        z_ids = [int(i) for i in positions]
        for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
            key = build_key(vocab, store, BuildConfig(k=4, seed=7, rho=rho))
            z = vocab.sequence(z_ids)
            out = encode_ids(z, key)
            changed = sum(1 for a, b in zip(z.ids, out.ids) if a != b)
            fraction = changed / len(z_ids)
            assert abs(fraction - rho) < 0.03, (
                f"rho={rho}: changed fraction {fraction:.4f} deviates by more than 3 points"
            )
