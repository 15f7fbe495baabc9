import math
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict, namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import alienlang
from alienlang import (
    ArgumentError,
    AttackReport,
    BuildConfig,
    CoverageError,
    EmbeddingStore,
    EndpointConfig,
    FormatError,
    TokenSequence,
    TruthOracle,
    bleu,
    build_key,
    encode_ids,
    frequency_attack,
    key_from_pairs,
    llm_inverse_probe,
    ngram_attack,
    nn_mapping_attack,
    rouge_l,
)
from alienlang import attacks, embeddings
from alienlang.attacks import frequency_hypotheses, ngram_hypotheses, nn_hypotheses
from helpers import (
    axis_store,
    identity_key,
    markov_ngram_inputs,
    random_vocab,
    reference_frequency_hypotheses,
    unit_store,
    vocab_from,
)


def sample_corpus(rng, vocab, positions, zipf_a=1.1):
    ids = np.asarray(vocab.permutable_ids)
    ranks = np.arange(1, ids.size + 1, dtype=np.float64)
    p = ranks**-zipf_a
    p /= p.sum()
    return [int(i) for i in rng.choice(ids, size=positions, p=p)]


class TestFrequencyAttack:
    def test_identity_key_self_encoding_recovers_head(self):
        rng = np.random.default_rng(0)
        vocab = random_vocab(rng, 200)
        key = identity_key(vocab)
        corpus = sample_corpus(rng, vocab, 5000)
        rep = frequency_attack(corpus, corpus, key, top_m=20)
        assert rep.details["head_recovery"] == 1.0
        assert rep.evaluated_count == 20
        assert rep.token_recovery == 0.0  # empty mask convention

    def test_full_key_same_corpus_ranks_align(self):
        # encoding the reference corpus itself keeps rank alignment exact,
        # so every distinct-frequency head hypothesis is right
        rng = np.random.default_rng(1)
        vocab = random_vocab(rng, 300)
        store = unit_store(rng, 300, 8)
        key = build_key(vocab, store, BuildConfig(k=4, seed=0, rho=1.0))
        plain = sample_corpus(rng, vocab, 20_000)
        alien = [key.apply(i) for i in plain]
        rep = frequency_attack(alien, plain, key, top_m=10)
        assert rep.details["head_recovery"] >= 0.9

    def test_uniform_frequencies_recover_at_chance(self):
        rng = np.random.default_rng(2)
        vocab = random_vocab(rng, 500)
        store = unit_store(rng, 500, 8)
        key = build_key(vocab, store, BuildConfig(k=4, seed=1, rho=1.0))
        plain_a = [int(i) for i in rng.choice(vocab.permutable_ids, size=20_000)]
        plain_b = [int(i) for i in rng.choice(vocab.permutable_ids, size=20_000)]
        alien = [key.apply(i) for i in plain_a]
        rep = frequency_attack(alien, plain_b, key, top_m=500)
        # chance is 1/|mask| per hypothesis: expect ~1 hit over 500 tries
        assert rep.details["correct_masked"] <= 8

    def test_empty_corpus_rejected(self):
        vocab = vocab_from([b"a"])
        with pytest.raises(ArgumentError):
            frequency_attack([], [0], identity_key(vocab), top_m=5)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        vocab = random_vocab(rng, 100)
        key = identity_key(vocab)
        corpus = sample_corpus(rng, vocab, 2000)
        other = sample_corpus(rng, vocab, 2000)
        r1 = frequency_attack(corpus, other, key, top_m=50)
        r2 = frequency_attack(corpus, other, key, top_m=50)
        assert r1.to_dict() == r2.to_dict()


def make_aligned_pairs(rng, vocab, key, n_pairs, length):
    pairs = []
    for _ in range(n_pairs):
        plain = [int(i) for i in rng.choice(vocab.permutable_ids, size=length)]
        z = vocab.sequence(plain)
        alien = encode_ids(z, key)
        pairs.append((tuple(plain), alien.ids))
    return pairs


class TestNgramAttack:
    def _setup(self, seed=0, n=150):
        rng = np.random.default_rng(seed)
        vocab = random_vocab(rng, n)
        store = unit_store(rng, n, 8)
        key = build_key(vocab, store, BuildConfig(k=4, seed=seed, rho=1.0))
        return rng, vocab, key

    def test_full_coverage_token_recovery_one(self):
        rng, vocab, key = self._setup(0)
        # leak every permutable token at least once
        all_ids = list(vocab.permutable_ids)
        z = vocab.sequence(all_ids)
        leaked = [(tuple(all_ids), encode_ids(z, key).ids)]
        eval_pairs = make_aligned_pairs(rng, vocab, key, 5, 20)
        rep = ngram_attack(leaked, eval_pairs, n=2, truth=key)
        assert rep.token_recovery == 1.0
        assert rep.bijection_recovery is None

    def test_zero_leaked_pairs_bijection_over_full_set(self):
        rng, vocab, key = self._setup(1)
        eval_pairs = make_aligned_pairs(rng, vocab, key, 20, 30)
        rep = ngram_attack([], eval_pairs, n=3, truth=key)
        assert rep.details["known_tokens"] == 0
        assert rep.details["unseen_mask_size"] == len(key.mask)
        assert rep.bijection_recovery is not None

    def test_misaligned_pair_rejected(self):
        _, vocab, key = self._setup(2)
        with pytest.raises(FormatError):
            ngram_attack([((1, 2, 3), (1, 2))], [], n=2, truth=key)

    def test_order_below_two_rejected(self):
        _, vocab, key = self._setup(3)
        with pytest.raises(ArgumentError):
            ngram_attack([], [], n=1, truth=key)

    def test_deterministic(self):
        rng, vocab, key = self._setup(4)
        leaked = make_aligned_pairs(rng, vocab, key, 3, 25)
        eval_pairs = make_aligned_pairs(rng, vocab, key, 10, 25)
        r1 = ngram_attack(leaked, eval_pairs, n=3, truth=key)
        r2 = ngram_attack(leaked, eval_pairs, n=3, truth=key)
        assert r1.to_dict() == r2.to_dict()

    def test_pairs_may_come_from_iterators(self):
        rng, vocab, key = self._setup(6)
        leaked = make_aligned_pairs(rng, vocab, key, 4, 20)
        eval_pairs = make_aligned_pairs(rng, vocab, key, 8, 20)
        rep = ngram_attack(iter(leaked), (p for p in eval_pairs), n=3, truth=key)
        assert rep.to_dict() == ngram_attack(leaked, eval_pairs, n=3, truth=key).to_dict()
        assert rep.parameters["pair_budget"] == 4

    def test_bijection_recovery_counts_only_unseen(self):
        rng, vocab, key = self._setup(5)
        leaked = make_aligned_pairs(rng, vocab, key, 5, 30)
        eval_pairs = make_aligned_pairs(rng, vocab, key, 10, 30)
        rep = ngram_attack(leaked, eval_pairs, n=2, truth=key)
        known, guesses = ngram_hypotheses(leaked, eval_pairs, n=2)
        unseen_mask = [a for a in key.mask if a not in known]
        correct = sum(1 for a in unseen_mask if a in guesses and key.apply(a) == guesses[a])
        assert rep.bijection_recovery == pytest.approx(correct / len(unseen_mask))


class TestNnMappingAttack:
    def test_constructed_worst_case_is_fully_recovered(self):
        # 2m twin vectors: every token's nearest neighbor is its partner
        rng = np.random.default_rng(0)
        m = 40
        centers = rng.standard_normal((m, 16))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rows = np.empty((2 * m, 16))
        rows[0::2] = centers
        bent = centers + 0.01 * rng.standard_normal((m, 16))
        rows[1::2] = bent / np.linalg.norm(bent, axis=1, keepdims=True)
        store = EmbeddingStore(rows=rows, normalized=True)
        vocab = random_vocab(np.random.default_rng(1), 2 * m)
        key = key_from_pairs(vocab, [(2 * i, 2 * i + 1) for i in range(m)])
        rep = nn_mapping_attack(store, key)
        assert rep.token_recovery == 1.0

    def test_random_pairing_on_orthonormal_rows_is_chance(self):
        # all cosines tie at zero; the deterministic tie-break guesses the
        # lowest id, which a random pairing matches w.p. 1/(m-1) per token
        m = 64
        store = EmbeddingStore(rows=np.eye(m), normalized=True)
        vocab = random_vocab(np.random.default_rng(2), m)
        hits = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            perm = rng.permutation(m)
            pairs = [(int(perm[i]), int(perm[i + 1])) for i in range(0, m, 2)]
            key = key_from_pairs(vocab, pairs)
            rep = nn_mapping_attack(store, key)
            hits.append(rep.details["correct"])
        mean_hits = float(np.mean(hits))
        # expectation is m/(m-1) ~ 1.02 hits per trial
        assert mean_hits < 5.0

    def test_accuracy_bounded_by_top1_score_agreement(self):
        # success requires the partner to be the top-1 cosine neighbor, so
        # accuracy cannot exceed the rate at which greedy's chosen partner
        # coincides with the cosine argmax (checked empirically)
        rng = np.random.default_rng(3)
        vocab = random_vocab(rng, 120)
        store = unit_store(rng, 120, 8)
        key = build_key(vocab, store, BuildConfig(k=10, seed=0, rho=1.0))
        rep = nn_mapping_attack(store, key)
        guesses = nn_hypotheses(store, sorted(key.mask))
        agreement = sum(1 for i, g in guesses.items() if key.mapping[i] == g) / len(guesses)
        assert rep.token_recovery <= agreement + 1e-9


class TestScoringSeam:
    """Attacks must grade the same with the key replaced by a callback oracle."""

    def _fixture(self):
        rng = np.random.default_rng(0)
        vocab = random_vocab(rng, 80)
        store = unit_store(rng, 80, 8)
        key = build_key(vocab, store, BuildConfig(k=4, seed=0, rho=1.0))
        return rng, vocab, store, key

    def test_frequency_with_callback(self):
        rng, vocab, store, key = self._fixture()
        corpus = sample_corpus(rng, vocab, 3000)
        alien = [key.apply(i) for i in corpus]
        via_key = frequency_attack(alien, corpus, key, top_m=30)
        table = dict(key.mapping)
        oracle = TruthOracle(lambda i: table.get(i, i), key.mask)
        via_callback = frequency_attack(alien, corpus, oracle, top_m=30)
        assert via_key.to_dict() == via_callback.to_dict()

    def test_ngram_with_callback(self):
        rng, vocab, store, key = self._fixture()
        leaked = make_aligned_pairs(rng, vocab, key, 3, 20)
        eval_pairs = make_aligned_pairs(rng, vocab, key, 8, 20)
        via_key = ngram_attack(leaked, eval_pairs, n=2, truth=key)
        table = dict(key.mapping)
        oracle = TruthOracle(lambda i: table.get(i, i), key.mask)
        via_callback = ngram_attack(leaked, eval_pairs, n=2, truth=oracle)
        assert via_key.to_dict() == via_callback.to_dict()

    def test_nn_with_callback(self):
        rng, vocab, store, key = self._fixture()
        via_key = nn_mapping_attack(store, key)
        table = dict(key.mapping)
        via_callback = nn_mapping_attack(store, TruthOracle(lambda i: table.get(i, i), key.mask))
        assert via_key.to_dict() == via_callback.to_dict()

    def test_inference_runs_without_any_truth(self):
        rng, vocab, store, key = self._fixture()
        corpus = sample_corpus(rng, vocab, 1000)
        alien = [key.apply(i) for i in corpus]
        assert frequency_hypotheses(alien, corpus, top_m=10)
        leaked = make_aligned_pairs(rng, vocab, key, 2, 15)
        eval_pairs = make_aligned_pairs(rng, vocab, key, 4, 15)
        known, guesses = ngram_hypotheses(leaked, eval_pairs, n=2)
        assert known
        assert nn_hypotheses(store, sorted(key.mask))


class TestBleu:
    def test_identity_is_100(self):
        texts = ["the quick brown fox jumps", "over the lazy dog today"]
        assert bleu(texts, texts) == pytest.approx(100.0)

    def test_disjoint_is_0(self):
        assert bleu(["aa bb cc"], ["dd ee ff"]) == 0.0

    def test_two_sentence_fixture_matches_hand_computed(self):
        # hand-counted n-gram statistics for this fixture:
        #   1-grams matched 7 of 9, 2-grams 4 of 7, 3-grams 1 of 5,
        #   4-grams 0 of 3; candidate length 9, reference length 10
        cands = ["the cat sat on the mat", "a dog barked"]
        refs = ["the cat is on the mat", "the dog barked loudly"]
        p1 = 7 / 9
        p2 = (4 + 1) / (7 + 1)
        p3 = (1 + 1) / (5 + 1)
        p4 = (0 + 1) / (3 + 1)
        expected = 100.0 * math.exp(1 - 10 / 9) * (p1 * p2 * p3 * p4) ** 0.25
        assert bleu(cands, refs) == pytest.approx(expected, abs=1e-6)

    def test_corpus_level_permutation_invariance(self):
        cands = ["a b c", "d e f g", "h i"]
        refs = ["a b x", "d y f g", "h z"]
        reordered = bleu([cands[2], cands[0], cands[1]], [refs[2], refs[0], refs[1]])
        assert bleu(cands, refs) == pytest.approx(reordered)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            bleu(["a"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            bleu([], [])


class TestRougeL:
    def test_identity_is_1(self):
        texts = ["alpha beta gamma", "delta"]
        assert rouge_l(texts, texts) == 1.0

    def test_disjoint_is_0(self):
        assert rouge_l(["a b"], ["c d"]) == 0.0

    def test_hand_computed_fixture(self):
        # LCS("a b c d", "a c d e") = 3 -> P = R = 3/4 -> F = 0.75
        assert rouge_l(["a b c d"], ["a c d e"]) == pytest.approx(0.75)

    def test_empty_side_is_0(self):
        assert rouge_l([""], ["a"]) == rouge_l(["a"], [""]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            rouge_l(["a"], [])


class TestAttackReport:
    def test_rates_validated(self):
        with pytest.raises(ArgumentError):
            AttackReport(attack_name="x", parameters={}, token_recovery=1.5)
        with pytest.raises(ArgumentError):
            AttackReport(attack_name="x", parameters={}, bleu=101.0)


def test_nn_hypotheses_rejects_negative_ids():
    store = EmbeddingStore(np.eye(4), normalized=True)
    with pytest.raises(CoverageError):
        nn_hypotheses(store, [-1, 0, 1])
    with pytest.raises(CoverageError):
        nn_hypotheses(store, [0, 4])


@pytest.mark.parametrize(
    "masked, message",
    [
        ([True, 2, 3], "mask id True is not a token id"),
        ([1.5, 2], "mask id 1.5 is not a token id"),
        (["1", 2], "mask id '1' is not a token id"),
        (5, "mask 5 is not a sequence of token ids"),
        (np.array([1.0, 2.0]), "mask ids must be a 1-D integer array, not 1-D float64"),
        (np.array([[1, 2]]), "mask ids must be a 1-D integer array, not 2-D int64"),
    ],
)
def test_nn_hypotheses_rejects_non_ids(masked, message):
    store = EmbeddingStore(np.eye(4), normalized=True)
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        nn_hypotheses(store, masked)


@pytest.mark.parametrize(
    "masked", [[1, 2, 3], (3, 2, 1), range(1, 4), {1, 2, 3}, iter([1, 2, 3]), np.arange(1, 4)]
)
def test_nn_hypotheses_reads_any_id_sequence(masked):
    store = EmbeddingStore(np.eye(4), normalized=True)
    assert nn_hypotheses(store, masked) == {1: 2, 2: 1, 3: 1}


def test_nn_hypotheses_never_guesses_a_repeated_id_as_its_own_partner():
    store = EmbeddingStore(np.eye(4), normalized=True)
    assert nn_hypotheses(store, [1, 1, 2]) == nn_hypotheses(store, [1, 2]) == {1: 2, 2: 1}


def test_nn_hypotheses_of_one_id_guesses_nothing():
    assert nn_hypotheses(EmbeddingStore(np.eye(4), normalized=True), [2]) == {}


class CountedRows(np.ndarray):
    """Embedding rows that record the row count of each matrix product they
    lead, which in nn_hypotheses is one per similarity block."""

    blocks: list[int] = []

    def __matmul__(self, other):
        CountedRows.blocks.append(len(self))
        return np.asarray(self) @ np.asarray(other)


class TestNnHypothesesTies:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1024])
    def test_ties_break_to_lowest_id(self, block, monkeypatch):
        rng = np.random.default_rng(31 + block)
        store = axis_store(rng, 60, 4)
        rows = store.rows
        masked = sorted(int(i) for i in rng.choice(60, size=40, replace=False))
        # a block's similarities take 8 B per row and masked token
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * block * len(masked))
        monkeypatch.setattr(CountedRows, "blocks", [])
        counted = SimpleNamespace(n=store.n, normalized=True, rows=rows.view(CountedRows))
        guesses = nn_hypotheses(counted, masked)
        whole, rest = divmod(len(masked), block)
        assert CountedRows.blocks == [block] * whole + [rest] * (rest > 0)
        assert sorted(guesses) == masked
        for i in masked:
            others = [j for j in masked if j != i]
            best = max(float(rows[i] @ rows[j]) for j in others)
            assert guesses[i] == min(j for j in others if float(rows[i] @ rows[j]) == best)


def ngram_budget(rows, leaked, reference):
    """The ``_BLOCK_BYTES`` that gives ngram_hypotheses dense blocks of ``rows``
    rows: 8 B per row and candidate, a candidate being a reference id that no
    leaked alien id is known to map to."""
    known = {a: p for plain, alien in leaked for p, a in zip(plain, alien)}
    candidates = {t for seq in reference for t in seq} - set(known.values())
    return 8 * rows * len(candidates)


def spy_join_pieces(monkeypatch) -> list[bool]:
    """Record each join piece of ngram_hypotheses, one weighted ``np.bincount``
    call apiece: True for a block's first piece, which sizes the block's scores."""
    pieces = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        if weights is not None:
            pieces.append(minlength > 0)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    return pieces


def reference_ngram_guesses(leaked, evals, n, reference):
    """Loop reference for ngram_hypotheses' guesses: the candidate with the largest
    multiset context overlap, ties to the more frequent candidate, then the lower id."""
    known = {a: p for plain, alien in leaked for p, a in zip(plain, alien)}
    reference = [p for p, _ in leaked] if reference is None else reference
    freq = Counter(t for seq in reference for t in seq)
    candidates = [t for t in freq if t not in set(known.values())]

    def signatures(seqs, translate, targets):
        sigs = defaultdict(Counter)
        for seq in seqs:
            for t, center in enumerate(seq):
                if center not in targets:
                    continue
                sigs[center].update(
                    seq[u] if translate is None else translate[seq[u]]
                    for u in range(max(0, t - n + 1), min(len(seq), t + n))
                    if u != t and (translate is None or seq[u] in translate)
                )
        return sigs

    unseen = {t for _, alien in evals for t in alien if t not in known}
    alien_sigs = signatures([alien for _, alien in evals], known, unseen)
    plain_sigs = signatures(reference, None, set(candidates))

    def rank(alien_tok, cand):
        overlap = sum(min(cnt, plain_sigs[cand][v]) for v, cnt in alien_sigs[alien_tok].items())
        return overlap, freq[cand], -cand

    if not candidates:
        return {}
    return {a: max(candidates, key=lambda c: rank(a, c)) for a in unseen}


def as_form(seq, form):
    """A list of ids in one of the accepted sequence forms."""
    if form == "token_sequence":
        return TokenSequence(ids=tuple(seq))
    if form == "numpy":
        return np.asarray(seq, dtype=np.int32 if len(seq) % 2 else np.int64)
    return seq


class TestNgramHypothesesTies:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_reference(self, seed):
        # few distinct ids, so overlaps and frequencies tie often; some cases
        # leak nothing and some evaluation sequences have no context at all
        rng = np.random.default_rng(seed)
        ids = int(rng.integers(2, 30))
        perm = rng.permutation(ids)
        n = int(rng.integers(2, 5))

        def seqs(count, max_len):
            sizes = [rng.integers(0, max_len + 1) for _ in range(count)]
            return [rng.integers(0, ids, size=size).tolist() for size in sizes]

        def pairs(count, max_len):
            return [(p, [int(perm[t]) for t in p]) for p in seqs(count, max_len)]

        leaked = pairs(int(rng.integers(0, 4)), 6)
        evals = pairs(int(rng.integers(1, 6)), int(rng.choice([1, 8])))
        reference = None
        if seed % 3:
            reference = seqs(4, 9)
        expected = reference_ngram_guesses(leaked, evals, n, reference)
        for form in ("list", "token_sequence", "numpy"):
            leaked_in = [(as_form(p, form), as_form(a, form)) for p, a in leaked]
            evals_in = [(as_form(p, form), as_form(a, form)) for p, a in evals]
            reference_in = None if reference is None else [as_form(r, form) for r in reference]
            _, guesses = ngram_hypotheses(leaked_in, evals_in, n, reference_in)
            assert guesses == expected, form

    def test_overlaps_of_three_or_more_sum_several_thresholds(self):
        # unseen alien 200 sees known context 10 three times and 11 five times;
        # overlaps: 20 -> 3 + 4 = 7, 21 -> 3 + 1 = 4, 22 -> 1 + 5 = 6, 23 -> 3 + 3 = 6.
        # Thresholding both sides at the alien counts alone (3 and 5) would
        # score 20 and 23 both 6 and pick 23, the more frequent.
        leaked = [((10, 11), (110, 111))]
        evals = [((), (110, 200))] * 3 + [((), (200, 111))] * 5

        def around(cand, left, right):
            return [(10, cand)] * left + [(cand, 11)] * right

        reference = around(20, 4, 4) + around(21, 6, 1) + around(22, 1, 9) + around(23, 3, 3)
        reference += [(23, 99)] * 3
        known, guesses = ngram_hypotheses(leaked, evals, 2, reference)
        assert known == {110: 10, 111: 11}
        assert guesses == {200: 20}
        assert guesses == reference_ngram_guesses(leaked, evals, 2, reference)

    def test_alien_id_leaked_with_two_plaintexts_keeps_the_last(self):
        leaked = [((5, 7), (50, 70)), ((6,), (50,))]
        evals = [((), (50, 80, 70)), ((), (80, 50))]
        reference = [(5, 9, 7), (9, 6), (6, 5)]
        known, guesses = ngram_hypotheses(leaked, evals, 2, reference)
        assert known == {50: 6, 70: 7}
        # 5 is no longer consumed, so it stays a candidate
        assert guesses == reference_ngram_guesses(leaked, evals, 2, reference)
        assert guesses[80] in (5, 9)

    # with 1 or 3 rows per block, each block's join is also taken in pieces
    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_blocks_do_not_change_guesses(self, rows, monkeypatch):
        rng = np.random.default_rng(7)
        perm = rng.permutation(40)
        plain = [rng.integers(0, 40, size=12).tolist() for _ in range(30)]
        pairs = [(p, [int(perm[t]) for t in p]) for p in plain]
        leaked, evals = pairs[:6], pairs[6:]
        whole = ngram_hypotheses(leaked, evals, 3, plain)
        assert len(whole[1]) > rows
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", ngram_budget(rows, leaked, plain))
        pieces = spy_join_pieces(monkeypatch)
        assert ngram_hypotheses(leaked, evals, 3, plain) == whole
        assert sum(pieces) == -(-len(whole[1]) // rows)  # one block per `rows` unseen tokens
        assert len(pieces) > sum(pieces)

    @pytest.mark.parametrize("rows", [1, 5, 1024])
    def test_join_pieces_match_loop_reference_on_a_dense_source(self, rows, monkeypatch):
        # a Markov source gives each context many candidates, so with few rows
        # per block a block's join outgrows its budget and is taken in pieces
        rng = np.random.default_rng(17)
        leaked, evals, public = markov_ngram_inputs(rng, 48, 4, 0.5, (60, 1_500, 3_000), 300)
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", ngram_budget(rows, leaked, public))
        pieces = spy_join_pieces(monkeypatch)
        _, guesses = ngram_hypotheses(leaked, evals, 3, public)
        assert len(guesses) > 10
        assert sum(pieces) == -(-len(guesses) // rows)
        if rows < len(guesses):
            assert len(pieces) > sum(pieces)
        assert guesses == reference_ngram_guesses(leaked, evals, 3, public)

    @pytest.mark.parametrize("form", ["list", "token_sequence", "numpy"])
    def test_flat_reference_is_one_sequence(self, form):
        # one flat stream of public text, as reference_tokenize returns it
        rng = np.random.default_rng(11)
        perm = rng.permutation(40)
        plain = [rng.integers(0, 40, size=12).tolist() for _ in range(30)]
        pairs = [(p, [int(perm[t]) for t in p]) for p in plain]
        leaked, evals = pairs[:6], pairs[6:]
        public = [t for p in plain for t in p]
        flat = as_form(public, form)
        _, guesses = ngram_hypotheses(leaked, evals, 2, flat)
        assert guesses == ngram_hypotheses(leaked, evals, 2, [flat])[1]
        assert guesses == reference_ngram_guesses(leaked, evals, 2, [public])
        assert len(set(guesses.values())) > 1


def mixed_corpus(rng, ids: int, items: int) -> list:
    """Id sequences in every accepted form (tuples, lists, TokenSequences and
    arrays, ragged or empty) over few distinct ids, so frequencies tie often."""
    corpus = []
    for _ in range(items):
        values = rng.integers(-2, ids, size=int(rng.integers(0, 6)))
        form = int(rng.integers(0, 4))
        if form == 0:
            corpus.append(tuple(values.tolist()))
        elif form == 1:
            corpus.append(values.tolist())
        elif form == 2:
            corpus.append(TokenSequence(ids=tuple(values.tolist())))
        else:
            corpus.append(values.astype(np.int16))
    return corpus


class TestFrequencyHypothesesReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        ids = int(rng.integers(2, 25))
        alien = mixed_corpus(rng, ids, int(rng.integers(1, 60)))
        reference = mixed_corpus(rng, ids, int(rng.integers(1, 60)))
        top_m = int(rng.integers(1, ids + 4))
        expected = reference_frequency_hypotheses(alien, reference, top_m)
        if not expected:  # a corpus of empty sequences
            with pytest.raises(ArgumentError, match="non-empty"):
                frequency_hypotheses(alien, reference, top_m)
            return
        got = frequency_hypotheses(alien, reference, top_m)
        assert got == expected
        assert all(type(a) is int and type(p) is int for a, p in got)

    @pytest.mark.parametrize(
        "wrap",
        [tuple, list, lambda ids: TokenSequence(ids=tuple(ids)), np.asarray],
        ids=["tuple", "list", "token_sequence", "array"],
    )
    def test_flat_corpus_forms(self, wrap):
        rng = np.random.default_rng(5)
        alien = rng.integers(0, 9, size=400).tolist()
        reference = rng.integers(0, 9, size=300).tolist()
        expected = reference_frequency_hypotheses(alien, reference, 6)
        assert frequency_hypotheses(wrap(alien), wrap(reference), 6) == expected
        rows = np.asarray(alien).reshape(20, 20)  # a 2-D array is a corpus of rows
        assert frequency_hypotheses(rows, reference, 6) == expected


class TestMalformedCorpora:
    @pytest.mark.parametrize(
        "corpus, named",
        [
            (["12", 3], "'12'"),
            ([b"ab", 1.9, True], "b'ab'"),
            ([1.9, 2.2, 2.7], "1.9"),
            ([3, True], "item 3 is"),  # not one id sequence, so 3 is read as a sequence
            ([np.True_], "True"),
            ([[1, True]], "[1, True]"),
            ([(1, 2.5)], "(1, 2.5)"),
            ([np.asarray([1.0, 2.0])], "array"),
            ([np.zeros((2, 2), dtype=np.int64)], "array"),
            ([{1, 2}], "{1, 2}"),
            ([None], "None"),
            ([[[1, 2]]], "[[1, 2]]"),
            ([TokenSequence(ids=("1",))], "TokenSequence"),
            ([3, (1, 2)], "item 3 is"),
            ([np.int32(7), (1, 2)], "np.int32(7)"),
            ([[1, np.int64(2)]], "[1, np.int64(2)]"),
        ],
    )
    def test_frequency_rejects_and_names_the_item(self, corpus, named):
        with pytest.raises(ArgumentError, match="corpus item") as err:
            frequency_hypotheses(corpus, [5, 5, 6], 3)
        assert named in str(err.value)
        with pytest.raises(ArgumentError, match="corpus item"):
            frequency_hypotheses([5, 5, 6], corpus, 3)

    @pytest.mark.parametrize(
        "bad, named",
        [
            ([1, 2.5], "[1, 2.5]"),
            ("ab", "'ab'"),
            (7, "7"),
            (np.asarray([1.0]), "array([1.])"),
            (np.asarray([True]), "array([ True])"),
            (TokenSequence(ids=(1, True)), "TokenSequence...gerprint=None)"),  # reprlib cuts it
        ],
    )
    def test_sequences_name_the_first_bad_item_after_good_ones(self, bad, named):
        # array items mixed with TokenSequence items, a tuple subclass among them
        pair = namedtuple("Pair", "a b")
        good = [[1, 2], TokenSequence(ids=(3,)), np.asarray([4, 5], np.int32), pair(6, 7), np.arange(2)]
        ids, lengths = attacks._sequences(good)
        assert ids.tolist() == [1, 2, 3, 4, 5, 6, 7, 0, 1]
        assert lengths.tolist() == [2, 1, 2, 2, 2]
        with pytest.raises(ArgumentError) as err:
            attacks._sequences([*good, bad, [8], "cd"])
        assert str(err.value) == f"corpus item {named} is not a sequence of token ids"

    def test_ngram_rejects_character_sequences(self):
        with pytest.raises(ArgumentError, match="'12'"):
            ngram_hypotheses([("12", "34")], [((1,), (5,))], 2)
        with pytest.raises(ArgumentError, match="'56'"):
            ngram_hypotheses([((1,), (2,))], [((1,), "56")], 2)
        with pytest.raises(ArgumentError, match="1.5"):
            ngram_hypotheses([((1,), (2,))], [((1,), (5,))], 2, [(1, 1.5)])

    def test_ngram_pair_sides_are_id_sequences(self):
        # a list of bare-id sides is not read as one stream, nor each id as a sequence
        with pytest.raises(ArgumentError, match="corpus item 1 is"):
            ngram_hypotheses([(1, 2), (3, 4)], [((1,), (5,))], 2)
        with pytest.raises(ArgumentError, match="corpus item 5 is"):
            ngram_hypotheses([((1,), (2,))], [(1, 5)], 2)

    @pytest.mark.parametrize(
        "attack, args, message",
        [
            (frequency_hypotheses, (5, [1], 1), "corpus 5 is not a sequence"),
            (frequency_hypotheses, (None, [1], 1), "corpus None is not a sequence"),
            (frequency_hypotheses, ([1], 5, 1), "corpus 5 is not a sequence"),
            (ngram_hypotheses, (5, [], 2), "corpus 5 is not a sequence"),
            (ngram_hypotheses, ([], 5, 2), "corpus 5 is not a sequence"),
            (ngram_hypotheses, ([((1,), (2,))], [], 2, 5), "corpus 5 is not a sequence"),
            (ngram_hypotheses, ([((1, 2),)], [], 2), "corpus item ((1, 2),) is not a pair"),
            (ngram_hypotheses, ([((1,), (2,))], [7], 2), "corpus item 7 is not a pair"),
            (frequency_hypotheses, ([1], [1], 1.5), "top_m must be int, not float"),
            (frequency_hypotheses, ([1], [1], True), "top_m must be int, not bool"),
            (ngram_hypotheses, ([], [], 2.0), "n-gram order must be int, not float"),
            (ngram_hypotheses, ([], [], True), "n-gram order must be int, not bool"),
            *[
                (llm_inverse_probe, (EndpointConfig("http://127.0.0.1:9"), shots, [("a", "b")] * 3),
                 f"shots must be int, not {type(shots).__name__}")
                for shots in (1.5, "1", True)
            ],
            (nn_hypotheses, (EmbeddingStore(np.eye(3) * 2), [0, 1]),
             "nn attack requires a normalized store"),
        ],
    )
    def test_malformed_arguments_rejected(self, attack, args, message):
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            attack(*args)

    def test_ids_outside_int64_rejected(self):
        with pytest.raises(ArgumentError, match="int64"):
            frequency_hypotheses([2**63], [1], 1)


def test_attacks_run_without_scipy():
    # a None entry in sys.modules makes `import scipy` raise ImportError, so a
    # lazy import on any attack's path fails here, not only one at import time
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
import alienlang.cli
from alienlang import (
    EmbeddingStore, Vocabulary, frequency_attack, key_from_pairs, ngram_attack, nn_mapping_attack,
)
vocab = Vocabulary.from_entries([(bytes([97 + i]), i) for i in range(6)], [])
key = key_from_pairs(vocab, [(0, 1), (2, 3), (4, 5)])
plain = [0, 2, 4, 1, 3, 5, 0, 2, 1, 5]
alien = [key.apply(i) for i in plain]
reports = [
    frequency_attack(alien, plain, key, 3),
    ngram_attack([(plain[:3], alien[:3])], [(plain, alien)], 2, key, reference_corpus=plain),
    nn_mapping_attack(EmbeddingStore(rows=np.eye(6), normalized=True), key),
]
print(" ".join(f"{r.attack_name}:{r.evaluated_count}" for r in reports))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(alienlang.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "frequency:3 ngram:6 nn_mapping:6\n"
