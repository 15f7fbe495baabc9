"""Observer-side recovery attacks and text-similarity scoring.

Each attack separates inference from scoring: the hypothesis-generation
functions never see the true key, and the public entry points grade their
guesses against ``truth``, any object with ``apply(alien_id) -> plain_id``
and a ``mask`` of permuted ids.  A key is one; :class:`TruthOracle` wraps a
bare callback.  That seam is what lets tests prove the key cannot leak into
the inference path.

A corpus is a sequence whose items are token ids or sequences of ids
(tuples, lists, :class:`~alienlang.vocab.TokenSequence` objects).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from .embeddings import EmbeddingStore
from .errors import ArgumentError, CoverageError, FormatError


@dataclass
class AttackReport:
    """Per-attack recovery statistics."""

    attack_name: str
    parameters: dict
    token_recovery: float | None = None
    bijection_recovery: float | None = None
    bleu: float | None = None
    rouge_l: float | None = None
    evaluated_count: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("token_recovery", "bijection_recovery", "rouge_l"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ArgumentError(f"{name} must lie in [0, 1], got {value}")
        if self.bleu is not None and not 0.0 <= self.bleu <= 100.0:
            raise ArgumentError(f"bleu must lie in [0, 100], got {self.bleu}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TruthOracle:
    """Scoring-only truth from a callback, with the surface a key has.

    ``apply`` returns the true plaintext id for an alien id; ``mask`` is the
    permuted set the attacker is graded against.
    """

    apply: Callable[[int], int]
    mask: frozenset[int]


def _flatten(corpus) -> list[int]:
    out: list[int] = []
    for item in corpus:
        if isinstance(item, int):
            out.append(item)
        elif isinstance(item, Iterable):  # a sequence of ids
            out.extend(map(int, item))
        else:  # an id of another integer type, such as numpy's
            out.append(int(item))
    return out


def _rank_by_frequency(tokens: Sequence[int]) -> list[int]:
    """Token ids ranked by descending frequency, ties by ascending id."""
    counts = Counter(tokens)
    return sorted(counts, key=lambda t: (-counts[t], t))


def frequency_hypotheses(
    alien_corpus, reference_corpus, top_m: int
) -> list[tuple[int, int]]:
    """Rank-matching hypotheses: r-th most frequent alien <- r-th reference token.

    Pure inference: no key involved.
    """
    alien = _flatten(alien_corpus)
    reference = _flatten(reference_corpus)
    if not alien or not reference:
        raise ArgumentError("corpora must be non-empty")
    if top_m < 1:
        raise ArgumentError("top_m must be >= 1")
    alien_ranks = _rank_by_frequency(alien)[:top_m]
    ref_ranks = _rank_by_frequency(reference)[: len(alien_ranks)]
    return list(zip(alien_ranks, ref_ranks))


def frequency_attack(alien_corpus, reference_corpus, truth, top_m: int) -> AttackReport:
    """O1: frequency-rank matching between an alien corpus and a reference corpus.

    ``token_recovery`` is correct hypotheses about masked tokens over the full
    permuted set; ``head_recovery`` (details) is the hit rate over the
    attempted head, which is the meaningful number for identity keys.
    """
    hypotheses = frequency_hypotheses(alien_corpus, reference_corpus, top_m)
    masked = truth.mask
    correct = [a for a, p in hypotheses if truth.apply(a) == p]
    correct_masked = sum(1 for a in correct if a in masked)
    return AttackReport(
        attack_name="frequency",
        parameters={"top_m": top_m},
        token_recovery=(correct_masked / len(masked)) if masked else 0.0,
        evaluated_count=len(hypotheses),
        details={
            "head_recovery": len(correct) / len(hypotheses),
            "correct_masked": correct_masked,
            "mask_size": len(masked),
        },
    )


def _context_signatures(
    sequences: list[list[int]],
    radius: int,
    translate: dict[int, int] | None,
    targets: set[int] | None,
) -> dict[int, Counter]:
    """Multiset context signatures within a symmetric window.

    ``translate`` restricts contexts to known-mapped neighbors and maps them
    into plaintext id space; ``targets`` limits which center tokens collect
    signatures.
    """
    sigs: dict[int, Counter] = {}
    for ids in sequences:
        n = len(ids)
        for t, center in enumerate(ids):
            if targets is not None and center not in targets:
                continue
            sig = sigs.setdefault(center, Counter())
            lo = max(0, t - radius)
            hi = min(n, t + radius + 1)
            for u in range(lo, hi):
                if u == t:
                    continue
                neighbor = ids[u]
                if translate is None:
                    sig[neighbor] += 1
                elif neighbor in translate:
                    sig[translate[neighbor]] += 1
    return sigs


def ngram_hypotheses(
    leaked_pairs: Sequence[tuple],
    eval_corpus: Sequence[tuple],
    n: int,
    reference_corpus: Sequence | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Phase 1 known map from positional alignment, phase 2 context extrapolation.

    Returns (known alien->plain map, guesses for unseen alien tokens).
    ``reference_corpus`` holds the plaintext sequences the attacker mines for
    candidate context statistics, e.g. a public corpus from a similar
    distribution; it defaults to the plaintext sides of the leaked pairs,
    which is all the aligned plaintext the observer actually possesses.  The
    evaluation pairs contribute only their alien sides to inference; their
    plaintext sides are the secret being recovered.  Candidates already
    consumed by known mappings are excluded, since the attacker knows the
    mapping is a bijection.  Each unseen token gets the candidate with the
    largest context overlap, ties (and an empty signature) going to the more
    frequent candidate, then the lower id.  Pure inference: no key involved.
    """
    if n < 2:
        raise ArgumentError("n-gram order must be >= 2")

    leaked = [(list(plain), list(alien)) for plain, alien in leaked_pairs]
    eval_alien = [list(alien) for _, alien in eval_corpus]

    known: dict[int, int] = {}
    for p_seq, a_seq in leaked:
        if len(p_seq) != len(a_seq):
            raise FormatError("leaked pairs must be positionally aligned (equal lengths)")
        known.update(zip(a_seq, p_seq))

    if reference_corpus is None:
        reference = [p_seq for p_seq, _ in leaked]
    else:
        reference = [list(seq) for seq in reference_corpus]
    ref_freq = Counter(t for seq in reference for t in seq)
    consumed = set(known.values())
    # candidate order is the tie-break: more frequent first, then lower id
    candidates = sorted((t for t in ref_freq if t not in consumed), key=lambda t: (-ref_freq[t], t))
    radius = n - 1

    unseen_targets = {t for seq in eval_alien for t in seq if t not in known}
    alien_sigs = _context_signatures(eval_alien, radius, translate=known, targets=unseen_targets)
    plain_sigs = _context_signatures(reference, radius, translate=None, targets=set(candidates))

    guesses: dict[int, int] = {}
    if not candidates:
        return known, guesses

    # Sparse candidate-by-context matrix for fast multiset intersections.
    cand_index = {c: idx for idx, c in enumerate(candidates)}
    context_values = sorted({v for sig in plain_sigs.values() for v in sig})
    ctx_index = {v: idx for idx, v in enumerate(context_values)}
    rows, cols, data = [], [], []
    for cand, sig in plain_sigs.items():
        r = cand_index[cand]
        for v, cnt in sig.items():
            rows.append(r)
            cols.append(ctx_index[v])
            data.append(cnt)
    matrix = sparse.csc_matrix(
        (data, (rows, cols)), shape=(len(candidates), max(len(context_values), 1))
    )

    for alien_tok in sorted(unseen_targets):
        scores = np.zeros(len(candidates), dtype=np.int64)
        for v, cnt in alien_sigs[alien_tok].items():
            col = ctx_index.get(v)
            if col is not None:
                start, stop = matrix.indptr[col], matrix.indptr[col + 1]
                scores[matrix.indices[start:stop]] += np.minimum(matrix.data[start:stop], cnt)
        # argmax takes the first maximum: candidate 0 when nothing overlaps
        guesses[alien_tok] = candidates[int(scores.argmax())]
    return known, guesses


def ngram_attack(
    leaked_pairs: Sequence[tuple],
    eval_corpus: Sequence[tuple],
    n: int,
    truth,
    *,
    reference_corpus: Sequence | None = None,
) -> AttackReport:
    """O2: known-plaintext leakage plus n-gram context extrapolation.

    ``token_recovery`` covers all evaluated alien types (known mappings are
    free for the attacker); ``bijection_recovery`` covers only masked tokens
    absent from the leaked pairs, with never-guessed tokens counting as
    misses.  ``None`` when nothing is unseen.
    """
    known, guesses = ngram_hypotheses(leaked_pairs, eval_corpus, n, reference_corpus)
    correct = {a for a, g in guesses.items() if truth.apply(a) == g}
    evaluated = len(known) + len(guesses)
    token_recovery = (len(known) + len(correct)) / evaluated if evaluated else 0.0

    unseen_mask = [a for a in truth.mask if a not in known]
    if unseen_mask:
        bijection_recovery = sum(1 for a in unseen_mask if a in correct) / len(unseen_mask)
    else:
        bijection_recovery = None

    return AttackReport(
        attack_name="ngram",
        parameters={"n": n, "pair_budget": len(leaked_pairs)},
        token_recovery=token_recovery,
        bijection_recovery=bijection_recovery,
        evaluated_count=evaluated,
        details={
            "known_tokens": len(known),
            "guessed_tokens": len(guesses),
            "unseen_mask_size": len(unseen_mask),
        },
    )


def nn_hypotheses(
    store: EmbeddingStore, masked: Sequence[int], block: int = 1024
) -> dict[int, int]:
    """O3 inference: each masked token's top-1 cosine neighbor within the mask."""
    if not store.normalized:
        raise ArgumentError("nn attack requires a normalized store")
    ids = np.asarray(sorted(masked), dtype=np.int64)
    if ids.size and ids[-1] >= store.n:
        raise CoverageError("mask contains ids without embedding rows")
    guesses: dict[int, int] = {}
    if ids.size < 2:
        return guesses
    rows = store.rows[ids]
    for start in range(0, ids.size, block):
        stop = min(start + block, ids.size)
        sims = rows[start:stop] @ rows.T
        local = np.arange(stop - start)
        sims[local, start + local] = -np.inf  # exclude self
        # argmax takes the first maximum, which is the lowest id (ids ascending).
        best = ids[sims.argmax(axis=1)]
        del sims  # free this block before the next one is computed
        guesses.update(zip(ids[start:stop].tolist(), best.tolist()))
    return guesses


def nn_mapping_attack(store: EmbeddingStore, truth) -> AttackReport:
    """O3: nearest-neighbor mapping recovery from embedding space."""
    masked = sorted(truth.mask)
    guesses = nn_hypotheses(store, masked)
    correct = sum(1 for a, g in guesses.items() if truth.apply(a) == g)
    return AttackReport(
        attack_name="nn_mapping",
        parameters={"mask_size": len(masked)},
        token_recovery=(correct / len(masked)) if masked else 0.0,
        evaluated_count=len(masked),
        details={"correct": correct},
    )


def _ngrams(tokens: Sequence[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def bleu(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Corpus-level BLEU in [0, 100].

    Uniform weights over 1..4-gram precisions, brevity penalty, whitespace
    tokenization, and add-one smoothing on n-gram counts for orders >= 2.
    """
    if len(candidates) != len(references):
        raise ArgumentError("candidate and reference lists must have equal length")
    if not candidates:
        raise ArgumentError("cannot score an empty corpus")
    matched = [0] * 5
    total = [0] * 5
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_toks = cand.split()
        ref_toks = ref.split()
        cand_len += len(cand_toks)
        ref_len += len(ref_toks)
        for order in range(1, 5):
            cand_counts = _ngrams(cand_toks, order)
            ref_counts = _ngrams(ref_toks, order)
            total[order] += sum(cand_counts.values())
            matched[order] += sum(
                min(cnt, ref_counts[gram]) for gram, cnt in cand_counts.items()
            )
    if cand_len == 0 or matched[1] == 0:
        return 0.0
    log_precision = 0.0
    for order in range(1, 5):
        if order == 1:
            m, t = matched[1], total[1]
        else:
            m, t = matched[order] + 1, total[order] + 1
        if m == 0 or t == 0:
            return 0.0
        log_precision += 0.25 * math.log(m / t)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_precision)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Mean LCS F-measure over whitespace tokens, in [0, 1]."""
    if len(candidates) != len(references):
        raise ArgumentError("candidate and reference lists must have equal length")
    if not candidates:
        raise ArgumentError("cannot score an empty corpus")
    scores = []
    for cand, ref in zip(candidates, references):
        cand_toks = cand.split()
        ref_toks = ref.split()
        lcs = _lcs_length(cand_toks, ref_toks)
        if lcs == 0:
            scores.append(0.0)
            continue
        precision = lcs / len(cand_toks)
        recall = lcs / len(ref_toks)
        scores.append(2 * precision * recall / (precision + recall))
    return sum(scores) / len(scores)
