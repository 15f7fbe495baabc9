"""Observer-side recovery attacks and text-similarity scoring.

Each attack separates inference from scoring: the hypothesis-generation
functions never see the true key, and the public entry points grade their
guesses against ``truth``, any object with ``apply(alien_id) -> plain_id``
and a ``mask`` of permuted ids.  A key is one; :class:`TruthOracle` wraps a
bare callback.  That seam is what lets tests prove the key cannot leak into
the inference path.

A token id is an int that is not a bool (:func:`~alienlang.vocab.first_non_id`).
An id sequence is a tuple, list or :class:`~alienlang.vocab.TokenSequence`
of token ids, or a 1-D integer array.  A corpus is one id sequence, along
which the n-gram windows run, or a sequence of id sequences; each side of an
n-gram pair is one id sequence.  Anything else, such as numpy scalar ids or
bare ids mixed with sequences, raises :class:`~alienlang.errors.ArgumentError`
naming the item.  Inference turns each corpus into one int64 array and runs
as array operations.
"""

from __future__ import annotations

import math
import reprlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import embeddings
from .embeddings import EmbeddingStore, id_array
from .errors import ArgumentError, CoverageError, FormatError
from .vocab import TokenSequence, check_count, first_non_id


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


def _ids_of(seq) -> list | tuple | None:
    """The ids of one id sequence, or None if ``seq`` is not one."""
    if isinstance(seq, np.ndarray) and seq.ndim == 1:
        seq = seq.tolist()
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    return ids if isinstance(ids, (list, tuple)) and first_non_id(ids) is None else None


def _joined(id_lists: list) -> tuple[np.ndarray, np.ndarray]:
    """The id lists concatenated into one int64 array, and each one's length."""
    lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(id_lists))
    try:
        ids = np.fromiter(chain.from_iterable(id_lists), dtype=np.int64, count=int(lengths.sum()))
    except OverflowError:
        raise ArgumentError("corpus holds an id outside the int64 range") from None
    return ids, lengths


def _listed(items) -> list:
    """``items`` as a list; anything that is not iterable raises ArgumentError naming it."""
    try:
        iterator = iter(items)
    except TypeError:
        raise ArgumentError(f"corpus {reprlib.repr(items)} is not a sequence") from None
    return list(iterator)


def _sequences(seqs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_joined` over id sequences; an item that is not one raises ArgumentError naming it."""
    seqs = _listed(seqs)
    id_lists = list(map(_ids_of, seqs))
    if None in id_lists:
        bad = seqs[id_lists.index(None)]
        raise ArgumentError(f"corpus item {reprlib.repr(bad)} is not a sequence of token ids")
    return _joined(id_lists)


def _corpus(corpus) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_joined` over a corpus: one id sequence, or a sequence of them."""
    flat = _ids_of(corpus)
    return _sequences(corpus) if flat is None else _joined([flat])


def _pair_sides(pairs) -> tuple[list, list]:
    """The first and second sides of ``pairs``; an item that is not a pair raises ArgumentError."""
    firsts, seconds = [], []
    for pair in _listed(pairs):
        try:
            first, second = pair
        except (TypeError, ValueError):
            raise ArgumentError(f"corpus item {reprlib.repr(pair)} is not a pair") from None
        firsts.append(first)
        seconds.append(second)
    return firsts, seconds


def _rank_by_frequency(ids: np.ndarray) -> np.ndarray:
    """Distinct ids ranked by descending frequency, ties by ascending id."""
    values, counts = np.unique(ids, return_counts=True)
    return values[np.lexsort((values, -counts))]


def frequency_hypotheses(
    alien_corpus, reference_corpus, top_m: int
) -> list[tuple[int, int]]:
    """Rank-matching hypotheses: r-th most frequent alien <- r-th reference token.

    Pure inference: no key involved.
    """
    alien = _corpus(alien_corpus)[0]
    reference = _corpus(reference_corpus)[0]
    if not alien.size or not reference.size:
        raise ArgumentError("corpora must be non-empty")
    check_count("top_m", top_m, 1)
    alien_ranks = _rank_by_frequency(alien)[:top_m]
    ref_ranks = _rank_by_frequency(reference)[: alien_ranks.size]
    return list(zip(alien_ranks.tolist(), ref_ranks.tolist()))


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


def _signatures(
    lengths: np.ndarray, row_of: np.ndarray, col_of: np.ndarray, radius: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiset context signatures within a symmetric window: rows, columns and counts.

    Position ``i`` of the concatenated sequences is a center in row
    ``row_of[i]`` and a neighbor in column ``col_of[i]``; -1 leaves it out.
    Windows do not cross sequence boundaries.  Each distinct (row, column)
    pair, with ``column < width``, appears once, in row-major order.
    """
    seq = np.repeat(np.arange(lengths.size), lengths)
    keys = []
    for d in range(1, radius + 1):
        same = seq[d:] == seq[:-d]
        left, right = slice(None, -d), slice(d, None)
        for center, neighbor in ((left, right), (right, left)):
            r, c = row_of[center], col_of[neighbor]
            keep = same & (r >= 0) & (c >= 0)
            keys.append(r[keep] * width + c[keep])
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    return keys // width, keys % width, counts


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
    frequent candidate, then the lower id.  Unseen tokens are scored in
    blocks whose dense scores, rows by candidates at 8 bytes each, fill
    ``embeddings._BLOCK_BYTES``.  A block's join, one entry for each alien
    (token, context) entry and candidate sharing that context, is taken in
    pieces of about as many entries, 24 bytes each, so its extra memory stays
    within a few budgets however dense the corpus.  Pure inference: no key
    involved.
    """
    check_count("n-gram order", n, 2)

    plain_sides, alien_sides = _pair_sides(leaked_pairs)
    leaked_plain, plain_lengths = _sequences(plain_sides)
    leaked_alien, alien_lengths = _sequences(alien_sides)
    if not np.array_equal(plain_lengths, alien_lengths):
        raise FormatError("leaked pairs must be positionally aligned (equal lengths)")
    eval_ids, eval_lengths = _sequences(_pair_sides(eval_corpus)[1])
    known = dict(zip(leaked_alien.tolist(), leaked_plain.tolist()))
    known_alien = np.fromiter(known, np.int64, len(known))
    known_plain = np.fromiter(known.values(), np.int64, len(known))

    if reference_corpus is None:
        ref_ids, ref_lengths = leaked_plain, plain_lengths
    else:
        ref_ids, ref_lengths = _corpus(reference_corpus)
    # every id is numbered once, in ascending order; numbers index the dense tables below
    values, number = np.unique(
        np.concatenate((ref_ids, eval_ids, known_alien, known_plain)), return_inverse=True
    )
    width = values.size
    ref_num, eval_num, alien_num, plain_num = np.split(
        number, np.cumsum([ref_ids.size, eval_ids.size, known_alien.size])
    )
    plain_of = np.full(width, -1, dtype=np.int64)
    plain_of[alien_num] = plain_num
    # candidates are reference ids no known mapping consumed; their order is
    # the tie-break: more frequent first, then lower id
    ref_freq = np.bincount(ref_num, minlength=width)
    ref_freq[plain_num] = 0
    free = np.flatnonzero(ref_freq)
    free = free[np.argsort(-ref_freq[free], kind="stable")]
    guesses: dict[int, int] = {}
    if not free.size:
        return known, guesses
    cand_row = np.full(width, -1, dtype=np.int64)
    cand_row[free] = np.arange(free.size)
    radius = n - 1
    # the window is symmetric, so (center context, neighbor candidate) counts
    # each candidate's contexts, grouped by context: context v owns first[v]:first[v + 1]
    ctx, cand, cand_count = _signatures(ref_lengths, ref_num, cand_row[ref_num], radius, free.size)
    first = np.searchsorted(ctx, np.arange(width + 1))
    cand_count = cand_count.astype(np.float64)  # the dtype bincount sums weights in

    eval_plain = plain_of[eval_num]
    unseen = np.unique(eval_num[eval_plain < 0])
    unseen_row = np.full(width, -1, dtype=np.int64)
    unseen_row[unseen] = np.arange(unseen.size)
    rows, cols, counts = _signatures(eval_lengths, unseen_row[eval_num], eval_plain, radius, width)

    # join: each alien entry meets every candidate entry of its context; a
    # block's join is taken in pieces of about one dense block of entries
    begin = first[cols]
    size = first[cols + 1] - begin
    step = max(1, embeddings._BLOCK_BYTES // (8 * free.size))
    budget = step * free.size
    bounds = np.searchsorted(rows, np.arange(0, unseen.size + step, step))
    for start, lo, hi in zip(range(0, unseen.size, step), bounds, bounds[1:]):
        block = min(step, unseen.size - start)
        # a piece ends at each multiple of the budget; one entry joins at most
        # free.size entries, so no piece passes the budget by more than that
        end = np.cumsum(size[lo:hi])
        cuts = lo + np.searchsorted(end, np.arange(budget, size[lo:hi].sum(), budget), "right")
        scores = None
        for p, q in zip([lo, *cuts], [*cuts, hi]):
            piece = size[p:q]
            match = np.repeat(begin[p:q] - (np.cumsum(piece) - piece), piece)
            match += np.arange(match.size)
            overlap = cand_count[match]
            np.minimum(overlap, np.repeat(counts[p:q], piece), out=overlap)
            cell = cand[match]
            del match  # three join-sized arrays at most are alive at once
            cell += np.repeat((rows[p:q] - start) * free.size, piece)
            # float64 sums of integer counts are exact below 2**53, in any
            # order, so ties stay ties
            if scores is None:
                scores = np.bincount(cell, weights=overlap, minlength=block * free.size)
            else:  # a later piece adds the sums of the rows it spans
                base = (rows[p] - start) * free.size
                cell -= base
                part = np.bincount(cell, weights=overlap)
                scores[base : base + part.size] += part
            del cell, overlap
        # argmax takes the first maximum: candidate 0 when nothing overlaps
        best = free[scores.reshape(block, free.size).argmax(axis=1)]
        guesses.update(zip(values[unseen[start : start + block]].tolist(), values[best].tolist()))
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
    leaked_pairs = _listed(leaked_pairs)  # read once, so an iterator is counted as it was read
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


def nn_hypotheses(store: EmbeddingStore, masked: Iterable[int]) -> dict[int, int]:
    """O3 inference: each masked token's top-1 cosine neighbor within the mask.

    ``masked`` is any iterable of token ids, such as a ``range`` or a set, or
    a 1-D integer array (:func:`~alienlang.embeddings.id_array`).
    """
    if not store.normalized:
        raise ArgumentError("nn attack requires a normalized store")
    ids = np.unique(id_array(masked, "mask"))
    if ids.size and (ids[0] < 0 or ids[-1] >= store.n):
        raise CoverageError("mask contains ids without embedding rows")
    guesses: dict[int, int] = {}
    if ids.size < 2:
        return guesses
    rows = store.rows[ids]
    step = max(1, embeddings._BLOCK_BYTES // (8 * ids.size))  # similarity rows per block
    for start in range(0, ids.size, step):
        stop = min(start + step, ids.size)
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
        log_precision += 0.25 * math.log(m / t)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_precision)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
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
