"""Spans around alienlang's public functions, installed from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
under every name an ``alienlang`` module holds for it, so a call is caught at
the name its caller looks up (``alienlang.bijection.topk_cosine``,
``alienlang.editdist.normalized_batch``, ``alienlang.translator.detokenize``
and so on).  ``uninstall`` puts the originals back.  The package source is
never edited.

A span is (id, name, parent, thread, start, end, count): ``parent`` is the
innermost open span on the same thread or, on a pool thread with nothing
open, the innermost open span of the installing thread; ``count`` is the
work the call was handed (pairs, bytes, tokens, similarity cells).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path


def _len_arg(index: int, name: str):
    def count(args, kwargs):
        value = args[index] if len(args) > index else kwargs[name]
        return len(value)

    return count


def _sim_cells(args, kwargs):
    queries = args[1] if len(args) > 1 else kwargs["query_ids"]
    candidates = args[3] if len(args) > 3 else kwargs["candidate_ids"]
    return len(queries) * len(candidates)


def _mask_cells(args, kwargs):
    truth = args[1] if len(args) > 1 else kwargs["truth"]
    return len(truth.mask) ** 2


# span name -> (defining module, function, work counter or None)
TRACED = {
    "vocab.load_vocab": ("alienlang.vocab", "load_vocab", None),
    "vocab.reference_tokenize": ("alienlang.vocab", "reference_tokenize", _len_arg(0, "text")),
    "vocab.detokenize": ("alienlang.vocab", "detokenize", _len_arg(0, "ids")),
    "embeddings.load_embeddings": ("alienlang.embeddings", "load_embeddings", None),
    "embeddings.normalize": ("alienlang.embeddings", "normalize", None),
    "embeddings.topk_cosine": ("alienlang.embeddings", "topk_cosine", _sim_cells),
    "editdist.normalized_batch": ("alienlang.editdist", "normalized_batch", _len_arg(0, "left")),
    "seeding.derive_seed": ("alienlang.seeding", "derive_seed", None),
    "seeding.derive_rng": ("alienlang.seeding", "derive_rng", None),
    "bijection.build_key": ("alienlang.bijection", "build_key", None),
    "bijection.select_mask": ("alienlang.bijection", "select_mask", None),
    "bijection.save_key": ("alienlang.bijection", "save_key", None),
    "bijection.load_key": ("alienlang.bijection", "load_key", None),
    "translator.encode_ids": ("alienlang.translator", "encode_ids", None),
    "translator.decode_ids": ("alienlang.translator", "decode_ids", None),
    "translator.encode_text": ("alienlang.translator", "encode_text", _len_arg(0, "x")),
    "translator.decode_text": ("alienlang.translator", "decode_text", None),
    "translator.write_id_stream": ("alienlang.translator", "write_id_stream", None),
    "translator.read_id_stream": ("alienlang.translator", "read_id_stream", None),
    "translator.alienize_dataset": ("alienlang.translator", "alienize_dataset", None),
    "attacks.frequency_attack": ("alienlang.attacks", "frequency_attack", None),
    "attacks.ngram_attack": ("alienlang.attacks", "ngram_attack", None),
    "attacks.nn_mapping_attack": ("alienlang.attacks", "nn_mapping_attack", _mask_cells),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    count: int | None


class Tracer:
    """Records spans while installed.

    ``neighbours`` keeps (query ids, neighbour ids) from every top-k call, the
    input :func:`greedy_share` needs.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.neighbours: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = []
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home[-1] if tracer._home else None
            span_id = next(tracer._ids)
            count = counter(args, kwargs) if counter else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, parent, threading.get_ident(), start, end, count)
                )
            if name == "embeddings.topk_cosine":
                queries = args[1] if len(args) > 1 else kwargs["query_ids"]
                tracer.neighbours.append((queries, result[0]))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Rebind every traced function under each name alienlang modules hold."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._home = self._local.stack = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "alienlang"]
        for name, (module, attr, counter) in TRACED.items():
            fn = getattr(import_module(module), attr)
            wrapper = self._wrap(name, fn, counter)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, wrapper)
                        self._undo.append((mod, binding, fn))

    def uninstall(self) -> None:
        for mod, binding, fn in reversed(self._undo):
            setattr(mod, binding, fn)
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines, times in seconds from the first span's start."""
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="ascii") as fp:
        for s in spans:
            row = {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "thread": s.thread,
                "start": round(s.start - origin, 9),
                "end": round(s.end - origin, 9),
            }
            if s.count is not None:
                row["count"] = s.count
            fp.write(json.dumps(row) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class LayerStats:
    busy: dict[str, float]
    calls: dict[str, int]
    work: dict[str, int]
    self_time: dict[str, float]
    child_busy: dict[str, float]


def layer_stats(spans: list[Span]) -> LayerStats:
    """Per-name busy time, calls and work, plus self time and child busy time.

    Self time is a span's duration minus the union of its direct children's
    intervals on any thread; child busy time sums the children's durations,
    so it exceeds the parent's duration when children overlap on threads.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.count is not None:
            work[s.name] += s.count
        if s.parent is not None:
            children[s.parent].append(s)
    self_time: dict[str, float] = defaultdict(float)
    child_busy: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = children.get(s.id, [])
        covered = _union_length([(max(k.start, s.start), min(k.end, s.end)) for k in kids])
        self_time[s.name] += (s.end - s.start) - covered
        child_busy[s.name] += sum(k.end - k.start for k in kids)
    return LayerStats(dict(busy), dict(calls), dict(work), dict(self_time), dict(child_busy))


def greedy_share(mapping: dict[int, int], neighbour_lists: dict[int, set[int]]) -> float:
    """Share of masked tokens whose pair was chosen by the greedy loop.

    A pair is greedy exactly when either member appears in the other's
    retrieved top-k list: the greedy loop only picks from that list, and a
    fallback leftover had every listed neighbour taken before it was reached,
    while its eventual partner stayed free throughout.  Fixed points count as
    not greedy.
    """
    if not mapping:
        return 0.0
    greedy = 0
    for i, j in mapping.items():
        if i != j and (j in neighbour_lists.get(i, ()) or i in neighbour_lists.get(j, ())):
            greedy += 1
    return greedy / len(mapping)


def neighbour_lists(members_and_ids: list[tuple]) -> dict[int, set[int]]:
    """Map each query token to the set of neighbour ids it retrieved."""
    out: dict[int, set[int]] = {}
    for queries, ids in members_and_ids:
        for q, row in zip(queries, ids.tolist()):
            out[int(q)] = {j for j in row if j >= 0}
    return out
