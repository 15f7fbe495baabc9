"""The three benchmark workloads, written against alienlang's public API.

Each workload loads its files (``setup``), then repeats ``run_pass`` over the
same fixed inputs: one caller, each call waiting for the previous one (a
closed loop).  Every operation is checked; a failed check or a raised
exception counts as a failed operation and the run goes on.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import BUILD_CONFIGS, file_digest  # also puts the checkout's src/ on sys.path

import alienlang as al  # noqa: E402  (after inputs, which locates it)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
THREADS = 2
NGRAM_ORDERS = (2, 3, 4)
FREQ_TOP_M = 1000


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # any failure is counted, never fatal to the run
            self.fail(f"{label}: {type(e).__name__}: {e}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def lost(self, count: int, message: str) -> None:
        """Count ``count`` operations that could not run as attempted and failed."""
        self.attempted += count
        self.failed += count - 1
        self.fail(message)


def recorded_digest(workload: str, seed: int, smoke: bool) -> str | None:
    """The key digest committed for this workload and seed, if any."""
    table = json.loads(DIGESTS.read_text(encoding="ascii"))
    return table.get(workload + ("/smoke" if smoke else ""), {}).get(str(seed))


def _verify_files(inputs: Path, names: tuple[str, ...]) -> None:
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="ascii"))
    for name in names:
        check(file_digest(inputs / name) == manifest["files"][name], f"{name} differs from its manifest digest")


class BuildWorkload:
    """``build-flat`` and ``audit-bucketed``: build a key per pass, audit it on the latter."""

    def __init__(self, name: str, inputs: Path, seed: int, smoke: bool, outcome: Outcome):
        self.inputs = inputs
        self.outcome = outcome
        self.config = al.BuildConfig(**BUILD_CONFIGS[name])
        self.threads = THREADS if self.config.buckets > 1 else None
        self.audit = name == "audit-bucketed"
        self.expected_digest = recorded_digest(name, seed, smoke)
        self.key_digests: list[str] = []
        self.fixed_points: int | None = None
        self.last_key: al.BijectionKey | None = None
        self.reports: dict[str, dict] = {}
        self.vocab = self.store = None
        self.attack_inputs: dict | None = None

    def setup(self) -> float:
        """Load vocabulary and embeddings; returns the loaders' wall time."""
        start = time.perf_counter()
        vocab = al.load_vocab(self.inputs / "vocab.json", self.inputs / "specials.json")
        store = al.normalize(al.load_embeddings(self.inputs / "embeddings.aemb"))
        elapsed = time.perf_counter() - start
        self.vocab, self.store = vocab, store
        if self.audit and self.attack_inputs is None:
            self.attack_inputs = self._load_attack_inputs()
        _verify_files(self.inputs, ("vocab.json", "specials.json", "embeddings.aemb"))
        return elapsed

    def _load_attack_inputs(self) -> dict:
        """Plaintext token-ID corpora for the attacks (benchmark inputs, not timed)."""

        def seq(ids) -> al.TokenSequence:
            return al.TokenSequence(ids=tuple(ids.tolist()), fingerprint=self.vocab.fingerprint)

        out = {name: seq(np.load(self.inputs / f"{name}.npy")) for name in ("freq_plain", "freq_reference")}
        for name in ("leaked", "eval", "public"):
            out[name] = [seq(row) for row in np.load(self.inputs / f"ngram_{name}.npy")]
        return out

    def build(self) -> tuple[al.BijectionKey, str, float]:
        """One key build: the key, the SHA-256 of its ``save_key`` bytes, and build time."""
        start = time.perf_counter()
        key = al.build_key(self.vocab, self.store, self.config, threads=self.threads)
        elapsed = time.perf_counter() - start
        path = self.inputs / "built-key.json"
        al.save_key(key, path)
        return key, hashlib.sha256(path.read_bytes()).hexdigest(), elapsed

    def _checked_build(self, samples: dict) -> al.BijectionKey:
        key, digest, elapsed = self.build()
        samples["build_s"].append(elapsed)
        key.validate()
        check(key.mask == frozenset(self.vocab.permutable_ids), "key mask is not the permutable set")
        self.key_digests.append(digest)
        expected = self.expected_digest or self.key_digests[0]
        check(digest == expected, f"key digest {digest[:16]} != recorded {expected[:16]}")
        self.fixed_points = len(key.fixed_points)
        self.last_key = key
        return key

    def _attack(self, label: str, fn, samples: dict) -> None:
        start = time.perf_counter()
        report = fn().to_dict()
        samples["attack_s"][-1] += time.perf_counter() - start
        first = self.reports.setdefault(label, report)
        check(report == first, f"{label} report differs from the first pass on the same key")

    def _audit(self, key: al.BijectionKey, samples: dict) -> None:
        def alien(seq):
            return al.encode_ids(seq, key)

        corpora = self.attack_inputs
        alien_freq = alien(corpora["freq_plain"])
        leaked = [(p, alien(p)) for p in corpora["leaked"]]
        evals = [(p, alien(p)) for p in corpora["eval"]]
        public = corpora["public"]
        samples["attack_s"].append(0.0)
        ops = [
            ("frequency", lambda: al.frequency_attack(alien_freq, corpora["freq_reference"], key, FREQ_TOP_M)),
            *[
                (f"ngram{n}", lambda n=n: al.ngram_attack(leaked, evals, n, key, reference_corpus=public))
                for n in NGRAM_ORDERS
            ],
            ("nn_mapping", lambda: al.nn_mapping_attack(self.store, key)),
        ]
        for label, fn in ops:
            self.outcome.op(label, self._attack, label, fn, samples)

    def run_pass(self, samples: dict) -> None:
        key = self.outcome.op("build_key", self._checked_build, samples)
        if not self.audit:
            return
        if key is None:
            self.outcome.lost(len(NGRAM_ORDERS) + 2, "attacks skipped: no key")
            return
        self._audit(key, samples)

    def op_latencies(self, samples: dict) -> list[float]:
        return samples["build_s"]


def to_wire(doc: al.AlienDocument, key: al.BijectionKey) -> bytes:
    """What goes to the other side: the rendering if safe, else an ID stream."""
    if doc.retokenization_safe:
        return doc.rendered
    buf = io.StringIO()
    al.write_id_stream(buf, [doc.ids], key.vocab_fingerprint)
    return buf.getvalue().encode("ascii")


class TranslateWorkload:
    """``translate``: document round trips through the wire, then a dataset emission."""

    def __init__(self, name: str, inputs: Path, seed: int, smoke: bool, outcome: Outcome):
        self.inputs = inputs
        self.outcome = outcome
        with open(inputs / "docs.jsonl", encoding="ascii") as fp:
            self.docs = [json.loads(line).encode("latin-1") for line in fp]
        with open(inputs / "dataset.jsonl", encoding="utf-8") as fp:
            self.records = [json.loads(line) for line in fp]
        self.vocab = self.key = None

    def setup(self) -> float:
        """Load vocabulary and key; returns the loaders' wall time."""
        start = time.perf_counter()
        vocab = al.load_vocab(self.inputs / "vocab.json", self.inputs / "specials.json")
        key = al.load_key(self.inputs / "key.json")
        elapsed = time.perf_counter() - start
        self.vocab, self.key = vocab, key
        _verify_files(self.inputs, ("vocab.json", "specials.json", "key.json"))
        check(key.vocab_fingerprint == vocab.fingerprint, "key belongs to another vocabulary")
        return elapsed

    def _round_trip(self, doc: bytes, samples: dict) -> None:
        start = time.perf_counter()
        alien = al.encode_text(doc, self.key, self.vocab)
        wire = to_wire(alien, self.key)
        mid = time.perf_counter()
        plain = al.decode_text(wire, self.key, self.vocab)
        end = time.perf_counter()
        samples["encode_s"].append(mid - start)
        samples["decode_s"].append(end - mid)
        samples["doc_bytes"].append(len(doc))
        samples["unsafe"].append(not alien.retokenization_safe)
        check(plain == doc, "document did not round-trip byte for byte")

    def _emit(self, samples: dict) -> None:
        """One dataset emission; every record is then an operation of its own."""
        source = self.inputs / "dataset.jsonl"
        target = self.inputs / "alien.jsonl"
        try:
            start = time.perf_counter()
            summary = al.alienize_dataset(source, self.key, self.vocab, target)
            samples["emit_s"].append(time.perf_counter() - start)
            samples["emit_records"].append(summary.records)
            with open(target, encoding="utf-8") as fp:
                emitted = [json.loads(line) for line in fp]
            check(len(emitted) == len(self.records), f"emitted {len(emitted)} of {len(self.records)} records")
        except Exception as e:  # the whole emission is lost: count each record as failed
            self.outcome.lost(len(self.records), f"alienize_dataset: {type(e).__name__}: {e}")
            return
        for original, alien in zip(self.records, emitted):
            self.outcome.op("dataset record", self._restore, original, alien)

    def _restore(self, original: dict, alien: dict) -> None:
        def back(text: str) -> str:
            raw = text.encode("utf-8", errors="surrogateescape")
            return al.decode_text(raw, self.key, self.vocab).decode("utf-8", errors="surrogateescape")

        if "messages" in alien:
            restored = {**alien, "messages": [{**m, "content": back(m["content"])} for m in alien["messages"]]}
        else:
            restored = {**alien, **{f: back(alien[f]) for f in ("instruction", "response") if f in alien}}
        check(restored == original, "dataset record did not round-trip")

    def run_pass(self, samples: dict) -> None:
        for doc in self.docs:
            self.outcome.op("document", self._round_trip, doc, samples)
        self._emit(samples)

    def op_latencies(self, samples: dict) -> list[float]:
        return [e + d for e, d in zip(samples["encode_s"], samples["decode_s"])]


WORKLOADS = {
    "build-flat": BuildWorkload,
    "audit-bucketed": BuildWorkload,
    "translate": TranslateWorkload,
}
