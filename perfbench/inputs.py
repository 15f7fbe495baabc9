"""Seeded input generation for the alienlang benchmark.

Every file a workload reads is made here from the workload seed, so the same
seed always gives byte-identical inputs; ``manifest.json`` records a SHA-256
per file.  The benchmark runs this module in a child process, which keeps
generation out of the timed window and out of the measured process's peak
RSS.

    python3 perfbench/inputs.py --workload build-flat --seed 1 --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import alienlang as al  # noqa: E402

WORKLOADS = ("build-flat", "audit-bucketed", "translate")

# Full sizes are chosen so one pass takes a few seconds on a 2-core machine
# with the pure-Python edit-distance lane; smoke sizes finish in well under a
# second and exist for the benchmark's own tests.
SIZES = {
    False: {
        "vocab": 4096,
        "specials": 8,
        "dim": 64,
        "freq_tokens": 200_000,
        "sentences": (1000, 600, 2000),
        "sentence_len": 20,
        "words": 40_000,
        "docs": 1500,
        "doc_bytes": 2_000_000,
        "records": 1800,
        "record_bytes": 950_000,
    },
    True: {
        "vocab": 256,
        "specials": 8,
        "dim": 16,
        "freq_tokens": 5_000,
        "sentences": (40, 30, 80),
        "sentence_len": 20,
        "words": 1_000,
        "docs": 30,
        "doc_bytes": 30_000,
        "records": 20,
        "record_bytes": 10_000,
    },
}

BUILD_CONFIGS = {
    "build-flat": {"k": 50},
    "audit-bucketed": {"k": 50, "buckets": 16},
    "translate": {"k": 4, "buckets": 64},
}

LOWER = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
# Separators sprinkled between word tokens; includes multi-byte UTF-8.
SEPARATORS = [b". ", b", ", b"\n", b"\n\n", b"? ", b" 42", b" \xc3\xa9t\xc3\xa9", b" \xe2\x80\x94"]
TRANSLATE_SPECIALS = [b"<|bos|>", b"<|eos|>"]
# The translate vocabulary and key come from this fixed seed, as a deployed
# tokenizer and a client's key would; the workload seed draws the traffic.
# With a seeded key, the share of unsafe renderings (and with it the decode
# cost) swings twofold between seeds on which few head tokens it remaps.
TRANSLATE_KEY_SEED = 0


def random_vocab(rng: np.random.Generator, n: int, specials: int) -> al.Vocabulary:
    """n unique lowercase tokens of 3-10 bytes; the last ``specials`` ids are special.

    Same draw sequence as ``random_vocab`` in tests/helpers.py, kept here so
    that editing the test helpers never changes benchmark inputs.
    """
    seen: set[bytes] = set()
    tokens: list[bytes] = []
    while len(tokens) < n:
        length = int(rng.integers(3, 11))
        tok = bytes(rng.choice(LOWER, size=length).astype(np.uint8))
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    entries = [(tok, idx) for idx, tok in enumerate(tokens)]
    return al.Vocabulary.from_entries(entries, range(n - specials, n))


def unit_rows(rng: np.random.Generator, n: int, d: int) -> al.EmbeddingStore:
    rows = rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return al.EmbeddingStore(rows=rows, normalized=True)


def zipf_sample(rng: np.random.Generator, ranked: np.ndarray, size, s: float = 1.1) -> np.ndarray:
    """Draw from ``ranked`` (most frequent first) with a finite Zipf(s) law."""
    weights = 1.0 / np.arange(1, ranked.size + 1) ** s
    cdf = np.cumsum(weights / weights.sum())
    picks = np.searchsorted(cdf, rng.random(size), side="right")
    return ranked[np.minimum(picks, ranked.size - 1)]


def sized(rng: np.random.Generator, count: int, median: float, total: int, cap: int) -> np.ndarray:
    """Log-normal sizes (sigma 1) in seeded order, rescaled to sum to about ``total``.

    The sizes are the distribution's quantiles at (i + 0.5) / count, so every
    seed gets the same multiset of sizes and only their order and content
    change; per-operation medians then do not drift with the seed.
    """
    normal = statistics.NormalDist(np.log(median), 1.0)
    raw = np.exp([normal.inv_cdf((i + 0.5) / count) for i in range(count)])
    raw = np.clip(raw, 16, cap)
    return rng.permutation(np.clip(np.rint(raw * total / raw.sum()), 16, cap).astype(np.int64))


def text_stream(rng: np.random.Generator, words: list[bytes], nbytes: int) -> bytes:
    """Zipf-sampled words (``words`` ranked most frequent first) with separators.

    Returns exactly ``nbytes`` bytes.
    """
    vocab = np.array(words + SEPARATORS, dtype=object)
    count = nbytes // 3 + 64
    picks = zipf_sample(rng, np.arange(len(words)), count)
    sep = rng.random(count) < 0.08
    picks[sep] = len(words) + rng.integers(0, len(SEPARATORS), size=int(sep.sum()))
    blob = b"".join(vocab[picks])
    return blob[:nbytes]


def translate_vocab(rng: np.random.Generator, count: int) -> tuple[al.Vocabulary, list[bytes]]:
    """Byte-complete vocabulary: 256 single bytes, ``count`` words, 2 specials.

    The words are returned in a random frequency-rank order.
    """
    singles = {bytes([b]) for b in range(256)}
    seen: set[bytes] = set()
    words: list[bytes] = []
    while len(words) < count:
        length = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            tok = b" " + bytes(rng.choice(LOWER, size=length - 1).astype(np.uint8))
        else:
            tok = bytes(rng.choice(LOWER, size=length).astype(np.uint8))
        if tok not in seen and tok not in singles:
            seen.add(tok)
            words.append(tok)
    tokens = [bytes([b]) for b in range(256)] + words + TRANSLATE_SPECIALS
    specials = range(len(tokens) - len(TRANSLATE_SPECIALS), len(tokens))
    vocab = al.Vocabulary.from_entries([(t, i) for i, t in enumerate(tokens)], specials)
    return vocab, [words[i] for i in rng.permutation(len(words))]


def _as_text(blob: bytes) -> str:
    return blob.decode("utf-8", errors="ignore")


def dataset_records(rng: np.random.Generator, words: list[bytes], count: int, total: int) -> list[dict]:
    """Half instruction/response records, half chat ``messages`` records."""
    shapes = [2 if r % 2 == 0 else 2 + (r // 2) % 3 for r in range(count)]
    fields = int(sum(shapes))
    sizes = sized(rng, fields, 250.0, total, 8000)
    stream = text_stream(rng, words, int(sizes.sum()))
    cuts = np.concatenate([[0], np.cumsum(sizes)])
    texts = [_as_text(stream[cuts[i] : cuts[i + 1]]) for i in range(fields)]
    records: list[dict] = []
    pos = 0
    for r, n_fields in enumerate(shapes):
        part, pos = texts[pos : pos + n_fields], pos + n_fields
        if r % 2 == 0:
            records.append({"id": r, "instruction": part[0], "response": part[1]})
        else:
            roles = ["user", "assistant"] * 2
            records.append(
                {"id": r, "messages": [{"role": roles[i], "content": t} for i, t in enumerate(part)]}
            )
    return records


def _write_build_inputs(rng: np.random.Generator, size: dict, out: Path, attacks: bool) -> None:
    vocab = random_vocab(rng, size["vocab"], size["specials"])
    store = unit_rows(rng, size["vocab"], size["dim"])
    al.save_vocab(vocab, out / "vocab.json", out / "specials.json")
    al.save_embeddings(store, out / "embeddings.aemb")
    if not attacks:
        return
    # one frequency ranking for every corpus, so the attacker's reference
    # statistics come from the same distribution as the hidden plaintext
    ranked = rng.permutation(np.asarray(vocab.permutable_ids, dtype=np.int64))
    n_tok = size["freq_tokens"]
    np.save(out / "freq_plain.npy", zipf_sample(rng, ranked, n_tok))
    np.save(out / "freq_reference.npy", zipf_sample(rng, ranked, n_tok))
    for name, count in zip(("leaked", "eval", "public"), size["sentences"]):
        np.save(out / f"ngram_{name}.npy", zipf_sample(rng, ranked, (count, size["sentence_len"])))


def _write_translate_inputs(rng: np.random.Generator, size: dict, out: Path) -> None:
    key_rng = np.random.default_rng(TRANSLATE_KEY_SEED)
    vocab, words = translate_vocab(key_rng, size["words"])
    store = unit_rows(key_rng, len(vocab), 64)
    key = al.build_key(vocab, store, al.BuildConfig(**BUILD_CONFIGS["translate"]))
    al.save_vocab(vocab, out / "vocab.json", out / "specials.json")
    al.save_key(key, out / "key.json")
    sizes = sized(rng, size["docs"], 800.0, size["doc_bytes"], 20_000)
    stream = text_stream(rng, words, int(sizes.sum()))
    cuts = np.concatenate([[0], np.cumsum(sizes)])
    with open(out / "docs.jsonl", "w", encoding="ascii") as fp:
        for i in range(sizes.size):
            doc = stream[cuts[i] : cuts[i + 1]]
            fp.write(json.dumps(doc.decode("latin-1")) + "\n")
    records = dataset_records(rng, words, size["records"], size["record_bytes"])
    with open(out / "dataset.jsonl", "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(json.dumps(rec, ensure_ascii=True) + "\n")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs into ``out`` and return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    size = SIZES[smoke]
    if workload == "translate":
        _write_translate_inputs(rng, size, out)
    else:
        _write_build_inputs(rng, size, out, attacks=workload == "audit-bucketed")
    files = {p.name: file_digest(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    combined = hashlib.sha256("".join(f"{n}:{d}\n" for n, d in files.items()).encode())
    manifest = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "files": files,
        "input_digest": combined.hexdigest(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="ascii")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
