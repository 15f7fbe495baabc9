"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import alienlang as al
import run
import tracing
import workloads
from inputs import SIZES, generate, random_vocab, unit_rows

ROOT = Path(__file__).resolve().parents[2]
SECONDS = 0.2


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_runner():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
                     "--trace", str(trace), "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _smoke_inputs(tmp_path: Path, workload: str, seed: int = 1) -> Path:
    out = tmp_path / workload
    generate(workload, seed, out, smoke=True)
    return out


def test_same_seed_gives_same_inputs(tmp_path):
    a = generate("translate", 3, tmp_path / "a", smoke=True)
    b = generate("translate", 3, tmp_path / "b", smoke=True)
    c = generate("translate", 4, tmp_path / "c", smoke=True)
    assert a["input_digest"] == b["input_digest"] != c["input_digest"]


def test_tampered_key_file_raises_error_rate(tmp_path):
    inputs = _smoke_inputs(tmp_path, "translate")
    path = inputs / "key.json"
    doc = json.loads(path.read_text())
    (a, b), (c, d) = doc["mapping"][:2]
    # Swap partners: the key stays a valid involution, so only the digest check can catch it.
    doc["mapping"][:2] = [sorted((a, d)), sorted((c, b))]
    doc["mapping"].sort()
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    al.load_key(path).validate()
    out = run.run("translate", 1, SECONDS, trace=False, smoke=True, inputs=inputs)
    assert out["result"]["failed"] > 0 and not out["result"]["correct"]
    assert out["detail"]["error_rate"] > 0


def test_tampered_wire_document_raises_error_rate(tmp_path, monkeypatch):
    inputs = _smoke_inputs(tmp_path, "translate")
    honest = workloads.to_wire
    calls = {"n": 0}

    def tampered(doc, key):
        wire = honest(doc, key)
        calls["n"] += 1
        if calls["n"] != 3:
            return wire
        if doc.retokenization_safe:
            return wire[:-1] + bytes([wire[-1] ^ 1])
        head, body = wire.split(b"\n", 1)
        ids = body.split()
        ids[0], ids[-1] = ids[-1], ids[0] + b"0"
        return head + b"\n" + b" ".join(ids) + b"\n"

    monkeypatch.setattr(workloads, "to_wire", tampered)
    out = run.run("translate", 1, SECONDS, trace=False, smoke=True, inputs=inputs)
    assert out["result"]["failed"] == 1
    assert out["detail"]["error_rate"] > 0


def test_digest_mismatch_fails_each_build_without_aborting(tmp_path, monkeypatch):
    inputs = _smoke_inputs(tmp_path, "build-flat")
    monkeypatch.setattr(workloads, "recorded_digest", lambda *a: "0" * 64)
    out = run.run("build-flat", 1, SECONDS, trace=False, smoke=True, inputs=inputs)
    result, passes = out["result"], out["detail"]["passes"]
    # the warm-up build and one build per pass fail; the set-ups still pass
    assert result["failed"] == 1 + passes
    assert result["attempted"] == run.SETUP_REPEATS + 1 + 2 * passes


def test_recorded_smoke_digests_match():
    for workload in ("build-flat", "audit-bucketed"):
        assert workloads.recorded_digest(workload, 1, smoke=True) is not None
    out = run.run("audit-bucketed", 1, SECONDS, trace=False, smoke=True)
    assert out["result"]["correct"]
    assert out["detail"]["key_digests"] == [workloads.recorded_digest("audit-bucketed", 1, True)]


@pytest.mark.parametrize("m", [40, 41])
def test_greedy_share_when_every_token_sees_every_other(m):
    rng = np.random.default_rng(m)
    specials = 3
    vocab = random_vocab(rng, m + specials, specials)
    store = unit_rows(rng, m + specials, 8)
    with tracing.Tracer() as tracer:
        key = al.build_key(vocab, store, al.BuildConfig(k=m - 1))
    share = tracing.greedy_share(key.mapping, tracing.neighbour_lists(tracer.neighbours))
    assert share == (m - m % 2) / m
    assert len(key.fixed_points) == m % 2


def test_greedy_share_counts_fallback_pairs_as_not_greedy():
    rng = np.random.default_rng(5)
    vocab = random_vocab(rng, 200, 0)
    store = unit_rows(rng, 200, 8)
    with tracing.Tracer() as tracer:
        key = al.build_key(vocab, store, al.BuildConfig(k=1))
    share = tracing.greedy_share(key.mapping, tracing.neighbour_lists(tracer.neighbours))
    # with k=1 a token whose nearest neighbour is already taken falls back
    assert 0 < share < 1


def test_tracer_restores_every_binding():
    modules = [al, al.bijection, al.editdist, al.translator, al.vocab, al.embeddings, al.seeding]
    before = [dict(vars(m)) for m in modules]
    with tracing.Tracer():
        assert al.bijection.topk_cosine is not before[1]["topk_cosine"]
        assert al.editdist.normalized_batch is not before[2]["normalized_batch"]
    assert [dict(vars(m)) for m in modules] == before


def test_spans_nest_and_count_work():
    rng = np.random.default_rng(0)
    size = SIZES[True]
    vocab = random_vocab(rng, size["vocab"], size["specials"])
    store = unit_rows(rng, size["vocab"], size["dim"])
    with tracing.Tracer() as tracer:
        al.build_key(vocab, store, al.BuildConfig(k=5, buckets=4), threads=2)
    by_id = {s.id: s for s in tracer.spans}
    build = next(s for s in tracer.spans if s.name == "bijection.build_key")
    batches = [s for s in tracer.spans if s.name == "editdist.normalized_batch"]
    assert len(batches) == 4 and all(s.parent == build.id for s in batches)
    assert sum(s.count for s in batches) == (size["vocab"] - size["specials"]) * 5
    assert all(by_id[s.parent].name == "bijection.build_key" for s in tracer.spans
               if s.name == "embeddings.topk_cosine")
    stats = tracing.layer_stats(tracer.spans)
    assert 0 < stats.self_time["bijection.build_key"] < stats.busy["bijection.build_key"]
