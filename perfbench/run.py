#!/usr/bin/env python3
"""Layered benchmark for alienlang: key builds, audits and translation round trips.

    python3 perfbench/run.py --workload build-flat --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` in a child process (never timed), then
the workload's files are loaded several times (``setup_s``) and passes over
the fixed inputs repeat until ``--seconds`` have elapsed.  With ``--trace 0``
the last line of output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` half the time runs untraced and half under the tracer,
and the JSON holds the per-layer metrics plus the tracing overhead.  Every
output is checked; ``failed`` counts the operations whose check failed or
that raised.  A result file and the spans go to ``.perfbench/results/``.
Only per-process timers are used: no CPU pinning, no cache dropping and no
system-wide tracing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
TRACED_SETUPS = 3
WORKLOAD_NAMES = ("build-flat", "audit-bucketed", "translate")

# name -> unit; the order here is the order of the printed JSON.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "op_ms_p50": "ms",
}
PER_LAYER = {
    "embeddings.topk_cosine.busy_s": "s",
    "embeddings.topk_cosine.calls": "count",
    "embeddings.topk_cosine.sim_cells": "count",
    "embeddings.topk_cosine.ns_per_cell": "ns",
    "embeddings.load_embeddings.busy_s": "s",
    "embeddings.normalize.busy_s": "s",
    "editdist.normalized_batch.busy_s": "s",
    "editdist.normalized_batch.pairs": "count",
    "editdist.normalized_batch.pairs_per_s": "1/s",
    "bijection.build_key.self_s": "s",
    "bijection.build_key.concurrency": "ratio",
    "bijection.greedy_share": "ratio",
    "bijection.fixed_points": "count",
    "bijection.load_key.busy_s": "s",
    "seeding.derive_seed.calls": "count",
    "vocab.load_vocab.busy_s": "s",
    "vocab.reference_tokenize.busy_s": "s",
    "vocab.reference_tokenize.bytes": "B",
    "vocab.reference_tokenize.MBps": "MB/s",
    "vocab.detokenize.busy_s": "s",
    "vocab.detokenize.tokens": "count",
    "translator.encode_text.self_s": "s",
    "translator.decode_text.self_s": "s",
    "translator.tokenized_bytes_per_plain_byte": "B/B",
    "translator.unsafe_share": "ratio",
    "translator.alienize_dataset.self_s": "s",
    "attacks.frequency_attack.busy_s": "s",
    "attacks.ngram_attack.busy_s": "s",
    "attacks.nn_mapping_attack.busy_s": "s",
    "attacks.nn_mapping_attack.sim_cells": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}
# per-layer metric suffix -> the span statistic it reads; layer_metrics
# derives the other per-layer metrics
SPAN_STATS = {
    "busy_s": "busy",
    "self_s": "self_time",
    "calls": "calls",
    "sim_cells": "work",
    "pairs": "work",
    "bytes": "work",
    "tokens": "work",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so every reported value is a measured sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library itself."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fp:
        libs = {line.split()[-1] for line in fp if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "alienlang").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, manifest: dict) -> dict:
    import numpy as np
    import scipy

    import alienlang as al

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "alienlang_backend": al.BACKEND,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "input_sha256": manifest["input_digest"],
        "timers": "per-process time.perf_counter and getrusage only; "
        "no CPU pinning, no cache dropping, no system-wide tracing",
    }


def generate_inputs(workload: str, seed: int, smoke: bool, out: Path) -> dict:
    """Generate inputs in a child process and return their manifest."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=600)
    return json.loads((out / "manifest.json").read_text(encoding="ascii"))


def _timed_passes(work, seconds: float, samples: dict, between=None) -> list[float]:
    """Closed loop: whole passes, one after another, until ``seconds`` elapse.

    ``between`` runs after each pass, outside its timing.
    """
    durations = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        work.run_pass(samples)
        durations.append(time.perf_counter() - start)
        if between is not None:
            between()
        if time.perf_counter() - begin >= seconds:
            return durations


def _setups(work, outcome, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        elapsed = outcome.op("setup", work.setup)
        if elapsed is not None:
            times.append(elapsed)
    return times


def layer_metrics(setup_tracer, pass_tracer, setups: int, passes: int, work, samples) -> dict:
    """Per-layer figures for one set-up plus one pass of the traced run."""
    s_stats = tracing.layer_stats(setup_tracer.spans)
    p_stats = tracing.layer_stats(pass_tracer.spans)

    def per(kind: str, name: str) -> float:
        return _ratio(getattr(s_stats, kind).get(name, 0), setups) + _ratio(getattr(p_stats, kind).get(name, 0), passes)

    m: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat in SPAN_STATS:
            m[metric] = per(SPAN_STATS[stat], span)
    m["embeddings.topk_cosine.ns_per_cell"] = 1e9 * _ratio(
        m["embeddings.topk_cosine.busy_s"], m["embeddings.topk_cosine.sim_cells"]
    )
    m["editdist.normalized_batch.pairs_per_s"] = _ratio(
        m["editdist.normalized_batch.pairs"], m["editdist.normalized_batch.busy_s"]
    )
    m["vocab.reference_tokenize.MBps"] = 1e-6 * _ratio(
        m["vocab.reference_tokenize.bytes"], m["vocab.reference_tokenize.busy_s"]
    )
    m["bijection.build_key.concurrency"] = _ratio(
        p_stats.child_busy.get("bijection.build_key", 0.0), p_stats.busy.get("bijection.build_key", 0.0)
    )
    key = getattr(work, "last_key", None)
    if key is not None and pass_tracer.neighbours:
        lists = tracing.neighbour_lists(pass_tracer.neighbours)
        m["bijection.greedy_share"] = tracing.greedy_share(key.mapping, lists)
    else:
        m["bijection.greedy_share"] = 0.0
    m["bijection.fixed_points"] = float(getattr(work, "fixed_points", None) or 0)
    encode_ids = {s.id for s in pass_tracer.spans if s.name == "translator.encode_text"}
    tokenized = sum(
        s.count for s in pass_tracer.spans if s.name == "vocab.reference_tokenize" and s.parent in encode_ids
    )
    m["translator.tokenized_bytes_per_plain_byte"] = _ratio(
        tokenized, p_stats.work.get("translator.encode_text", 0)
    )
    unsafe = samples.get("unsafe", [])
    m["translator.unsafe_share"] = _ratio(sum(unsafe), len(unsafe))
    m["trace.spans"] = _ratio(len(setup_tracer.spans), setups) + _ratio(len(pass_tracer.spans), passes)
    return m


def end_to_end(setup_times, pass_times, work, samples) -> dict:
    latencies = work.op_latencies(samples)
    return {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": statistics.median(pass_times),
        "op_ms_p50": 1e3 * statistics.median(latencies) if latencies else 0.0,
    }


def workload_report(samples: dict) -> dict[str, tuple[float, str]]:
    """The workload's own user-facing figures, printed beside the gated ones."""
    out: dict[str, tuple[float, str]] = {}
    if samples.get("build_s"):
        out["build_s"] = (statistics.median(samples["build_s"]), "s")
        out["build_samples"] = (len(samples["build_s"]), "count")
    if samples.get("attack_s"):
        out["attack_s"] = (statistics.median(samples["attack_s"]), "s")
    if samples.get("encode_s"):
        total = sum(samples["doc_bytes"])
        out["encode_MBps"] = (1e-6 * total / sum(samples["encode_s"]), "MB/s")
        out["decode_MBps"] = (1e-6 * total / sum(samples["decode_s"]), "MB/s")
        for kind in ("encode", "decode"):
            ms = [1e3 * v for v in samples[f"{kind}_s"]]
            out[f"{kind}_ms_p50"] = (_percentile(ms, 50), "ms")
            out[f"{kind}_ms_p99"] = (_percentile(ms, 99), "ms")
        out["documents"] = (len(samples["encode_s"]), "count")
    if samples.get("emit_s"):
        rates = [r / s for r, s in zip(samples["emit_records"], samples["emit_s"])]
        out["emit_records_per_s"] = (statistics.median(rates), "1/s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, inputs: Path | None = None) -> dict:
    """Run one workload; ``inputs`` names pre-generated files (else they are generated)."""
    # imported here so that main() can first check that the sources exist
    from workloads import WORKLOADS, Outcome

    STATE.mkdir(exist_ok=True)
    scratch = None
    if inputs is None:
        (STATE / "work").mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=STATE / "work"))
        inputs = scratch
        manifest = generate_inputs(workload, seed, smoke, inputs)
    else:
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="ascii"))
    try:
        outcome = Outcome()
        work = WORKLOADS[workload](workload, inputs, seed, smoke, outcome)
        samples: dict[str, list] = defaultdict(list)
        setup_times = _setups(work, outcome, SETUP_REPEATS)
        # One checked but untimed pass first, so that first-call costs (BLAS
        # thread start, heap growth) stay out of the timed passes.
        work.run_pass(defaultdict(list))
        if not trace:
            # one more set-up after each pass spreads the set-up samples over
            # the whole run, as the pass samples are
            pass_times = _timed_passes(
                work, seconds, samples, lambda: setup_times.extend(_setups(work, outcome, 1))
            )
            metrics = end_to_end(setup_times, pass_times, work, samples)
            units = END_TO_END
            spans = None
        else:
            plain_times = _timed_passes(work, seconds / 2, defaultdict(list))
            setup_tracer, pass_tracer = tracing.Tracer(), tracing.Tracer()
            with setup_tracer:
                traced_setups = len(_setups(work, outcome, TRACED_SETUPS))
            with pass_tracer:
                pass_times = _timed_passes(work, seconds / 2, samples)
            metrics = layer_metrics(
                setup_tracer, pass_tracer, traced_setups, len(pass_times), work, samples
            )
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(pass_times) / statistics.median(plain_times) - 1.0
            )
            units = PER_LAYER
            spans = setup_tracer.spans + pass_tracer.spans
        result = {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        }
        detail = {
            "workload": workload,
            "smoke": smoke,
            "trace": trace,
            "seconds": seconds,
            "error_rate": _ratio(outcome.failed, outcome.attempted),
            "errors": outcome.errors,
            "passes": len(pass_times),
            "pass_s_samples": pass_times,
            "key_digests": sorted(set(getattr(work, "key_digests", []))),
            "report": {k: {"value": v, "unit": u} for k, (v, u) in workload_report(samples).items()},
            "environment": environment(seed, manifest),
        }
        results = STATE / "results"
        results.mkdir(exist_ok=True)
        stem = f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"
        (results / f"{stem}.json").write_text(json.dumps({**detail, **result}, indent=1) + "\n", encoding="ascii")
        if spans is not None:
            tracing.write_spans(spans, results / f"{stem}.spans.jsonl")
        return {"result": result, "detail": detail}
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def print_result(out: dict) -> None:
    result, detail = out["result"], out["detail"]
    print(f"# workload {detail['workload']}  passes {detail['passes']}  "
          f"error_rate {detail['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    for err in detail["errors"]:
        print(f"#   failure: {err}")
    for name, m in detail["report"].items():
        print(f"# {name:<22} {m['value']:.6g} {m['unit']}")
    for digest in detail["key_digests"]:
        print(f"# key sha256 {digest}")
    print("# environment " + json.dumps(detail["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "alienlang" / "__init__.py").is_file():
        print(f"error: alienlang sources not found under {SRC}", file=sys.stderr)
        return 2
    print_result(run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
