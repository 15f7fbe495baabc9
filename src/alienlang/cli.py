"""Command-line surface: one binary, subcommand per workflow.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every subcommand is
byte-deterministic on identical inputs except ``attack probe`` (network).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import __version__
from .attacks import frequency_attack, ngram_attack, nn_mapping_attack
from .bijection import (
    EDIT_MODES,
    BuildConfig,
    build_key,
    check_key,
    load_key,
    opacity_report,
    save_key,
)
from .embeddings import load_embeddings, normalize
from .errors import FormatError, ToolkitError
from .fileio import atomic_write
from .probe import DEFAULT_PROMPT, SHOT_BUDGETS, EndpointConfig, llm_inverse_probe
from .report import emit_summary, matrix_to_csv, overlap_matrix
from .translator import (
    alienize_dataset,
    decode_ids,
    decode_text,
    encode_ids,
    encode_text,
    read_id_stream,
    read_jsonl,
    to_wire,
    write_id_stream,
)
from .vocab import load_vocab, write_pretokenized


def _load_key(args) -> tuple["Vocabulary", "BijectionKey"]:
    """The ``--vocab`` vocabulary and the ``--key`` file, checked once against it."""
    vocab = load_vocab(args.vocab, args.specials)
    key = load_key(args.key)
    check_key(key, vocab)
    return vocab, key


def _cmd_build_key(args) -> int:
    config = BuildConfig(**{f.name: getattr(args, f.name) for f in fields(BuildConfig)})
    vocab = load_vocab(args.vocab, args.specials)
    store = normalize(load_embeddings(args.embeddings))
    if config.rho == 0.0:
        print("warning: rho=0 produces an identity key", file=sys.stderr)
    key = build_key(vocab, store, config)
    save_key(key, args.out)
    rep = opacity_report(key, vocab)
    print(f"key written to {args.out}")
    print(f"  masked tokens      : {len(key.mask)}")
    print(f"  pairs / fixed pts  : {rep.pair_count} / {rep.fixed_point_count}")
    if rep.mean_normalized_edit is not None:
        print(f"  mean norm. edit    : {rep.mean_normalized_edit:.4f}")
        print(f"  median norm. edit  : {rep.median_normalized_edit:.4f}")
        print(f"  unchanged fraction : {rep.unchanged_fraction:.4f}")
    return 0


def _cmd_encode(args) -> int:
    vocab, key = _load_key(args)
    if args.ids:
        encoded = [encode_ids(s, key) for s in read_id_stream(args.input, vocab)]
        write_id_stream(args.output, encoded, key.vocab_fingerprint)
        return 0
    data = Path(args.input).read_bytes()
    doc = encode_text(data, key, vocab, strict=args.strict)
    if not doc.retokenization_safe:
        print("warning: rendering is not retokenization-safe; writing ID stream", file=sys.stderr)
    with atomic_write(args.output, "wb") as fp:
        fp.write(to_wire(doc, key))
    return 0


def _cmd_decode(args) -> int:
    vocab, key = _load_key(args)
    if args.ids:
        sequences = read_id_stream(args.input, vocab)
        write_pretokenized([decode_ids(s, key) for s in sequences], args.output)
        return 0
    data = Path(args.input).read_bytes()
    with atomic_write(args.output, "wb") as fp:
        fp.write(decode_text(data, key, vocab))
    return 0


def _cmd_emit_dataset(args) -> int:
    vocab = load_vocab(args.vocab, args.specials)
    key = load_key(args.key)  # alienize_dataset checks it against the vocabulary
    summary = alienize_dataset(args.input, key, vocab, args.output, strict=args.strict)
    print(
        f"records={summary.records} tokens={summary.tokens} "
        f"unsafe_renderings={summary.unsafe_renderings}"
    )
    return 0


def _named(path: str, read, *args):
    """``read(path, *args)``, its errors naming the file, for commands that read several."""
    try:
        return read(path, *args)
    except ToolkitError as e:
        raise FormatError(f"{path}: {e}") from e


def _read_records(path: str, names: tuple[str, str], read, what: str) -> list[tuple]:
    """Read a JSONL file whose records hold the named fields, each kept as ``read`` returns it."""
    rows = []
    for lineno, record in read_jsonl(path):
        try:
            rows.append(tuple(read(record.get(name)) for name in names))
        except ToolkitError:
            raise FormatError(f"line {lineno}: record needs {' and '.join(names)} as {what}")
    return rows


def _of_type(kind: type, value):
    if not isinstance(value, kind):
        raise FormatError(f"{value!r} is not a {kind.__name__}")
    return value


def _reported(args, rep, line: str) -> int:
    """Print an attack's summary line and write its ``--report``."""
    print(line)
    if args.report:
        emit_summary([rep], args.report)
    return 0


def _cmd_freq(args) -> int:
    vocab, key = _load_key(args)
    alien = _named(args.alien, read_id_stream, vocab)
    reference = _named(args.reference, read_id_stream, vocab)
    rep = frequency_attack(alien, reference, key, top_m=args.top_m)
    head = rep.details["head_recovery"]
    line = f"frequency: token_recovery={rep.token_recovery:.6f} head_recovery={head:.4f}"
    return _reported(args, rep, line)


def _cmd_ngram(args) -> int:
    vocab, key = _load_key(args)
    what = "lists of known token ids"
    pairs = ("plain", "alien"), lambda v: vocab.sequence(_of_type(list, v)), what
    leaked = _named(args.leaked, _read_records, *pairs)
    eval_pairs = _named(args.eval, _read_records, *pairs)
    reference = _named(args.reference, read_id_stream, vocab) if args.reference else None
    rep = ngram_attack(leaked, eval_pairs, n=args.n, truth=key, reference_corpus=reference)
    br = "n/a" if rep.bijection_recovery is None else f"{rep.bijection_recovery:.6f}"
    line = f"ngram(n={args.n}): token_recovery={rep.token_recovery:.6f} bijection_recovery={br}"
    return _reported(args, rep, line)


def _cmd_nn(args) -> int:
    key = load_key(args.key)
    store = normalize(load_embeddings(args.embeddings))
    rep = nn_mapping_attack(store, key)
    return _reported(args, rep, f"nn_mapping: token_recovery={rep.token_recovery:.6f}")


def _cmd_probe(args) -> int:
    endpoint = args.endpoint or os.environ.get("ALIEN_ENDPOINT", "")
    token = args.token or os.environ.get("ALIEN_TOKEN", "")
    if not endpoint:
        raise FormatError("no endpoint: pass --endpoint or set ALIEN_ENDPOINT")
    string = partial(_of_type, str)
    eval_set = _named(args.eval, _read_records, ("alien", "reference"), string, "strings")
    template = DEFAULT_PROMPT
    if args.template:
        try:
            template = Path(args.template).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{args.template}: template is not UTF-8: {e}") from e
    config = EndpointConfig(
        base_url=endpoint,
        auth_token=token,
        model=args.model,
        timeout=args.timeout,
        concurrency=args.concurrency,
    )
    rep = llm_inverse_probe(
        config, args.shots, eval_set, prompt_template=template, transcript_path=args.transcript
    )
    line = f"probe(shots={args.shots}): bleu={rep.bleu:.2f} rouge_l={rep.rouge_l:.4f}"
    return _reported(args, rep, line)


def _cmd_overlap(args) -> int:
    keys = [_named(path, load_key) for path in args.keys]
    matrix = overlap_matrix(keys)
    if args.out:
        emit_summary([matrix], args.out)
    if args.csv:
        matrix_to_csv(matrix, args.csv)
    for seed, row in zip(matrix.seeds, matrix.values):
        print(f"seed {seed}: " + " ".join(f"{v:7.3f}" for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alienlang",
        description="Build vocabulary bijection keys, translate text, and stress-test keys.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several commands share, each declared once
    vocab = argparse.ArgumentParser(add_help=False)
    vocab.add_argument("--vocab", required=True, help="vocabulary JSON file")
    vocab.add_argument("--specials", default=None, help="JSON array of special token strings")
    key = argparse.ArgumentParser(add_help=False)
    key.add_argument("--key", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", default=None)

    p = sub.add_parser(
        "build-key", parents=[vocab], help="construct a key from a vocabulary and embeddings"
    )
    p.add_argument("--embeddings", required=True, help="embedding file (AEMB binary or text)")
    p.add_argument(
        "--seed",
        type=int,
        help="drives the mask, bucket and fallback-shuffle draws; "
        "the same inputs and seed give the same key",
    )
    p.add_argument("--rho", type=float, help="alienization ratio in [0,1]")
    p.add_argument("--mu", type=float, help="similarity trade-off weight")
    p.add_argument("--k", type=int, help="neighbor count for candidate reduction")
    p.add_argument("--buckets", type=int, help="> 1 makes keys built with different seeds differ")
    p.add_argument("--edit-mode", choices=EDIT_MODES)
    p.add_argument("--out", required=True)
    # every BuildConfig field defaults to the class's own default
    p.set_defaults(func=_cmd_build_key, **asdict(BuildConfig()))

    p = sub.add_parser("encode", parents=[vocab, key], help="plaintext -> alien")
    p.add_argument("--strict", action="store_true", help="fail on unstable renderings")
    p.add_argument("--ids", action="store_true", help="input is an ID file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", parents=[vocab, key], help="alien -> plaintext")
    p.add_argument("--ids", action="store_true", help="write plain ID lines instead of text")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "emit-dataset", parents=[vocab, key], help="alienize a JSONL fine-tuning corpus"
    )
    p.add_argument("--strict", action="store_true")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(func=_cmd_emit_dataset)

    p = sub.add_parser("attack", help="run a recovery attack against a key")
    kind = p.add_subparsers(dest="kind", required=True)

    # a kind's own flags form one more parent, before --report, so --help lists them in this order
    q = argparse.ArgumentParser(add_help=False)
    q.add_argument("--alien", required=True, help="alien corpus, an ID file")
    q.add_argument("--reference", required=True, help="reference corpus, an ID file")
    q.add_argument("--top-m", type=int, default=1000)
    q.set_defaults(func=_cmd_freq)
    kind.add_parser("freq", parents=[vocab, key, q, report], help="frequency-rank matching (O1)")

    q = argparse.ArgumentParser(add_help=False)
    q.add_argument("--leaked", required=True, help='JSONL of {"plain": [...], "alien": [...]}')
    q.add_argument("--eval", required=True, help="JSONL of aligned pairs to extrapolate over")
    q.add_argument(
        "--reference",
        default=None,
        help="public plaintext corpus (an ID file); default: leaked plaintext only",
    )
    q.add_argument("--n", type=int, default=3, help="n-gram order (window radius n-1)")
    q.set_defaults(func=_cmd_ngram)
    kind.add_parser(
        "ngram", parents=[vocab, key, q, report], help="known-pairs n-gram extrapolation (O2)"
    )

    q = argparse.ArgumentParser(add_help=False)
    q.add_argument("--embeddings", required=True)
    q.set_defaults(func=_cmd_nn)
    kind.add_parser("nn", parents=[key, q, report], help="embedding nearest-neighbor mapping (O3)")

    q = argparse.ArgumentParser(add_help=False)
    q.add_argument("--endpoint", default=None, help="chat endpoint base URL (or ALIEN_ENDPOINT)")
    q.add_argument("--token", default=None, help="bearer token (or ALIEN_TOKEN)")
    q.add_argument("--model", default=EndpointConfig.model)
    q.add_argument("--shots", type=int, default=SHOT_BUDGETS[0], choices=SHOT_BUDGETS)
    q.add_argument("--eval", required=True, help='JSONL of {"alien": str, "reference": str}')
    q.add_argument("--template", default=None, help="prompt template file with {alien}")
    q.add_argument("--timeout", type=float, default=EndpointConfig.timeout)
    q.add_argument(
        "--concurrency", type=int, default=EndpointConfig.concurrency, help="max in-flight requests"
    )
    q.add_argument("--transcript", default=None)
    q.set_defaults(func=_cmd_probe)
    kind.add_parser(
        "probe", parents=[q, report], help="LLM inverse-translation probe (O2, network)"
    )

    p = sub.add_parser("overlap", help="pairwise overlap diagnostics across keys")
    p.add_argument("--keys", nargs="+", required=True)
    p.add_argument("--out", default=None, help="summary JSON output")
    p.add_argument("--csv", default=None, help="CSV matrix output")
    p.set_defaults(func=_cmd_overlap)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
