import argparse
import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from alienlang import (
    BuildConfig,
    EndpointConfig,
    load_key,
    save_embeddings,
    save_key,
    save_vocab,
)
from alienlang.bijection import EDIT_MODES
from alienlang.cli import build_parser, main
from alienlang.probe import SHOT_BUDGETS
from helpers import byte_complete_vocab, identity_key, unit_store, vocab_from


@pytest.fixture
def workspace(tmp_path):
    """Vocab + embeddings on disk, ready for CLI runs."""
    vocab = byte_complete_vocab(extra_tokens=[b"the", b"and"], specials=[b"<s>", b"</s>"])
    rng = np.random.default_rng(0)
    store = unit_store(rng, len(vocab), 8)
    vpath = tmp_path / "vocab.json"
    spath = tmp_path / "specials.json"
    epath = tmp_path / "emb.bin"
    save_vocab(vocab, vpath, spath)
    save_embeddings(store, epath)
    return {
        "dir": tmp_path,
        "vocab": vocab,
        "vocab_path": str(vpath),
        "specials_path": str(spath),
        "emb_path": str(epath),
    }


def run(argv):
    return main(argv)


def subparser(parser, *command):
    """The parser of a (nested) subcommand."""
    for name in command:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def build_key_cli(ws, out, seed=0, rho=1.0, extra=()):
    argv = [
        "build-key",
        "--vocab", ws["vocab_path"],
        "--specials", ws["specials_path"],
        "--embeddings", ws["emb_path"],
        "--seed", str(seed),
        "--rho", str(rho),
        "--k", "5",
        "--out", str(out),
        *extra,
    ]
    assert run(argv) == 0


class TestBuildKey:
    def test_build_and_reload(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        assert "masked tokens" in capsys.readouterr().out
        key = load_key(out)
        assert len(key.mask) == len(workspace["vocab"].permutable_ids)

    def test_identical_invocations_identical_files(self, workspace):
        out1 = workspace["dir"] / "k1.json"
        out2 = workspace["dir"] / "k2.json"
        build_key_cli(workspace, out1, seed=7)
        build_key_cli(workspace, out2, seed=7)
        assert out1.read_bytes() == out2.read_bytes()

    def test_rho_zero_warns_identity(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out, rho=0.0)
        assert "identity key" in capsys.readouterr().err

    def test_defaults_match_published_setup(self):
        parser = build_parser()
        args = parser.parse_args(
            ["build-key", "--vocab", "v", "--embeddings", "e", "--out", "o"]
        )
        assert args.k == 100
        assert args.mu == 1.0
        assert args.greedy_batch == 50

    def test_build_key_flags_default_to_build_config(self):
        parser = build_parser()
        args = parser.parse_args(["build-key", "--vocab", "v", "--embeddings", "e", "--out", "o"])
        for f in dataclasses.fields(BuildConfig):
            assert getattr(args, f.name) == f.default, f.name
            assert type(getattr(args, f.name)) is type(f.default), f.name
        args = parser.parse_args(["attack", "probe", "--eval", "e"])
        for name in ("model", "timeout", "concurrency"):
            assert getattr(args, name) == getattr(EndpointConfig, name), name
        assert args.shots == SHOT_BUDGETS[0]
        # the choices are the library's own tuples, not restated lists
        choices = {
            a.dest: a.choices
            for command in (["build-key"], ["attack", "probe"])
            for a in subparser(parser, *command)._actions
        }
        assert choices["edit_mode"] is EDIT_MODES
        assert choices["shots"] is SHOT_BUDGETS


class TestEncodeDecode:
    def test_round_trip_text(self, workspace):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        src = workspace["dir"] / "plain.txt"
        alien = workspace["dir"] / "alien.txt"
        back = workspace["dir"] / "back.txt"
        src.write_bytes(b"attack at dawn; bring the keys")
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
        ]
        assert run(["encode", *argv_common, str(src), str(alien)]) == 0
        assert alien.read_bytes() != src.read_bytes()
        assert run(["decode", *argv_common, str(alien), str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()

    def test_empty_file(self, workspace):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        src = workspace["dir"] / "empty.txt"
        alien = workspace["dir"] / "alien.txt"
        back = workspace["dir"] / "back.txt"
        src.write_bytes(b"")
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
        ]
        assert run(["encode", *argv_common, str(src), str(alien)]) == 0
        assert run(["decode", *argv_common, str(alien), str(back)]) == 0
        assert back.read_bytes() == b""

    def test_rho_zero_copy(self, workspace):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out, rho=0.0)
        src = workspace["dir"] / "plain.txt"
        alien = workspace["dir"] / "alien.txt"
        src.write_bytes(b"unchanged bytes")
        argv = [
            "encode",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            str(src), str(alien),
        ]
        assert run(argv) == 0
        assert alien.read_bytes() == src.read_bytes()

    def test_header_collision_round_trip(self, workspace, capsys):
        # an identity key renders the input verbatim, header and all
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out, rho=0.0)
        src = workspace["dir"] / "plain.txt"
        alien = workspace["dir"] / "alien.txt"
        back = workspace["dir"] / "back.txt"
        src.write_bytes(b"#alien-ids v1 hello")
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
        ]
        assert run(["encode", *argv_common, str(src), str(alien)]) == 0
        assert "writing ID stream" in capsys.readouterr().err
        assert alien.read_text().startswith("#alien-ids v1 fingerprint=")
        assert run(["decode", *argv_common, str(alien), str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()

    def test_ids_mode_round_trip(self, workspace):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        ids_in = workspace["dir"] / "ids.txt"
        alien = workspace["dir"] / "alien_ids.txt"
        back = workspace["dir"] / "back_ids.txt"
        ids_in.write_text("5 6 7 8\n\n99 100\n", encoding="utf-8")
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--ids",
        ]
        assert run(["encode", *argv_common, str(ids_in), str(alien)]) == 0
        assert alien.read_text().startswith("#alien-ids v1")
        assert run(["decode", *argv_common, str(alien), str(back)]) == 0
        assert back.read_text() == ids_in.read_text().replace("\n\n", "\n\n")

    def test_ids_mode_encode_own_output(self, workspace):
        # the key is an involution, so encoding the alien stream gives back the plaintext ids
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        ids_in = workspace["dir"] / "ids.txt"
        alien = workspace["dir"] / "alien_ids.txt"
        again = workspace["dir"] / "again.txt"
        ids_in.write_text("5 6 7 8\n\n99 100\n", encoding="utf-8")
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--ids",
        ]
        assert run(["encode", *argv_common, str(ids_in), str(alien)]) == 0
        assert alien.read_text().splitlines()[1:] != ids_in.read_text().splitlines()
        assert run(["encode", *argv_common, str(alien), str(again)]) == 0
        header, *lines = again.read_text().splitlines(keepends=True)
        assert header.startswith("#alien-ids v1 fingerprint=")
        assert "".join(lines) == ids_in.read_text()

    def test_ids_mode_unknown_id_names_line(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        vocab = workspace["vocab"]
        alien = workspace["dir"] / "alien_ids.txt"
        back = workspace["dir"] / "back_ids.txt"
        alien.write_text(f"#alien-ids v1 fingerprint={vocab.fingerprint:016x}\n5 6\n7 999999\n")
        capsys.readouterr()
        argv = [
            "decode",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--ids",
            str(alien), str(back),
        ]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: line 3: unknown token id 999999\n", err
        assert not back.exists()

    def test_corpus_round_trip_bit_exact(self, workspace):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out, seed=3)
        rng = np.random.default_rng(1)
        blob = bytes(rng.integers(0, 256, size=20_000, dtype=np.uint8))
        src = workspace["dir"] / "corpus.bin"
        alien = workspace["dir"] / "alien.bin"
        back = workspace["dir"] / "back.bin"
        src.write_bytes(blob)
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
        ]
        assert run(["encode", *argv_common, str(src), str(alien)]) == 0
        assert run(["decode", *argv_common, str(alien), str(back)]) == 0
        assert back.read_bytes() == blob


class TestEmitDataset:
    def test_round_trip_summary(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        src = workspace["dir"] / "data.jsonl"
        dst = workspace["dir"] / "alien.jsonl"
        with open(src, "w") as fp:
            fp.write(json.dumps({"instruction": "add 2+2", "response": "4"}) + "\n")
            fp.write(json.dumps({"messages": [{"role": "user", "content": "hi"}]}) + "\n")
        argv = [
            "emit-dataset",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--in", str(src),
            "--out", str(dst),
        ]
        assert run(argv) == 0
        assert "records=2" in capsys.readouterr().out
        assert len(dst.read_text().splitlines()) == 2


class TestAttackCommands:
    def _key_and_corpora(self, workspace):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        key = load_key(out)
        vocab = workspace["vocab"]
        rng = np.random.default_rng(2)
        ids = np.asarray(vocab.permutable_ids)
        ranks = np.arange(1, ids.size + 1, dtype=np.float64) ** -1.1
        p = ranks / ranks.sum()
        plain = [int(i) for i in rng.choice(ids, size=4000, p=p)]
        alien = [key.apply(i) for i in plain]
        plain_path = workspace["dir"] / "plain_ids.txt"
        alien_path = workspace["dir"] / "alien_ids.txt"
        plain_path.write_text(" ".join(map(str, plain)) + "\n")
        alien_path.write_text(" ".join(map(str, alien)) + "\n")
        return out, key, plain, alien, plain_path, alien_path

    def test_freq(self, workspace, capsys):
        out, key, plain, alien, ppath, apath = self._key_and_corpora(workspace)
        report = workspace["dir"] / "rep.json"
        argv = [
            "attack", "freq",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--alien", str(apath),
            "--reference", str(ppath),
            "--top-m", "50",
            "--report", str(report),
        ]
        assert run(argv) == 0
        assert "token_recovery" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["reports"][0]["attack_name"] == "frequency"

    def test_freq_reads_encode_ids_output(self, workspace, capsys):
        out, key, plain, alien, ppath, _ = self._key_and_corpora(workspace)
        stream = workspace["dir"] / "alien.stream"
        argv_common = [
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
        ]
        assert run(["encode", "--ids", *argv_common, str(ppath), str(stream)]) == 0
        assert stream.read_text().startswith("#alien-ids v1 fingerprint=")
        argv = ["attack", "freq", *argv_common, "--alien", str(stream), "--reference", str(ppath)]
        assert run(argv) == 0
        assert "token_recovery" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["freq", "ngram"])
    def test_unknown_reference_id_names_file(self, workspace, capsys, kind):
        out, key, plain, alien, ppath, apath = self._key_and_corpora(workspace)
        bad = workspace["dir"] / "public_ids.txt"
        bad.write_text("5 6\n7 999999\n")
        pairs = workspace["dir"] / "pairs.jsonl"
        pairs.write_text(json.dumps({"plain": plain[:30], "alien": alien[:30]}) + "\n")
        inputs = {
            "freq": ["--alien", str(apath)],
            "ngram": ["--leaked", str(pairs), "--eval", str(pairs)],
        }
        capsys.readouterr()
        argv = [
            "attack", kind,
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            *inputs[kind],
            "--reference", str(bad),
        ]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 2: unknown token id 999999\n"

    def test_ngram(self, workspace, capsys):
        out, key, plain, alien, *_ = self._key_and_corpora(workspace)
        leaked_path = workspace["dir"] / "leaked.jsonl"
        eval_path = workspace["dir"] / "eval.jsonl"
        with open(leaked_path, "w") as fp:
            fp.write(json.dumps({"plain": plain[:30], "alien": alien[:30]}) + "\n")
        with open(eval_path, "w") as fp:
            for lo in range(30, 330, 30):
                fp.write(
                    json.dumps({"plain": plain[lo : lo + 30], "alien": alien[lo : lo + 30]}) + "\n"
                )
        argv = [
            "attack", "ngram",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--leaked", str(leaked_path),
            "--eval", str(eval_path),
            "--n", "2",
        ]
        assert run(argv) == 0
        assert "bijection_recovery" in capsys.readouterr().out

    def test_nn(self, workspace, capsys):
        out, *_ = self._key_and_corpora(workspace)
        argv = [
            "attack", "nn",
            "--key", str(out),
            "--embeddings", workspace["emb_path"],
        ]
        assert run(argv) == 0
        assert "nn_mapping" in capsys.readouterr().out


class OracleStub(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        alien = body["messages"][-1]["content"].rsplit("\n\n", 1)[-1]
        content = self.server.oracle.get(alien, "???")
        payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class TestProbeCommand:
    def test_oracle_stub_bleu_100(self, workspace, capsys, monkeypatch):
        server = ThreadingHTTPServer(("127.0.0.1", 0), OracleStub)
        server.oracle = {"zz yy": "hello world", "qq pp": "good bye now"}
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        try:
            eval_path = workspace["dir"] / "eval.jsonl"
            with open(eval_path, "w") as fp:
                fp.write(json.dumps({"alien": "zz yy", "reference": "hello world"}) + "\n")
                fp.write(json.dumps({"alien": "qq pp", "reference": "good bye now"}) + "\n")
            host, port = server.server_address
            monkeypatch.setenv("ALIEN_ENDPOINT", f"http://{host}:{port}/v1")
            monkeypatch.setenv("ALIEN_TOKEN", "tok")
            argv = ["attack", "probe", "--shots", "0", "--eval", str(eval_path)]
            assert run(argv) == 0
            assert "bleu=100.00" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()


class TestOverlap:
    def test_matrix_and_csv(self, workspace, capsys):
        keys = []
        for seed in range(3):
            out = workspace["dir"] / f"key{seed}.json"
            build_key_cli(workspace, out, seed=seed, extra=("--buckets", "8"))
            keys.append(str(out))
        summary = workspace["dir"] / "overlap.json"
        csv_path = workspace["dir"] / "overlap.csv"
        argv = ["overlap", "--keys", *keys, "--out", str(summary), "--csv", str(csv_path)]
        assert run(argv) == 0
        assert "100.000" in capsys.readouterr().out
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_single_key(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        assert run(["overlap", "--keys", str(out)]) == 0
        assert "100.000" in capsys.readouterr().out

    def test_duplicate_keys_full_off_diagonal(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        capsys.readouterr()
        assert run(["overlap", "--keys", str(out), str(out)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows and all(row.count("100.000") == 2 for row in rows)


def write_key_file(path, fingerprint: int, mapping, fixed_points=()) -> str:
    """A key file written by hand, so it may hold what ``save_key`` never would."""
    doc = {
        "version": 1,
        "vocab_fingerprint": f"{fingerprint:016x}",
        "config": dataclasses.asdict(BuildConfig()),
        "fixed_points": list(fixed_points),
        "mapping": mapping,
    }
    path.write_text(json.dumps(doc))
    return str(path)


# id 3 is the special <s>; key files give it, or an id the vocabulary lacks, a partner
FIT_VOCAB = vocab_from([b"a", b"b", b"c", b"<s>", b"d"], specials=[b"<s>"])
OTHER_VOCAB = vocab_from([b"a", b"b", b"c", b"<s>", b"e"], specials=[b"<s>"])
UNFIT_KEYS = {  # name: (fingerprint, mapping, error message)
    "paired special": (FIT_VOCAB.fingerprint, [[1, 3]], "pairs special token id(s) [3]"),
    "id outside": (FIT_VOCAB.fingerprint, [[1, 7]], "outside the vocabulary: [7]"),
    "other vocabulary": (OTHER_VOCAB.fingerprint, [[0, 1]], "different vocabulary"),
    "negative id": (FIT_VOCAB.fingerprint, [[-5, 0]], "violates 0 <= i < j"),
}


KEYED = ("--vocab", "{d}/vocab.json", "--specials", "{d}/specials.json", "--key", "{key}")
COMMANDS = {
    "encode": ("encode", *KEYED, "{d}/text.txt", "{out}"),
    "encode --ids": ("encode", *KEYED, "--ids", "{d}/ids.txt", "{out}"),
    "decode": ("decode", *KEYED, "{d}/text.txt", "{out}"),
    "decode --ids": ("decode", *KEYED, "--ids", "{d}/ids.txt", "{out}"),
    "emit-dataset": ("emit-dataset", *KEYED, "--in", "{d}/data.jsonl", "--out", "{out}"),
    "attack freq": (
        "attack", "freq", *KEYED,
        "--alien", "{d}/ids.txt", "--reference", "{d}/ids.txt", "--report", "{out}",
    ),
    "attack ngram": (
        "attack", "ngram", *KEYED,
        "--leaked", "{d}/pairs.jsonl", "--eval", "{d}/pairs.jsonl", "--report", "{out}",
    ),
}


class TestKeyMustFitVocabulary:
    """Every command that applies a key to a vocabulary checks the pair once."""

    @pytest.fixture
    def fit(self, tmp_path):
        save_vocab(FIT_VOCAB, tmp_path / "vocab.json", tmp_path / "specials.json")
        (tmp_path / "text.txt").write_bytes(b"abc")
        (tmp_path / "ids.txt").write_text("0 1 2\n")
        (tmp_path / "data.jsonl").write_text('{"instruction": "abc"}\n')
        (tmp_path / "pairs.jsonl").write_text('{"plain": [0, 1, 2], "alien": [1, 0, 4]}\n')
        return tmp_path

    @staticmethod
    def run_command(command, d, key):
        return run([arg.format(d=d, key=key, out=d / "out") for arg in COMMANDS[command]])

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", list(UNFIT_KEYS))
    def test_unfit_key_is_1(self, fit, command, case, capsys):
        fingerprint, mapping, message = UNFIT_KEYS[case]
        key = write_key_file(fit / "key.json", fingerprint, mapping)
        assert self.run_command(command, fit, key) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
        assert not (fit / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_fit_key_runs(self, fit, command):
        # the same files with a key that fits: a special as a fixed point is harmless
        key = write_key_file(fit / "key.json", FIT_VOCAB.fingerprint, [[0, 1], [2, 4]], [3])
        assert self.run_command(command, fit, key) == 0
        assert (fit / "out").exists()


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["build-key"])  # missing required flags
        assert exc_info.value.code == 2

    def test_build_key_threads_flag_is_2(self, workspace):
        with pytest.raises(SystemExit) as exc_info:
            build_key_cli(workspace, workspace["dir"] / "key.json", extra=["--threads", "2"])
        assert exc_info.value.code == 2

    def test_build_key_greedy_batch_flag_is_2(self, workspace):
        with pytest.raises(SystemExit) as exc_info:
            build_key_cli(workspace, workspace["dir"] / "key.json", extra=["--greedy-batch", "8"])
        assert exc_info.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["frobnicate"])
        assert exc_info.value.code == 2

    def test_runtime_error_is_1(self, workspace, capsys):
        argv = [
            "encode",
            "--vocab", workspace["vocab_path"],
            "--key", str(workspace["dir"] / "missing.json"),
            "in.txt", "out.txt",
        ]
        assert run(argv) == 1
        assert "error:" in capsys.readouterr().err

    def _one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_non_finite_mu_is_1(self, workspace, capsys):
        argv = [
            "build-key",
            "--vocab", workspace["vocab_path"],
            "--embeddings", workspace["emb_path"],
            "--mu", "nan",
            "--out", str(workspace["dir"] / "key.json"),
        ]
        assert run(argv) == 1
        assert "mu" in self._one_error_line(capsys)
        assert not (workspace["dir"] / "key.json").exists()

    def test_emit_dataset_non_utf8_is_1(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        src = workspace["dir"] / "data.jsonl"
        src.write_bytes(b'{"instruction": "ok", "response": "ok"}\n{"instruction": "\xff"}\n')
        capsys.readouterr()
        argv = [
            "emit-dataset",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--in", str(src),
            "--out", str(workspace["dir"] / "alien.jsonl"),
        ]
        assert run(argv) == 1
        assert "line 2" in self._one_error_line(capsys)

    def test_emit_dataset_untokenizable_is_1(self, tmp_path, capsys):
        vocab = vocab_from([b"a", b"b", b"c", b"x"])
        save_vocab(vocab, tmp_path / "vocab.json")
        save_key(identity_key(vocab), tmp_path / "key.json")
        src = tmp_path / "data.jsonl"
        src.write_text('{"instruction": "abc"}\n{"instruction": "abz", "response": "x"}\n')
        argv = [
            "emit-dataset",
            "--vocab", str(tmp_path / "vocab.json"),
            "--key", str(tmp_path / "key.json"),
            "--in", str(src),
            "--out", str(tmp_path / "alien.jsonl"),
        ]
        assert run(argv) == 1
        assert self._one_error_line(capsys).startswith("error: line 2: no token matches")

    def test_decode_non_hex_fingerprint_is_1(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        src = workspace["dir"] / "alien.txt"
        src.write_bytes(b"#alien-ids v1 fingerprint=zz\n1 2 3\n")
        capsys.readouterr()
        argv = [
            "decode",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            str(src), str(workspace["dir"] / "back.txt"),
        ]
        assert run(argv) == 1
        assert "fingerprint" in self._one_error_line(capsys)

    def test_attack_ngram_malformed_pair_is_1(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        leaked = workspace["dir"] / "leaked.jsonl"
        leaked.write_text('{"plain": [1, 2], "alien": [1, 2]}\n{"plain": ["a"], "alien": [3]}\n')
        capsys.readouterr()
        argv = [
            "attack", "ngram",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--leaked", str(leaked),
            "--eval", str(leaked),
        ]
        assert run(argv) == 1
        err = self._one_error_line(capsys)
        assert str(leaked) in err and "line 2" in err and "plain" in err

    def test_overlap_malformed_key_named_is_1(self, workspace, capsys):
        good = workspace["dir"] / "key.json"
        build_key_cli(workspace, good)
        doc = json.loads(good.read_text())
        doc["config"]["k"] = 0
        bad = workspace["dir"] / "bad_key.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["overlap", "--keys", str(good), str(bad)]) == 1
        err = self._one_error_line(capsys)
        assert err.startswith(f"error: {bad}: ") and "k must be >= 1" in err

    def test_specials_non_string_is_1(self, workspace, capsys):
        specials = workspace["dir"] / "specials_bad.json"
        specials.write_text("[5]\n")
        src = workspace["dir"] / "plain.txt"
        src.write_bytes(b"the")
        argv = [
            "encode",
            "--vocab", workspace["vocab_path"],
            "--specials", str(specials),
            "--key", str(workspace["dir"] / "key.json"),
            str(src), str(workspace["dir"] / "alien.txt"),
        ]
        assert run(argv) == 1
        assert "specials" in self._one_error_line(capsys)

    @pytest.mark.parametrize(
        "flag, value",
        [("--timeout", "-1"), ("--timeout", "nan"), ("--concurrency", "0"), ("--token", "\u4e00")],
    )
    def test_probe_bad_endpoint_setting_is_1(self, workspace, capsys, monkeypatch, flag, value):
        posts = []
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **kw: posts.append(a))
        eval_path = workspace["dir"] / "eval.jsonl"
        eval_path.write_text('{"alien": "x", "reference": "y"}\n')
        argv = [
            "attack", "probe",
            "--endpoint", "http://127.0.0.1:9",
            "--eval", str(eval_path),
            flag, value,
        ]
        assert run(argv) == 1
        assert flag[2:] in self._one_error_line(capsys)
        assert posts == []

    def test_probe_endpoint_no_request_can_reach_is_1(self, workspace, capsys, monkeypatch):
        posts = []
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **kw: posts.append(a))
        eval_path = workspace["dir"] / "eval.jsonl"
        eval_path.write_text('{"alien": "x", "reference": "y"}\n')
        assert run(["attack", "probe", "--endpoint", "nope", "--eval", str(eval_path)]) == 1
        assert self._one_error_line(capsys).startswith("error: base_url must be")
        assert posts == []

    def test_probe_without_endpoint_is_1(self, workspace, capsys, monkeypatch):
        posts = []
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **kw: posts.append(a))
        monkeypatch.delenv("ALIEN_ENDPOINT", raising=False)
        eval_path = workspace["dir"] / "eval.jsonl"
        eval_path.write_text('{"alien": "x", "reference": "y"}\n')
        assert run(["attack", "probe", "--eval", str(eval_path)]) == 1
        assert self._one_error_line(capsys) == (
            "error: no endpoint: pass --endpoint or set ALIEN_ENDPOINT\n"
        )
        assert posts == []

    def test_attack_ngram_unknown_id_is_1(self, workspace, capsys):
        out = workspace["dir"] / "key.json"
        build_key_cli(workspace, out)
        leaked = workspace["dir"] / "leaked.jsonl"
        leaked.write_text('{"plain": [1, 2], "alien": [1, 2]}\n')
        eval_path = workspace["dir"] / "eval.jsonl"
        eval_path.write_text('{"plain": [3], "alien": [3]}\n{"plain": [123456], "alien": [3]}\n')
        capsys.readouterr()
        argv = [
            "attack", "ngram",
            "--vocab", workspace["vocab_path"],
            "--specials", workspace["specials_path"],
            "--key", str(out),
            "--leaked", str(leaked),
            "--eval", str(eval_path),
        ]
        assert run(argv) == 1
        err = self._one_error_line(capsys)
        assert str(eval_path) in err and "line 2" in err and "known token ids" in err

    def test_probe_non_utf8_template_is_1(self, workspace, capsys):
        eval_path = workspace["dir"] / "eval.jsonl"
        eval_path.write_text('{"alien": "x", "reference": "y"}\n')
        template = workspace["dir"] / "template.txt"
        template.write_bytes(b"\xff")
        argv = [
            "attack", "probe",
            "--endpoint", "http://127.0.0.1:9",
            "--eval", str(eval_path),
            "--template", str(template),
        ]
        assert run(argv) == 1
        err = self._one_error_line(capsys)
        assert str(template) in err and "UTF-8" in err

    def test_probe_template_with_other_field_is_1(self, workspace, capsys, monkeypatch):
        posts = []
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **kw: posts.append(a))
        eval_path = workspace["dir"] / "eval.jsonl"
        eval_path.write_text('{"alien": "x", "reference": "y"}\n')
        template = workspace["dir"] / "template.txt"
        template.write_text("{alien} in {lang}")
        argv = [
            "attack", "probe",
            "--endpoint", "http://127.0.0.1:9",
            "--eval", str(eval_path),
            "--template", str(template),
        ]
        assert run(argv) == 1
        assert self._one_error_line(capsys).startswith("error: prompt template must")
        assert posts == []

    def test_every_subcommand_has_help(self, capsys):
        for argv in (
            ["build-key", "--help"],
            ["encode", "--help"],
            ["decode", "--help"],
            ["emit-dataset", "--help"],
            ["attack", "freq", "--help"],
            ["attack", "ngram", "--help"],
            ["attack", "nn", "--help"],
            ["attack", "probe", "--help"],
            ["overlap", "--help"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                run(argv)
            assert exc_info.value.code == 0
            assert "--" in capsys.readouterr().out
