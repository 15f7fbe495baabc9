"""Probe tests against local stub chat endpoints (no real network)."""

import json
import math
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import alienlang
import alienlang.fileio as fileio
import alienlang.probe as probe
from alienlang import ArgumentError, EndpointConfig, TransportError, llm_inverse_probe
from alienlang.errors import ProtocolError
from helpers import half_write_open


class StubHandler(BaseHTTPRequestHandler):
    """Chat-completion stub; behavior switched by the server's `mode`."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        server = self.server
        server.requests.append(
            {
                "path": self.path,
                "auth": self.headers.get("Authorization"),
                "body": json.loads(self.rfile.read(int(self.headers["Content-Length"]))),
            }
        )
        mode = server.mode
        if mode == "flaky" and len(server.requests) <= 2:
            self.send_response(500)
            self.end_headers()
            return
        if mode == "denied":
            self.send_response(401)
            self.send_header("Content-Length", "6")
            self.end_headers()
            self.wfile.write(b"denied")
            return
        if mode in ("truncated", "truncated-500"):
            # the connection closes 10 bytes short of the announced body
            self.send_response(200 if mode == "truncated" else 500)
            self.send_header("Content-Length", "20")
            self.end_headers()
            self.wfile.write(b'{"choices": ')
            return
        malformed = {
            "malformed": b'{"nonsense": true}',
            "number-content": b'{"choices": [{"message": {"role": "assistant", "content": 5}}]}',
        }
        if mode in malformed:
            payload = malformed[mode]
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        last_user = server.requests[-1]["body"]["messages"][-1]["content"]
        alien = last_user.rsplit("\n\n", 1)[-1]
        if mode == "echo":
            content = alien
        else:  # oracle: the stub holds the true inverses
            content = server.oracle.get(alien, "???")
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": content}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.mode = "echo"
    server.oracle = {}
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def endpoint_for(server, **kwargs) -> EndpointConfig:
    host, port = server.server_address
    defaults = dict(base_url=f"http://{host}:{port}/v1", auth_token="sekrit", timeout=5.0)
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


EVAL_SET = [
    ("zk qqf lmm", "the cat sat"),
    ("bb ww nn pp", "a dog barked loudly"),
    ("rr tt", "hello there"),
    ("uu vv xx", "see you soon"),
]


class TestProbe:
    def test_echo_stub_scores_near_zero(self, stub_server, tmp_path):
        stub_server.mode = "echo"
        report = llm_inverse_probe(
            endpoint_for(stub_server), shots=0, eval_set=EVAL_SET,
            transcript_path=tmp_path / "t.jsonl",
        )
        assert report.bleu < 5.0
        assert report.evaluated_count == 4

    def test_oracle_stub_scores_100(self, stub_server):
        stub_server.mode = "oracle"
        stub_server.oracle = dict(EVAL_SET)
        report = llm_inverse_probe(endpoint_for(stub_server), shots=0, eval_set=EVAL_SET)
        assert report.bleu == pytest.approx(100.0)
        assert report.rouge_l == pytest.approx(1.0)

    def test_shots_carved_from_eval_head(self, stub_server):
        stub_server.mode = "oracle"
        stub_server.oracle = dict(EVAL_SET)
        report = llm_inverse_probe(endpoint_for(stub_server), shots=1, eval_set=EVAL_SET)
        assert report.evaluated_count == 3
        body = stub_server.requests[-1]["body"]
        # one example pair (user + assistant) precedes the query
        assert len(body["messages"]) == 3
        assert body["messages"][1]["content"] == EVAL_SET[0][1]

    def test_auth_header_sent(self, stub_server):
        stub_server.mode = "echo"
        llm_inverse_probe(endpoint_for(stub_server), shots=0, eval_set=EVAL_SET[:2])
        assert all(r["auth"] == "Bearer sekrit" for r in stub_server.requests)

    def test_retries_through_transient_500s(self, stub_server, monkeypatch):
        stub_server.mode = "flaky"
        monkeypatch.setattr(probe, "BACKOFF", 0.01)
        config = endpoint_for(stub_server, concurrency=1)
        report = llm_inverse_probe(config, shots=0, eval_set=EVAL_SET[:1] + EVAL_SET[1:2])
        assert report.evaluated_count == 2
        assert len(stub_server.requests) >= 4  # two failures plus retries

    def test_transport_error_after_exhausted_retries(self, monkeypatch):
        monkeypatch.setattr(probe, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(probe, "BACKOFF", 0.01)
        config = EndpointConfig(base_url="http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(TransportError, match="after 2 attempts"):
            llm_inverse_probe(config, shots=0, eval_set=EVAL_SET[:1])

    def test_4xx_is_sent_once(self, stub_server, monkeypatch):
        stub_server.mode = "denied"
        monkeypatch.setattr(probe, "BACKOFF", 0.01)
        with pytest.raises(TransportError, match="^endpoint returned 401: denied$"):
            llm_inverse_probe(endpoint_for(stub_server), 0, EVAL_SET[:1])
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("mode", ["truncated", "truncated-500"])
    def test_truncated_answer_is_retried_then_transport_error(
        self, stub_server, monkeypatch, mode
    ):
        stub_server.mode = mode
        monkeypatch.setattr(probe, "BACKOFF", 0.01)
        with pytest.raises(TransportError, match="IncompleteRead"):
            llm_inverse_probe(endpoint_for(stub_server), 0, EVAL_SET[:1])
        assert len(stub_server.requests) == probe.MAX_ATTEMPTS

    def test_malformed_response_is_protocol_error(self, stub_server):
        stub_server.mode = "malformed"
        with pytest.raises(ProtocolError):
            llm_inverse_probe(endpoint_for(stub_server), shots=0, eval_set=EVAL_SET[:1])

    def test_content_that_is_not_a_string_is_protocol_error(self, stub_server):
        stub_server.mode = "number-content"
        with pytest.raises(ProtocolError, match="^chat response content is not a string$"):
            llm_inverse_probe(endpoint_for(stub_server), shots=0, eval_set=EVAL_SET[:1])

    def test_transcript_contents(self, stub_server, tmp_path):
        stub_server.mode = "oracle"
        stub_server.oracle = dict(EVAL_SET)
        path = tmp_path / "transcript.jsonl"
        llm_inverse_probe(endpoint_for(stub_server), shots=0, eval_set=EVAL_SET, transcript_path=path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 4
        assert set(lines[0]) == {"shots", "alien", "guess", "reference", "bleu_sentence"}
        assert lines[0]["guess"] == lines[0]["reference"]

    def test_transcript_failing_midway_leaves_previous_file(
        self, stub_server, tmp_path, monkeypatch
    ):
        stub_server.mode = "echo"
        path = tmp_path / "transcript.jsonl"
        path.write_bytes(b"previous transcript\n")
        monkeypatch.setattr(fileio, "open", half_write_open, raising=False)
        with pytest.raises(OSError):
            llm_inverse_probe(
                endpoint_for(stub_server), shots=0, eval_set=EVAL_SET, transcript_path=path
            )
        assert path.read_bytes() == b"previous transcript\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind

    @pytest.mark.parametrize(
        "template",
        ["no slot", "{alien} {lang}", "{alien} {0}", "{alien} {", "{alien} }"],
        ids=["no-slot", "named-field", "positional-field", "lone-open-brace", "lone-close-brace"],
    )
    def test_bad_template_rejected(self, stub_server, template):
        with pytest.raises(ArgumentError, match="^prompt template must"):
            llm_inverse_probe(
                endpoint_for(stub_server), shots=0, eval_set=EVAL_SET, prompt_template=template
            )
        assert stub_server.requests == []

    def test_template_brace_escapes_are_literal(self, stub_server):
        llm_inverse_probe(
            endpoint_for(stub_server), 0, EVAL_SET[:1], prompt_template="{{lang}}\n\n{alien}"
        )
        content = stub_server.requests[0]["body"]["messages"][0]["content"]
        assert content == "{lang}\n\nzk qqf lmm"

    def test_too_many_shots_rejected(self, stub_server):
        with pytest.raises(ArgumentError):
            llm_inverse_probe(endpoint_for(stub_server), shots=20, eval_set=EVAL_SET)

    def test_empty_eval_set_rejected_before_any_request(self, monkeypatch):
        posts = []
        monkeypatch.setattr(probe.urllib.request, "urlopen", lambda *a, **kw: posts.append(a))
        with pytest.raises(ArgumentError, match="evaluation set is empty"):
            llm_inverse_probe(EndpointConfig("http://127.0.0.1:9"), 0, [])
        with pytest.raises(ArgumentError, match="1 shot example.* of the 1 evaluation pairs"):
            llm_inverse_probe(EndpointConfig("http://127.0.0.1:9"), 1, EVAL_SET[:1])
        assert posts == []

    def test_runs_without_requests(self, stub_server):
        # a None entry in sys.modules makes `import requests` raise ImportError
        host, port = stub_server.server_address
        code = (
            "import sys\n"
            "sys.modules['requests'] = None\n"
            "from alienlang import EndpointConfig, llm_inverse_probe\n"
            f"config = EndpointConfig('http://{host}:{port}/v1', timeout=5.0)\n"
            "print(llm_inverse_probe(config, 0, [('zk qqf', 'the cat')]).evaluated_count)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(alienlang.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1\n"
        assert len(stub_server.requests) == 1


def test_package_import_leaves_http_stack_unloaded():
    code = (
        "import sys, alienlang\n"
        "print(sorted(m for m in ('ssl', 'http.client', 'urllib.request') if m in sys.modules))\n"
        "alienlang.EndpointConfig\n"
        "print('ssl' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(alienlang.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nTrue\n"


class TestEndpointConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("timeout", math.nan),
            ("timeout", math.inf),
            ("concurrency", 0),
            ("concurrency", -2),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ArgumentError, match=f"^{field} must be"):
            EndpointConfig(base_url="http://127.0.0.1:9", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_url", None),
            ("base_url", b"http://127.0.0.1:9"),
            ("auth_token", None),
            ("model", 7),
            ("timeout", None),
            ("timeout", "5"),
            ("timeout", True),
            ("concurrency", 2.5),
            ("concurrency", True),
            ("concurrency", "4"),
        ],
    )
    def test_wrong_type_rejected(self, field, value):
        kwargs = {"base_url": "http://127.0.0.1:9", field: value}
        with pytest.raises(ArgumentError, match=f"^{field} must be (str|float|int), not "):
            EndpointConfig(**kwargs)

    @pytest.mark.parametrize(
        "url",
        [
            "nope",
            "http://[::1",
            "ftp://127.0.0.1:9",
            "http://127.0.0.1:99999",
            "http://127.0.0.1:port",
            "http://",
            "http://:80/v1",
            "http://exa mple.com",
            "http://127.0.0.1:9/v1\n",
            "http://127.0.0.1:9/\tv1",
            "http://127.0.0.1:9/v\x7f1",
            "http://127.0.0.1:9/v\u00e9",
            "",
        ],
    )
    def test_unreachable_base_url_rejected(self, url):
        with pytest.raises(ArgumentError, match="^base_url"):
            EndpointConfig(base_url=url)

    @pytest.mark.parametrize(
        "url",
        ["http://127.0.0.1:9", "https://example.com/v1/", "HTTP://[::1]:8000/v1", "http://h:/v1"],
    )
    def test_http_url_with_host_accepted(self, url):
        assert EndpointConfig(base_url=url).base_url == url

    @pytest.mark.parametrize("field", ["timeout", "concurrency"])
    def test_int_past_float_range_rejected(self, field):
        # 10**400 passes a comparison with inf, then overflows where a float is needed,
        # such as a socket timeout
        kwargs = {"base_url": "http://127.0.0.1:9", field: 10**400}
        with pytest.raises(ArgumentError, match=f"^{field} is too large"):
            EndpointConfig(**kwargs)

    @pytest.mark.parametrize("token", ["\u4e00", "abc\r\nX-Evil: 1", "two words", "tab\t", "\x7f"])
    def test_unsendable_auth_token_rejected(self, token):
        with pytest.raises(ArgumentError, match="^auth_token must be printable ASCII"):
            EndpointConfig(base_url="http://127.0.0.1:9", auth_token=token)

    def test_int_timeout_accepted(self):
        assert EndpointConfig("http://127.0.0.1:9", timeout=5).timeout == 5
