"""Probe tests against local stub chat endpoints (no real network)."""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import alienlang.fileio as fileio
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
        if mode == "malformed":
            payload = b'{"nonsense": true}'
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

    def test_retries_through_transient_500s(self, stub_server):
        stub_server.mode = "flaky"
        config = endpoint_for(stub_server, backoff=0.01, concurrency=1)
        report = llm_inverse_probe(config, shots=0, eval_set=EVAL_SET[:1] + EVAL_SET[1:2])
        assert report.evaluated_count == 2
        assert len(stub_server.requests) >= 4  # two failures plus retries

    def test_transport_error_after_exhausted_retries(self):
        config = EndpointConfig(
            base_url="http://127.0.0.1:9", timeout=0.2, backoff=0.01, max_attempts=2
        )
        with pytest.raises(TransportError):
            llm_inverse_probe(config, shots=0, eval_set=EVAL_SET[:1])

    def test_malformed_response_is_protocol_error(self, stub_server):
        stub_server.mode = "malformed"
        with pytest.raises(ProtocolError):
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

    def test_bad_template_rejected(self, stub_server):
        with pytest.raises(ArgumentError):
            llm_inverse_probe(
                endpoint_for(stub_server), shots=0, eval_set=EVAL_SET, prompt_template="no slot"
            )

    def test_too_many_shots_rejected(self, stub_server):
        with pytest.raises(ArgumentError):
            llm_inverse_probe(endpoint_for(stub_server), shots=20, eval_set=EVAL_SET)


class TestEndpointConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("timeout", math.nan),
            ("timeout", math.inf),
            ("backoff", -0.1),
            ("backoff", math.nan),
            ("backoff", math.inf),
            ("max_attempts", 0),
            ("concurrency", 0),
            ("concurrency", -2),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ArgumentError, match=f"^{field} must be"):
            EndpointConfig(base_url="http://127.0.0.1:9", **{field: value})
