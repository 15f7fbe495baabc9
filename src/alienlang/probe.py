"""Few-shot inverse-translation probe against a generic chat endpoint.

Speaks the minimal chat-completion shape (request: model + messages; response:
first choice message content) so any compatible endpoint or local stub works.
Requests go out through the standard library's ``urllib.request``, so HTTPS is
verified against the system's CA store and no package beyond numpy is
needed.  Optional by design: everything is testable offline against a stub
server.
"""

from __future__ import annotations

import http.client
import json
import math
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence
from urllib.error import HTTPError
from urllib.parse import urlsplit

from .attacks import AttackReport, bleu, rouge_l
from .bijection import _check_field_types
from .errors import ArgumentError, FormatError, ProtocolError, TransportError
from .fileio import atomic_write, parse_json
from .vocab import check_count

DEFAULT_PROMPT = (
    "The following text is written in a substitution-encoded language. "
    "Translate it back to plain English.\n\n{alien}"
)
SHOT_BUDGETS = (0, 1, 5, 20)
# A request that fails in transport or with a 5xx status is sent up to
# MAX_ATTEMPTS times, waiting BACKOFF seconds before the first retry and twice
# as long before each later one.  Any other answer is final.
MAX_ATTEMPTS = 3
BACKOFF = 0.5


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    auth_token: str = ""
    model: str = "default"
    timeout: float = 30.0
    concurrency: int = 4

    def __post_init__(self):
        _check_field_types(self)  # types before ranges
        if not _reachable(self.base_url):
            raise ArgumentError(
                "base_url must be an http or https URL with a host and a valid port,"
                f" in printable ASCII without spaces, not {self.base_url!r}"
            )
        if not _printable(self.auth_token):  # http.client refuses it in a header
            raise ArgumentError("auth_token must be printable ASCII without spaces")
        if not 0 < self.timeout < math.inf:
            raise ArgumentError("timeout must be a finite number of seconds > 0")
        if self.concurrency < 1:
            raise ArgumentError("concurrency must be >= 1")


def _printable(text: str) -> bool:
    """Whether ``text`` is printable ASCII without spaces."""
    return text.isascii() and text.isprintable() and " " not in text


def _reachable(url: str) -> bool:
    """Whether a request can be sent to ``url``: an http(s) URL with a host and a valid port.

    urllib would send a non-ASCII path as ASCII and fail with a bare
    UnicodeEncodeError, and it strips tabs and newlines before parsing, so
    only printable ASCII without spaces is accepted.
    """
    if not _printable(url):
        return False
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError unless the port is a number in 0..65535
    except ValueError:  # also an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _send(request: urllib.request.Request, timeout: float) -> tuple[int, bytes]:
    """The status and body of the answer to ``request``; an HTTP error status is an answer too."""
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except HTTPError as e:
        with e:
            return e.code, e.read()


def _chat(config: EndpointConfig, messages: list[dict]) -> str:
    url = config.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if config.auth_token:
        headers["Authorization"] = f"Bearer {config.auth_token}"
    body = json.dumps({"model": config.model, "messages": messages}).encode("utf-8")
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF * 2 ** (attempt - 1))
        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        # timeouts, refusals and resets are OSErrors; a truncated answer is an HTTPException
        try:
            status, answer = _send(request, config.timeout)
        except (OSError, http.client.HTTPException) as e:
            last_error = e
            continue
        if status < 500:
            break
        last_error = TransportError(f"server error {status}")
    else:
        raise TransportError(f"endpoint unreachable after {MAX_ATTEMPTS} attempts: {last_error}")
    if status != 200:
        excerpt = answer[:200].decode("utf-8", "replace")
        raise TransportError(f"endpoint returned {status}: {excerpt}")
    try:
        content = parse_json(answer, "body", dict)["choices"][0]["message"]["content"]
    except (FormatError, KeyError, IndexError, TypeError) as e:
        raise ProtocolError(f"malformed chat response: {e}") from e
    if not isinstance(content, str):
        raise ProtocolError("chat response content is not a string")
    return content


def _build_messages(
    prompt_template: str, shot_pairs: Sequence[tuple[str, str]], alien_text: str
) -> list[dict]:
    messages = []
    for shot_alien, shot_plain in shot_pairs:
        messages.append({"role": "user", "content": prompt_template.format(alien=shot_alien)})
        messages.append({"role": "assistant", "content": shot_plain})
    messages.append({"role": "user", "content": prompt_template.format(alien=alien_text)})
    return messages


def llm_inverse_probe(
    endpoint: EndpointConfig,
    shots: int,
    eval_set: Sequence[tuple[str, str]],
    prompt_template: str = DEFAULT_PROMPT,
    transcript_path: str | Path | None = None,
) -> AttackReport:
    """Prompt an endpoint to invert alien text; score with BLEU and ROUGE-L.

    ``eval_set`` holds (alien_text, reference_plaintext) pairs.  The first
    ``shots`` pairs become the examples and are removed from evaluation.  The
    transcript (JSONL) records every exchange for audit.
    """
    check_count("shots", shots, 0)
    if "{alien}" not in prompt_template:
        raise ArgumentError("prompt template must contain an {alien} placeholder")
    try:
        prompt_template.format(alien="")
    except (KeyError, IndexError, ValueError, AttributeError) as e:
        raise ArgumentError(f"prompt template must hold no field but {{alien}}: {e!r}") from None
    items = list(eval_set)
    if not items:
        raise ArgumentError("the evaluation set is empty")
    if shots >= len(items):
        raise ArgumentError(
            f"{shots} shot example(s) leave none of the {len(items)} evaluation pairs to score"
        )
    shot_pairs, items = items[:shots], items[shots:]

    def run(item: tuple[str, str]) -> str:
        alien_text, _ = item
        return _chat(endpoint, _build_messages(prompt_template, shot_pairs, alien_text))

    with ThreadPoolExecutor(max_workers=endpoint.concurrency) as pool:
        guesses = list(pool.map(run, items))

    references = [ref for _, ref in items]
    corpus_bleu = bleu(guesses, references)
    corpus_rouge = rouge_l(guesses, references)

    if transcript_path is not None:
        with atomic_write(transcript_path, encoding="utf-8") as fp:
            for (alien_text, ref), guess in zip(items, guesses):
                fp.write(
                    json.dumps(
                        {
                            "shots": shots,
                            "alien": alien_text,
                            "guess": guess,
                            "reference": ref,
                            "bleu_sentence": bleu([guess], [ref]),
                        },
                        ensure_ascii=True,
                    )
                    + "\n"
                )

    return AttackReport(
        attack_name="llm_inverse_probe",
        parameters={"shots": shots, "model": endpoint.model},
        bleu=corpus_bleu,
        rouge_l=corpus_rouge,
        evaluated_count=len(items),
    )
