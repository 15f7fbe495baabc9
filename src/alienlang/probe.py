"""Few-shot inverse-translation probe against a generic chat endpoint.

Speaks the minimal chat-completion shape (request: model + messages; response:
first choice message content) so any compatible endpoint or local stub works.
Optional by design: everything is testable offline against a stub server.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import requests

from .attacks import AttackReport, bleu, rouge_l
from .bijection import _check_field_types
from .errors import ArgumentError, ProtocolError, TransportError
from .fileio import atomic_write

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
        if not 0 < self.timeout < math.inf:
            raise ArgumentError("timeout must be a finite number of seconds > 0")
        if self.concurrency < 1:
            raise ArgumentError("concurrency must be >= 1")


def _chat(config: EndpointConfig, messages: list[dict]) -> str:
    url = config.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if config.auth_token:
        headers["Authorization"] = f"Bearer {config.auth_token}"
    payload = {"model": config.model, "messages": messages}
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF * 2 ** (attempt - 1))
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=config.timeout)
        except requests.RequestException as e:
            last_error = e
            continue
        if resp.status_code < 500:
            break
        last_error = TransportError(f"server error {resp.status_code}")
    else:
        raise TransportError(f"endpoint unreachable after {MAX_ATTEMPTS} attempts: {last_error}")
    if resp.status_code != 200:
        raise TransportError(f"endpoint returned {resp.status_code}: {resp.text[:200]}")
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as e:
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
    if shots < 0:
        raise ArgumentError("shots must be >= 0")
    if "{alien}" not in prompt_template:
        raise ArgumentError("prompt template must contain an {alien} placeholder")
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
