"""Atomic file output, and the one reader of JSON documents."""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import FormatError


def parse_json(
    data: bytes | str, what: str, kind: type, encoding: str = "utf-8", errors: str = "strict",
    object_pairs_hook=None,
):
    """Parse one JSON document of type ``kind``, dict or list, from text or from
    bytes decoded as ``encoding`` with ``errors``; undecodable bytes, invalid
    JSON and another type raise :class:`FormatError` whose message starts with ``what``.
    """
    try:
        text = data.decode(encoding, errors) if isinstance(data, bytes) else data
        doc = json.loads(text, object_pairs_hook=object_pairs_hook)
    except (ValueError, RecursionError) as e:  # bad bytes or JSON, deep nesting, huge ints
        raise FormatError(f"{what} is not valid JSON: {e}") from e
    if not isinstance(doc, kind):
        json_type = "object" if kind is dict else "array"
        raise FormatError(f"{what} must hold a JSON {json_type}, not {type(doc).__name__}")
    return doc


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_args) -> Iterator[IO]:
    """Open a temp file beside ``path`` that replaces it when the block exits.

    ``mode`` and ``open_args`` are as for :func:`open`.  If the block raises,
    the temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    # a plain exclusive open, unlike mkstemp, gives the umask's permissions
    fp = open(tmp, mode.replace("w", "x"), **open_args)
    try:
        with fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
