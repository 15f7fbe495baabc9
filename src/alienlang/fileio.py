"""Atomic file output: a file is either written whole or left as it was."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


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
