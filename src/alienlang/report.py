"""Aggregate diagnostics: recovery ratio, overlap matrices, summary files."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .attacks import AttackReport
from .bijection import BijectionKey, OpacityReport, key_overlap
from .errors import ArgumentError, CompatibilityError, FormatError
from .fileio import atomic_write

SUMMARY_SCHEMA_VERSION = 1


def recovery_ratio(method_avg: float, oracle_avg: float) -> float:
    """100 * method / oracle; the headline utility-retention percentage."""
    if oracle_avg <= 0:
        raise ArgumentError("oracle average must be positive")
    return 100.0 * method_avg / oracle_avg


@dataclass(frozen=True)
class OverlapMatrix:
    """Symmetric matrix of pairwise key-overlap percentages."""

    seeds: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.seeds)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ArgumentError("overlap matrix must be square over the seed list")
        for i in range(n):
            if self.values[i][i] != 100.0:
                raise ArgumentError("overlap matrix diagonal must be exactly 100")
            for j in range(n):
                v = self.values[i][j]
                if not 0.0 <= v <= 100.0:
                    raise ArgumentError("overlap values must lie in [0, 100]")
                if v != self.values[j][i]:
                    raise ArgumentError("overlap matrix must be symmetric")


def overlap_matrix(keys: Sequence[BijectionKey]) -> OverlapMatrix:
    """Pairwise overlap percentages across keys sharing one vocabulary."""
    if not keys:
        raise ArgumentError("need at least one key")
    fingerprint = keys[0].vocab_fingerprint
    if any(k.vocab_fingerprint != fingerprint for k in keys):
        raise CompatibilityError("keys belong to different vocabularies")
    n = len(keys)
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        values[i][i] = 100.0
        for j in range(i + 1, n):
            v = key_overlap(keys[i], keys[j])
            values[i][j] = v
            values[j][i] = v
    return OverlapMatrix(
        seeds=tuple(k.config.seed for k in keys),
        values=tuple(tuple(row) for row in values),
    )


def matrix_to_csv(matrix: OverlapMatrix, path: str | Path) -> None:
    """CSV view: header row of seeds, one row per seed."""
    with atomic_write(path, encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["seed", *matrix.seeds])
        for seed, row in zip(matrix.seeds, matrix.values):
            writer.writerow([seed, *(repr(v) for v in row)])


# each report type's tag in a summary file
_REPORT_TAGS = (
    (AttackReport, "attack"),
    (OverlapMatrix, "overlap_matrix"),
    (OpacityReport, "opacity"),
)


def _serialize_report(item) -> dict:
    """A report's fields under its type tag; a plain dict is tagged ``raw``."""
    if isinstance(item, dict):
        return {"type": "raw", **item}
    for cls, tag in _REPORT_TAGS:
        if isinstance(item, cls):
            return {"type": tag, **asdict(item)}
    raise ArgumentError(f"cannot serialize report of type {type(item).__name__}")


def emit_summary(reports: Sequence, path: str | Path) -> None:
    """Write one versioned JSON document holding all reports."""
    doc = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "reports": [_serialize_report(r) for r in reports],
    }
    with atomic_write(path, encoding="utf-8") as fp:
        fp.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_summary(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError, huge ints
        raise FormatError(f"summary file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"summary file must hold a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if type(version) is not int or version != SUMMARY_SCHEMA_VERSION:  # true and 1.0 equal 1
        raise FormatError(f"unsupported summary schema {version!r}")
    reports = doc.get("reports")
    if not (isinstance(reports, list) and all(isinstance(r, dict) for r in reports)):
        raise FormatError('summary file "reports" must be an array of objects')
    return doc
