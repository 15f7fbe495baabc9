import hashlib

import numpy as np
import pytest

from alienlang import (
    ArgumentError,
    AttackReport,
    BuildConfig,
    CompatibilityError,
    FormatError,
    OpacityReport,
    OverlapMatrix,
    build_key,
    emit_summary,
    opacity_report,
    overlap_matrix,
    read_summary,
    recovery_ratio,
)
from alienlang.report import matrix_to_csv
from helpers import identity_key, random_vocab, unit_store


class TestRecoveryRatio:
    def test_published_first_row(self):
        assert recovery_ratio(52.92, 64.77) == pytest.approx(81.70, abs=0.01)

    def test_published_second_row(self):
        assert recovery_ratio(57.33, 65.60) == pytest.approx(87.40, abs=0.01)

    def test_equal_scores_100(self):
        assert recovery_ratio(3.5, 3.5) == pytest.approx(100.0)

    def test_scale_invariance(self):
        assert recovery_ratio(2.0, 5.0) == pytest.approx(recovery_ratio(2.0 * 7, 5.0 * 7))

    def test_nonpositive_oracle_rejected(self):
        with pytest.raises(ArgumentError):
            recovery_ratio(1.0, 0.0)


def build_keys(n_keys, vocab_seed=0, buckets=8):
    rng = np.random.default_rng(vocab_seed)
    vocab = random_vocab(rng, 150)
    store = unit_store(rng, 150, 8)
    return vocab, [
        build_key(vocab, store, BuildConfig(k=5, seed=s, buckets=buckets)) for s in range(n_keys)
    ]


class TestOverlapMatrix:
    def test_single_key(self):
        _, keys = build_keys(1)
        matrix = overlap_matrix(keys)
        assert matrix.values == ((100.0,),)

    def test_duplicate_keys_full_overlap(self):
        _, keys = build_keys(1)
        matrix = overlap_matrix([keys[0], keys[0]])
        assert matrix.values[0][1] == 100.0

    def test_symmetric_with_exact_diagonal(self):
        _, keys = build_keys(4)
        matrix = overlap_matrix(keys)
        arr = np.array(matrix.values)
        assert np.array_equal(arr, arr.T)
        assert all(arr[i, i] == 100.0 for i in range(4))

    def test_permutation_invariance_up_to_relabeling(self):
        _, keys = build_keys(3)
        m1 = overlap_matrix(keys)
        m2 = overlap_matrix([keys[2], keys[0], keys[1]])
        # entry for (seed a, seed b) must be identical in both
        idx1 = {s: i for i, s in enumerate(m1.seeds)}
        idx2 = {s: i for i, s in enumerate(m2.seeds)}
        for a in m1.seeds:
            for b in m1.seeds:
                assert m1.values[idx1[a]][idx1[b]] == m2.values[idx2[a]][idx2[b]]

    def test_fingerprint_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        va = random_vocab(rng, 20)
        vb = random_vocab(rng, 20)
        with pytest.raises(CompatibilityError):
            overlap_matrix([identity_key(va), identity_key(vb)])

    def test_validation_rejects_bad_diagonal(self):
        with pytest.raises(ArgumentError):
            OverlapMatrix(seeds=(1,), values=((99.0,),))

    @pytest.mark.parametrize(
        "seeds, values, message",
        [
            ((1, 2), ((100.0, 5.0),), "square"),
            ((1, 2), ((100.0, 5.0), (5.0,)), "square"),
            ((1, 2), ((100.0, 101.0), (101.0, 100.0)), r"\[0, 100\]"),
            ((1, 2), ((100.0, -1.0), (-1.0, 100.0)), r"\[0, 100\]"),
            ((1, 2), ((100.0, 5.0), (6.0, 100.0)), "symmetric"),
        ],
        ids=["too-few-rows", "short-row", "above-100", "negative", "asymmetric"],
    )
    def test_validation_rejects_malformed_matrix(self, seeds, values, message):
        with pytest.raises(ArgumentError, match=message):
            OverlapMatrix(seeds=seeds, values=values)

    def test_no_keys_rejected(self):
        with pytest.raises(ArgumentError, match="^need at least one key$"):
            overlap_matrix([])


class TestEmitSummary:
    def test_write_read_identity(self, tmp_path):
        _, keys = build_keys(2)
        matrix = overlap_matrix(keys)
        rep = AttackReport(attack_name="frequency", parameters={"top_m": 5}, token_recovery=0.25)
        path = tmp_path / "summary.json"
        emit_summary([rep, matrix], path)
        doc = read_summary(path)
        assert doc["schema_version"] == 1
        assert doc["reports"][0]["attack_name"] == "frequency"
        assert doc["reports"][1]["type"] == "overlap_matrix"

    def test_unknown_report_type_rejected(self, tmp_path):
        with pytest.raises(ArgumentError, match="^cannot serialize report of type object$"):
            emit_summary([object()], tmp_path / "summary.json")

    def test_empty_report_list(self, tmp_path):
        path = tmp_path / "summary.json"
        emit_summary([], path)
        assert read_summary(path)["reports"] == []

    def test_matrix_survives_round_trip_bit_exactly(self, tmp_path):
        _, keys = build_keys(3)
        matrix = overlap_matrix(keys)
        path = tmp_path / "summary.json"
        emit_summary([matrix], path)
        values = read_summary(path)["reports"][0]["values"]
        arr = np.array(values)
        assert np.array_equal(arr, arr.T)
        assert arr.tolist() == [list(r) for r in matrix.values]

    def test_opacity_report_serializes(self, tmp_path):
        rng = np.random.default_rng(2)
        vocab = random_vocab(rng, 30)
        store = unit_store(rng, 30, 6)
        key = build_key(vocab, store, BuildConfig(k=3, seed=0))
        path = tmp_path / "summary.json"
        emit_summary([opacity_report(key, vocab)], path)
        doc = read_summary(path)
        assert doc["reports"][0]["type"] == "opacity"

    def test_csv_view(self, tmp_path):
        _, keys = build_keys(3)
        matrix = overlap_matrix(keys)
        path = tmp_path / "matrix.csv"
        matrix_to_csv(matrix, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "seed,0,1,2"
        cells = [line.split(",") for line in lines[1:]]
        arr = np.array([[float(v) for v in row[1:]] for row in cells])
        assert np.array_equal(arr, np.array(matrix.values))

    def test_byte_idempotent(self, tmp_path):
        _, keys = build_keys(2)
        matrix = overlap_matrix(keys)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_summary([matrix], p1)
        emit_summary([matrix], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_pinned_for_every_report_type(self, tmp_path):
        # SHA-256 of the bytes written before reports were serialized with asdict
        reports = [
            AttackReport(
                attack_name="ngram",
                parameters={"n": 3, "pair_budget": 10},
                token_recovery=0.5,
                evaluated_count=4,
                details={"known_tokens": 2, "guessed_tokens": 2},
            ),
            OverlapMatrix(seeds=(0, 7), values=((100.0, 12.5), (12.5, 100.0))),
            OpacityReport(3, 1, 0.75, None, 0.0, empty_mapping=False),
            {"note": "raw", "value": [1, 2]},
        ]
        path = tmp_path / "summary.json"
        emit_summary(reports, path)
        assert [r["type"] for r in read_summary(path)["reports"]] == [
            "attack", "overlap_matrix", "opacity", "raw",
        ]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cf6584d123b178c9057614fb7b11f4270afd837b33d9615579f837dee8113220"
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"[]",  # a JSON array, not an object
            b'{"schema_version": 1, "reports": []}\xff',  # not UTF-8
            b"[" * 100_000,  # nesting deeper than the JSON parser recurses
            b"9" * 5000,  # an integer past the int-parsing digit limit
            b'{"schema_version": 2, "reports": []}',
            b'{"schema_version": true, "reports": []}',  # a bool equals 1 but is no version
            b'{"schema_version": 1.0, "reports": []}',
            b'{"schema_version": 1, "reports": 5}',
            b'{"schema_version": 1, "reports": [5]}',
            b'{"schema_version": 1}',
        ],
        ids=[
            "array", "not-utf8", "deep", "huge-int", "schema-2", "schema-true", "schema-float",
            "reports-not-list", "report-not-object", "no-reports",
        ],
    )
    def test_malformed_summary_rejected(self, tmp_path, data):
        path = tmp_path / "summary.json"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            read_summary(path)
