"""Unit tests for the file formats: CSV matrices, bundles, JSONL traces."""

import numpy as np
import pytest

from hiddencauses import ModelParams, file_digest, read_trace, write_dataset_bundle
from hiddencauses.dataio import (
    TruncatedTraceError,
    load_observations,
    read_dataset_bundle,
    read_matrix_csv,
    read_params_json,
    write_matrix_csv,
    write_params_json,
    write_trace,
)
from hiddencauses.harness import Dataset, GroundTruth

PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=3.0)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        M = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        np.testing.assert_array_equal(read_matrix_csv(path), M)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# header\n\n1,0\n# middle\n0,1\n\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1, 0], [0, 1]])

    def test_empty_file_gives_empty_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# only a comment\n")
        assert read_matrix_csv(path).shape == (0, 0)

    def test_non_integer_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError, match="m.csv:1"):
            read_matrix_csv(path)

    def test_non_binary_entry_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,2\n")
        with pytest.raises(ValueError, match="m.csv:2"):
            read_matrix_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n1\n")
        with pytest.raises(ValueError, match="inconsistent"):
            read_matrix_csv(path)


class TestParamsJson:
    def test_round_trip_uses_lambda_key(self, tmp_path):
        path = tmp_path / "params.json"
        write_params_json(path, PARAMS)
        assert '"lambda"' in path.read_text()
        assert read_params_json(path) == PARAMS

    def test_missing_key(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"epsilon": 0.1, "p": 0.2, "alpha": 1.0}')
        with pytest.raises(ValueError, match="lambda"):
            read_params_json(path)

    def test_infinite_alpha_refused(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"epsilon": 0.1, "lambda": 0.9, "p": 0.2, "alpha": Infinity}')
        with pytest.raises(ValueError, match="alpha"):
            read_params_json(path)


class TestDatasetBundle:
    def _bundle(self):
        Z = np.array([[1, 0], [1, 1]], dtype=np.int8)
        Y = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        X = np.array([[1, 0, 1], [1, 1, 1]], dtype=np.int8)
        return Dataset(X=X, truth=GroundTruth(Z=Z, Y=Y, params=PARAMS))

    def test_round_trip_with_truth(self, tmp_path):
        data = self._bundle()
        write_dataset_bundle(tmp_path / "b", data, manifest={"note": "test"})
        back = read_dataset_bundle(tmp_path / "b")
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.truth.Z, data.truth.Z)
        np.testing.assert_array_equal(back.truth.Y, data.truth.Y)
        assert back.truth.params == PARAMS
        assert (tmp_path / "b" / "manifest.json").exists()

    def test_round_trip_without_truth(self, tmp_path):
        write_dataset_bundle(tmp_path / "b", Dataset(X=np.eye(2, dtype=np.int8)))
        back = read_dataset_bundle(tmp_path / "b")
        assert back.truth is None

    def test_missing_x(self, tmp_path):
        (tmp_path / "b").mkdir()
        with pytest.raises(FileNotFoundError):
            read_dataset_bundle(tmp_path / "b")

    def test_shape_cross_validation(self, tmp_path):
        data = self._bundle()
        write_dataset_bundle(tmp_path / "b", data)
        write_matrix_csv(tmp_path / "b" / "Y.csv", np.ones((3, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="Y shape"):
            read_dataset_bundle(tmp_path / "b")


class TestLoadObservations:
    def test_from_file(self, tmp_path):
        path = tmp_path / "X.csv"
        write_matrix_csv(path, np.eye(3, dtype=np.int8))
        np.testing.assert_array_equal(load_observations(path), np.eye(3))

    def test_from_bundle_dir(self, tmp_path):
        write_dataset_bundle(tmp_path / "b", Dataset(X=np.eye(2, dtype=np.int8)))
        np.testing.assert_array_equal(load_observations(tmp_path / "b"), np.eye(2))

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_observations(tmp_path / "nope.csv")

    def test_empty_observations_rejected(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no observation rows"):
            load_observations(path)


class TestTrace:
    RECORDS = [
        {"iteration": 0, "kplus": 0, "log_joint": -1.5},
        {"iteration": 1, "kplus": 2, "log_joint": -1.2},
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, self.RECORDS)
        assert read_trace(path) == self.RECORDS

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, self.RECORDS)
        with open(path, "a") as fh:
            fh.write('{"iteration": 2, "kpl')
        with pytest.raises(TruncatedTraceError):
            read_trace(path)

    def test_malformed_middle_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"iteration": 0}\nnot json\n{"iteration": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace(path)

    def test_truncated_error_is_value_error(self):
        assert issubclass(TruncatedTraceError, ValueError)


class TestFileDigest:
    def test_stable_and_content_sensitive(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.write_text("same content\n")
        b.write_text("same content\n")
        assert file_digest(a) == file_digest(b)
        b.write_text("different\n")
        assert file_digest(a) != file_digest(b)
