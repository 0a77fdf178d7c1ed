"""File formats: binary CSV matrices, ground-truth bundles, JSONL traces.

A matrix file holds one row per line, comma-separated 0/1 entries, no
header; lines starting with '#' and blank lines are ignored.  A bundle
directory holds X.csv plus, when ground truth is known, Z.csv, Y.csv and
params.json.  A trace is JSON-lines, one record per sampler iteration.
"""

import json
from pathlib import Path

import numpy as np

from .harness import Dataset, GroundTruth
from .model import ModelParams, as_binary_matrix


class TruncatedTraceError(ValueError):
    """The final line of a trace file is not a complete JSON record."""


def write_matrix_csv(path, M) -> None:
    np.savetxt(path, as_binary_matrix(M, "matrix"), fmt="%d", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    rows: list[list[int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [int(v) for v in line.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: entries must be integers") from None
            if any(v not in (0, 1) for v in row):
                raise ValueError(f"{path}:{lineno}: entries must be 0 or 1")
            rows.append(row)
    if not rows:
        return np.zeros((0, 0), dtype=np.int8)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent lengths")
    return np.array(rows, dtype=np.int8)


def params_record(params: ModelParams) -> dict:
    """The on-disk spelling of params, in the order the files list them."""
    return {"epsilon": params.epsilon, "lambda": params.lam, "p": params.p,
            "alpha": params.alpha}


def write_params_json(path, params: ModelParams) -> None:
    with open(path, "w") as fh:
        json.dump(params_record(params), fh, indent=2)
        fh.write("\n")


def read_params_json(path) -> ModelParams:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return ModelParams(
            epsilon=float(payload["epsilon"]),
            lam=float(payload["lambda"]),
            p=float(payload["p"]),
            alpha=float(payload["alpha"]),
        )
    except KeyError as missing:
        raise ValueError(f"{path}: missing parameter {missing}") from None


def write_dataset_bundle(out_dir, dataset: Dataset, manifest: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "X.csv", dataset.X)
    if dataset.truth is not None:
        write_matrix_csv(out / "Z.csv", dataset.truth.Z)
        write_matrix_csv(out / "Y.csv", dataset.truth.Y)
        write_params_json(out / "params.json", dataset.truth.params)
    if manifest is not None:
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_dataset_bundle(path) -> Dataset:
    bundle = Path(path)
    x_path = bundle / "X.csv"
    if not x_path.exists():
        raise FileNotFoundError(f"{bundle} has no X.csv")
    X = read_matrix_csv(x_path)
    truth = None
    if (bundle / "Z.csv").exists():
        Z = read_matrix_csv(bundle / "Z.csv")
        Y = read_matrix_csv(bundle / "Y.csv")
        if not Z.size:  # no cause: Z.csv holds N blank lines and Y.csv none
            Z = Z.reshape(X.shape[0], 0)
        if not Y.size:
            Y = Y.reshape(0, X.shape[1])
        params = read_params_json(bundle / "params.json")
        if Z.shape[0] != X.shape[0]:
            raise ValueError(f"{bundle}: Z has {Z.shape[0]} rows, X has {X.shape[0]}")
        if Y.shape != (Z.shape[1], X.shape[1]):
            raise ValueError(f"{bundle}: Y shape {Y.shape} does not match Z and X")
        truth = GroundTruth(Z=Z, Y=Y, params=params)
    return Dataset(X=X, truth=truth)


def load_observations(path) -> np.ndarray:
    """Read an observation matrix from a CSV file or a bundle directory's
    X.csv; a bundle's ground-truth files are not read."""
    p = Path(path)
    if p.is_dir():
        p /= "X.csv"
    if not p.exists():
        raise FileNotFoundError(str(p))
    X = read_matrix_csv(p)
    if X.size == 0:
        raise ValueError(f"{p}: no observation rows")
    return X


def write_trace(path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_trace(path) -> list[dict]:
    """Parse a JSONL trace.  A malformed final line (an interrupted write)
    raises TruncatedTraceError naming the line; malformed earlier lines
    raise ValueError."""
    records = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if idx == len(lines) - 1:
                raise TruncatedTraceError(
                    f"{path}: line {idx + 1} is incomplete; the trace was truncated mid-write"
                ) from None
            raise ValueError(f"{path}: line {idx + 1} is not valid JSON") from None
    return records


def file_digest(path) -> str:
    """Hex digest of a file's bytes (determinism checks in tests)."""
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
