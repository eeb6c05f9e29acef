"""Embedding matrix, label, and manifest file handling; ``read_input`` reads every text input.

Binary matrix layout: magic ``CORE``, u32 little-endian row count, u32
little-endian column count, then rows*cols little-endian f32 values in
row-major order. Values are stored as 32-bit floats on disk and promoted
to float64 in memory for all computation.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import (
    CoreError,
    DatasetError,
    LabelFileError,
    MatrixFormatError,
    NonFiniteValueError,
    RaggedRowError,
    ValueParseError,
)

MAGIC = b"CORE"


@dataclass(frozen=True)
class Labels:
    """Dense class ids (0..n_classes-1) plus the original class names.

    Ids are assigned by first appearance in the label file, so loading is
    deterministic and order-stable.
    """

    ids: np.ndarray
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_classes(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    embeddings: Path
    labels: Path
    representation: str


@dataclass(frozen=True)
class DatasetInfo:
    rows: int
    cols: int
    n_classes: int
    min_class_count: int


def read_input(path: str | Path, error: type[CoreError], what: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the UTF-8 text of the input file ``path``; a file that cannot be read,
    decoded or parsed raises ``error`` with the message ``cannot read <what> <path>: <reason>``."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _check_matrix(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise MatrixFormatError(f"matrix must be 2-D with at least one row and column, got shape {m.shape}")
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        r, c = bad[0]
        raise NonFiniteValueError(f"row {r + 1}, col {c + 1}: non-finite value")
    return m


def load_embeddings(path: str | Path, fmt: str = "binary", header: bool = False) -> np.ndarray:
    """Load a matrix from ``path`` as float64.

    ``fmt`` is "binary" or "csv". ``header`` skips the first CSV line.
    """
    if fmt == "binary":
        return _load_binary(Path(path))
    if fmt == "csv":
        return _load_csv(Path(path), header=header)
    raise ValueError(f"unknown matrix format {fmt!r}")


def _load_binary(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise MatrixFormatError(f"{path}: missing {MAGIC!r} header")
    if len(raw) < 12:
        raise MatrixFormatError(f"{path}: truncated header ({len(raw)} bytes, need 12)")
    rows, cols = struct.unpack("<II", raw[4:12])
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: invalid shape {rows}x{cols}")
    expected = 12 + 4 * rows * cols
    if len(raw) != expected:
        raise MatrixFormatError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, cols)
    return _check_matrix(data.astype(np.float64))


def _load_csv(path: Path, header: bool = False) -> np.ndarray:
    lines = read_input(path, MatrixFormatError, "CSV matrix", str.splitlines)
    start = 1 if header else 0
    body = [(i + 1, line) for i, line in enumerate(lines) if i >= start and line.strip()]
    if not body:
        raise MatrixFormatError(f"{path}: no data rows")
    rows = []
    width = len(body[0][1].split(","))
    for lineno, line in body:
        fields = line.split(",")
        if len(fields) != width:
            raise RaggedRowError(f"row {lineno}: expected {width} fields, got {len(fields)}")
        row = []
        for j, tok in enumerate(fields):
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueParseError(f"row {lineno}, col {j + 1}: cannot parse {tok.strip()!r} as a number") from None
        rows.append(row)
    return _check_matrix(np.array(rows, dtype=np.float64))


def save_matrix(m: np.ndarray, path: str | Path, fmt: str = "binary") -> None:
    """Write a matrix; binary stores f32, CSV uses round-trippable precision."""
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    _check_matrix(m)
    path = Path(path)
    if fmt == "binary":
        payload = m.astype("<f4").tobytes()
        path.write_bytes(MAGIC + struct.pack("<II", m.shape[0], m.shape[1]) + payload)
    elif fmt == "csv":
        text = "\n".join(",".join(repr(v) for v in row) for row in m.tolist())
        path.write_text(text + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_labels(path: str | Path) -> Labels:
    """Read one label token per line; ids assigned by first appearance."""
    lines = read_input(path, LabelFileError, "labels", str.splitlines)
    if not lines:
        raise LabelFileError(f"{path}: empty label file")
    by_name: dict[str, int] = {}
    ids = []
    for i, line in enumerate(lines):
        tok = line.strip()
        if not tok:
            raise LabelFileError(f"{path}: blank line {i + 1}")
        ids.append(by_name.setdefault(tok, len(by_name)))
    return Labels(ids=np.array(ids, dtype=np.int64), names=tuple(by_name))


def save_labels(labels: Labels, path: str | Path) -> None:
    Path(path).write_text("\n".join(labels.names[i] for i in labels.ids) + "\n")


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Parse a manifest: JSON array of {name, embeddings, labels, representation}.

    Relative paths are resolved against the manifest's directory.
    """
    path = Path(path)
    entries = read_input(path, DatasetError, "manifest", json.loads)
    if not isinstance(entries, list) or not entries:
        raise DatasetError(f"{path}: manifest must be a non-empty JSON array")
    seen = set()
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise DatasetError(f"{path}: manifest entry {i} is not a JSON object")
        name = e.get("name", "")
        emb, lab = e.get("embeddings", ""), e.get("labels", "")
        if not all(isinstance(v, str) for v in (name, emb, lab, e.get("representation", ""))):
            raise DatasetError(f"{path}: manifest entry {i} has a non-string field")
        if not name or name in seen:
            raise DatasetError(f"{path}: missing or duplicate dataset name {name!r}")
        if not emb or not lab:
            raise DatasetError(f"{path}: dataset {name!r} has empty paths")
        seen.add(name)
        out.append(
            ManifestEntry(
                name=name,
                embeddings=path.parent / emb,
                labels=path.parent / lab,
                representation=e.get("representation", ""),
            )
        )
    return out


def validate_dataset(e: np.ndarray, labels: Labels, k: int) -> DatasetInfo:
    """Check that matrix and labels pair up and every class supports k folds."""
    if e.shape[0] != len(labels):
        raise DatasetError(f"{e.shape[0]} embedding rows but {len(labels)} labels")
    counts = np.bincount(labels.ids, minlength=labels.n_classes)
    smallest = int(counts.argmin())
    if counts[smallest] < k:
        raise DatasetError(
            f"class {labels.names[smallest]!r} has {int(counts[smallest])} members, fewer than {k} folds"
        )
    return DatasetInfo(
        rows=int(e.shape[0]),
        cols=int(e.shape[1]),
        n_classes=labels.n_classes,
        min_class_count=int(counts.min()),
    )

