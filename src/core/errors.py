"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class CoreError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(CoreError):
    """Malformed matrix file (bad magic, truncated payload, bad dimensions)."""


class RaggedRowError(MatrixFormatError):
    """CSV row with a different field count than row 1. Rows are 1-based."""

    def __init__(self, row: int, expected: int, got: int):
        self.row = row
        super().__init__(f"row {row}: expected {expected} fields, got {got}")


class ValueParseError(MatrixFormatError):
    """Token that does not parse as a number. Row/col are 1-based."""

    def __init__(self, row: int, col: int, token: str):
        self.row = row
        self.col = col
        super().__init__(f"row {row}, col {col}: cannot parse {token!r} as a number")


class NonFiniteValueError(MatrixFormatError):
    """NaN or infinity in a matrix. Row/col are 1-based."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"row {row}, col {col}: non-finite value")


class LabelFileError(CoreError):
    """Empty label file or blank label line."""


class DatasetError(CoreError):
    """Embeddings and labels that do not form a usable dataset together."""


class CompressorError(CoreError):
    """Invalid compressor configuration or fit/transform misuse."""


class TrainingDivergedError(CompressorError):
    """Non-finite loss during autoencoder training."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")


class CompressionStepError(CoreError):
    """Compressor failure inside a multi-step run, annotated with the step."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        super().__init__(f"step {step}: {cause}")


class ScheduleError(CoreError):
    """Invalid dimension schedule parameters."""


class EvaluationError(CoreError):
    """Invalid evaluation setup (undersized classes, length mismatches)."""


class StatsError(CoreError):
    """Invalid rank-statistics input (degenerate shapes, missing table entry)."""


class ConfigError(CoreError):
    """Bad experiment configuration."""


# What a command or a ``core run`` dataset/task reports as a failure instead of a
# traceback: the package's own errors, unreadable files and numeric breakdowns.
FAILURES = (CoreError, OSError, np.linalg.LinAlgError)
