"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class CoreError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(CoreError):
    """Unreadable or malformed matrix file (bad magic, truncated payload, bad dimensions)."""


class RaggedRowError(MatrixFormatError):
    """CSV row with a different field count than row 1. Rows are 1-based."""


class ValueParseError(MatrixFormatError):
    """Token that does not parse as a number. Row/col are 1-based."""


class NonFiniteValueError(MatrixFormatError):
    """NaN or infinity in a matrix. Row/col are 1-based."""


class LabelFileError(CoreError):
    """Unreadable or empty label file, or a blank label line."""


class DatasetError(CoreError):
    """Embeddings and labels that do not form a usable dataset together."""


class CompressorError(CoreError):
    """Invalid compressor configuration or fit/transform misuse."""


class TrainingDivergedError(CompressorError):
    """Non-finite loss during autoencoder training."""


class CompressionStepError(CoreError):
    """Compressor failure inside a multi-step run, annotated with the step."""


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
