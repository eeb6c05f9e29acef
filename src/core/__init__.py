"""Recursive compression of embedding matrices with classification-based evaluation."""

__version__ = "0.1.0"
