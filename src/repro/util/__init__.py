"""Small shared utilities."""

from .atomic import atomic_write_text
from .jsonl import JsonlError, replay_jsonl
from .ordering import argsort_by, stable_unique
from .validation import require, require_positive

__all__ = [
    "JsonlError",
    "argsort_by",
    "atomic_write_text",
    "replay_jsonl",
    "require",
    "require_positive",
    "stable_unique",
]
