"""Small shared utilities."""

from .atomic import atomic_write_text
from .jsonl import JsonlError, replay_jsonl

__all__ = [
    "JsonlError",
    "atomic_write_text",
    "replay_jsonl",
]
