"""Utility-module tests."""

from __future__ import annotations

import pytest

from repro.util import (
    argsort_by,
    atomic_write_text,
    require,
    require_positive,
    stable_unique,
)


class TestOrdering:
    def test_argsort_by(self):
        items = ["bb", "a", "ccc"]
        assert argsort_by(items, len) == [1, 0, 2]

    def test_argsort_stable(self):
        items = [("a", 1), ("b", 1), ("c", 0)]
        assert argsort_by(items, lambda t: t[1]) == [2, 0, 1]

    def test_argsort_empty(self):
        assert argsort_by([], lambda x: x) == []

    def test_stable_unique(self):
        assert stable_unique([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_stable_unique_empty(self):
        assert stable_unique([]) == []


class TestValidation:
    def test_require_passes(self):
        require(True, "never")

    def test_require_raises(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ValueError, match="x must be positive"):
            require_positive(0, "x")
        with pytest.raises(ValueError):
            require_positive(-1.5, "y")


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_removes_temp(
            self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "entry.json"
        atomic_write_text(path, "old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "new")
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
