"""Utility-module tests."""

from __future__ import annotations

import pytest

from repro.util import atomic_write_text


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
