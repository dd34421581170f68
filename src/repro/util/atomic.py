"""Atomic whole-file writes, shared by every content-addressed store.

A reader of a file written through :func:`atomic_write_text` sees the
complete new text or the previous file, never a torn write: the text
goes to a temp file in the same directory, which is then renamed over
``path`` with :func:`os.replace`.  A crash or exception mid-write
removes the temp file, so a killed writer leaves no debris behind.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) atomically.

    The parent directory must exist.  Concurrent writers of identical
    text race to an identical file.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:8]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
