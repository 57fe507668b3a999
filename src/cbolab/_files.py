"""Atomic text-file output: write to a sibling temp file, rename into place."""
from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress


@contextmanager
def open_text_atomic(path: str):
    """Yield the sibling temp file for writing, piece by piece if need be. It
    takes path's place only when the body finishes; an exception removes it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        # mkstemp creates the file 0600; give it the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    with open_text_atomic(path) as fh:
        fh.write(text)
