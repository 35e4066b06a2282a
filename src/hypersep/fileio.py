"""Atomic file output: a file appears under its final name whole or not at all."""

import csv
import io
import os
from pathlib import Path

from .errors import IoError


def write_atomic(path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it onto path.

    On failure the temp file is removed, an earlier file at path is kept, and
    IoError is raised. No fsync: this guards against torn files, not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv_rows(path, rows) -> None:
    """Format rows as CSV in memory, then write them with write_atomic."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue().encode())
