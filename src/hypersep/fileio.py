"""File I/O: atomic output, where a file appears under its final name whole or not at all, and JSON object input."""

import csv
import io
import json
import os
from pathlib import Path

from .errors import InvalidConfig, IoError


def read_json_object(path, what: str) -> dict:
    """Parse the JSON object in the file at path; IoError if it cannot be read, InvalidConfig if it is not one."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidConfig(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig(f"{what} {path} must hold a JSON object")
    return data


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
