"""Structured diagnostics results, serializable to JSON and CSV.

Every report records what was checked (inputs), the individual residuals,
a machine verdict with its tolerances, and provenance (cache depth,
rho_hat, acceleration, window parameters) so emitted numbers can be
re-audited.  Serialization is deterministic: sorted keys, repr floats.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field


@dataclass
class DiagnosticsReport:
    name: str
    inputs: dict
    residuals: list
    passed: bool
    verdict: str
    tolerances: dict
    provenance: dict
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        doc = {
            "name": self.name,
            "inputs": self.inputs,
            "residuals": self.residuals,
            "passed": self.passed,
            "verdict": self.verdict,
            "tolerances": self.tolerances,
            "provenance": self.provenance,
        }
        if self.extra:
            doc["extra"] = self.extra
        return doc


def _jsonable(obj):
    """json's fallback encoder: an object with ``as_dict`` encodes as that
    dict; anything else json cannot encode is a TypeError, never a repr."""
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    raise TypeError(f"{type(obj).__name__} object is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, default=_jsonable)
# json.dumps(payload, sort_keys=True, indent=2, default=_jsonable), bit for bit
dumps = _ENCODER.encode


def write_text_atomic(path: str, text: str):
    """Write via a temp file + rename so partial outputs never appear.

    The temp file is unique and sits in the target directory, so concurrent
    writers of one path never share it and the rename stays on one file
    system; the last rename wins with a complete file.
    """
    target_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(target_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target_dir, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file private (0600); give the output the
            # mode a plain open() would have
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_json(path: str, payload) -> None:
    # a DiagnosticsReport encodes as its as_dict()
    write_text_atomic(path, dumps(payload) + "\n")


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    write_text_atomic(path, rows_to_csv(rows, columns))
