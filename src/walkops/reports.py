"""Structured diagnostics results, serializable to JSON and CSV.

Every report records what was checked (inputs), the individual residuals,
a machine verdict with its tolerances, and provenance (cache depth,
rho_hat, acceleration, window parameters) so emitted numbers can be
re-audited.  Serialization is deterministic: sorted keys, repr floats.
JSON is encoded and written in chunks, so no report is held whole as text;
every file appears complete or not at all (temp file + rename).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice


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


# chunks joined per write: one write per chunk costs time, one join of them
# all holds the whole text at once
_WRITE_BATCH = 4096


def _write_atomic(path: str, chunks) -> None:
    """Write the text chunks via a temp file + rename so partial outputs
    never appear.

    The temp file is unique and sits in the target directory, so concurrent
    writers of one path never share it and the rename stays on one file
    system; the last rename wins with a complete file.  It is created with
    mode 0o666 less the process umask, as a plain open() would create it.
    """
    target_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(target_dir, exist_ok=True)
    prefix = os.path.join(target_dir, f".{os.path.basename(path)}.")
    while True:
        tmp = f"{prefix}{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            chunks = iter(chunks)
            while batch := list(islice(chunks, _WRITE_BATCH)):
                fh.write("".join(batch))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_text_atomic(path: str, text: str):
    """Write ``text`` to ``path``, complete or not at all."""
    _write_atomic(path, (text,))


def write_json(path: str, payload) -> None:
    # a DiagnosticsReport encodes as its as_dict(); the text is encoded
    # while it is written, never held whole
    _write_atomic(path, chain(_ENCODER.iterencode(payload), ("\n",)))


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
