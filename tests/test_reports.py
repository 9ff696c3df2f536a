"""Report encoding and atomic artifact writes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import walkops
from walkops.reports import _BATCH, _ENCODER, DiagnosticsReport, _jsonable, dumps
from walkops.spectral import SpectralEstimate

# each writer rewrites the path for two seconds, far longer than the skew
# between the two interpreters' start-ups, so the writes overlap
_WRITER = """
import sys, time
from walkops.reports import write_text_atomic
path, fill = sys.argv[1], sys.argv[2]
text = fill * 200_000
stop = time.monotonic() + 2.0
while time.monotonic() < stop:
    write_text_atomic(path, text)
"""


def test_two_processes_write_one_path(tmp_path):
    """Two concurrent writers of one path both finish, the file ends up
    holding one writer's complete text, and no temp file is left behind."""
    path = tmp_path / "shared.json"
    env = dict(os.environ)
    src = str(Path(walkops.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(path), fill],
                         env=env, stderr=subprocess.PIPE, text=True)
        for fill in ("x", "y")
    ]
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            proc.kill()
    text = path.read_text(encoding="utf-8")
    assert text in ("x" * 200_000, "y" * 200_000)
    assert os.listdir(tmp_path) == ["shared.json"]


def test_dumps_matches_json_dumps():
    """The batched encoder writes json.dumps' bytes on a payload of many
    batches: tuples, nested as_dict objects, non-ASCII text, inf and nan."""
    report = DiagnosticsReport(
        name="n\u00e4me", inputs={"pair": ("a", "b")}, residuals=[],
        passed=True, verdict="ok", tolerances={"t": math.inf}, provenance={},
        extra={"estimate": SpectralEstimate(0.5, "extrapolated", (1, 9), 1e-9)})
    payload = {
        "rows": [{"x": (i, -i), "r": i / 7, "w": "\u03c1\u00b2"} for i in range(3000)],
        "report": report,
        "bad": [math.nan, -math.inf, {"deep": ((1, 2), [report])}],
        "empty": ([], {}, ""),
    }
    assert sum(1 for _ in _ENCODER.iterencode(payload)) > 2 * _BATCH
    assert dumps(payload) == json.dumps(payload, sort_keys=True, indent=2,
                                        default=_jsonable)
    assert report.to_json() == json.dumps(report.as_dict(), sort_keys=True,
                                          indent=2, default=_jsonable)
