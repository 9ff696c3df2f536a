"""Atomic artifact writes."""

import os
import subprocess
import sys
from pathlib import Path

import walkops

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
