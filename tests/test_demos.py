"""Smoke test: every script in demos/ runs to completion.

Each demo runs in its own interpreter with the working directory and
TMPDIR inside the test's temporary directory, so the ones that make a
scratch directory (01 and 06) leave nothing behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regretlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(regretlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = os.environ | {"TMPDIR": str(tmp_path), "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
