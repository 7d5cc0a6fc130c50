"""Smoke tests for the scripts under scripts/."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_random_pipeline():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "random_pipeline.py"), "--count", "20"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "verdicts: {'valid': 20}" in done.stdout
