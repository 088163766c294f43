"""Packaging metadata: ``setup.py`` must read the real name and version.

``setup.py`` is a bare shim that defers all metadata to ``pyproject.toml``;
without that file it silently reports ``UNKNOWN 0.0.0``.  The check runs
``setup.py`` in a subprocess (rather than parsing the TOML with ``tomllib``,
which Python 3.10 lacks) and compares against the package's own version.
"""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_reports_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = completed.stdout.split()
    assert lines[-2:] == ["repro", repro.__version__]
