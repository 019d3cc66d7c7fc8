"""Packaging metadata: ``pyproject.toml`` names the package and its version.

``setup.py`` is a shim that defers every field to ``pyproject.toml``; a
missing or broken table makes setuptools report ``UNKNOWN``.
"""

import os
import subprocess
import sys

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_reports_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["repro", repro.__version__]
    assert repro.__version__ == "1.0.0"
