"""perfbench's oracle self-test must pass, so a broken check fails here.

``perfbench/selftest.py`` runs one small sync per protocol through the
public API and feeds the oracle corrupted copies of each result; it exits
0 only when the genuine results pass and every corruption is caught.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_fires_every_check():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "every check fired" in done.stdout
