"""Golden gate: the full report must stay byte-identical across refactors.

A change that alters any byte of the report has to update this digest and
say in CHANGES.md why the new value is right.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FULL_REPORT_SHA256 = "fcef9f89b868b1b1028a6e126800989d1daf24f116df25a39fa31ef34a92edcc"


def test_full_report_is_byte_identical():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "full_report.py")],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert hashlib.sha256(out).hexdigest() == FULL_REPORT_SHA256
