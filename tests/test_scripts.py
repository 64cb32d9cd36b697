"""The experiment scripts write what they promise and refuse a grid before building it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from altmat import build_a, build_b, import_matrix
from altmat.formats import FORMATS

ROOT = Path(__file__).resolve().parent.parent
EXT = {"alist": "alist", "matrixmarket": "mtx", "dense": "txt"}


def run_script(name, *argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_grid_writes_each_member_bit_exactly(tmp_path, fmt):
    out = tmp_path / "grid"
    proc = run_script("export_grid.py", str(out), "--kmax", "2", "--lmax", "2", "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 8 matrices" in proc.stderr
    files = sorted(p.name for p in out.iterdir())
    expected = []
    for k in (1, 2):
        for ell in (1, 2):
            for name, build in (("a", build_a), ("b", build_b)):
                path = f"{name}_k{k}_l{ell}.{EXT[fmt]}"
                expected.append(path)
                assert import_matrix((out / path).read_text(), fmt) == build(k, ell), path
    assert files == sorted(expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kmax", "9", "--lmax", "9"), "build_a(9, 9) would be 24310 x 24310, past the limit"),
        (("--kmax", "0"), "--kmax and --lmax must be positive"),
        (("--lmax", "-2"), "--kmax and --lmax must be positive"),
        (("--kmax", "3", "--lm", "3"), "unrecognized arguments: --lm"),
    ],
)
def test_export_grid_refuses_a_grid_before_writing(tmp_path, argv, message):
    out = tmp_path / "grid"
    proc = run_script("export_grid.py", str(out), *argv)
    assert proc.returncode == 2 and message in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kmax", "9", "--lmax", "9"), "build_a(9, 9) would be 24310 x 24310, past the limit"),
        (("--kmax", "0"), "--kmax and --lmax must be positive"),
        (("--kmax", "3", "--lmax", "-2"), "--kmax and --lmax must be positive"),
        (("--km", "3"), "unrecognized arguments: --km"),
    ],
)
def test_full_report_refuses_a_grid_before_building(tmp_path, argv, message):
    out = tmp_path / "report.json"
    proc = run_script("full_report.py", "--out", str(out), *argv)
    assert proc.returncode == 2 and message in proc.stderr, proc.stderr
    assert proc.stdout == "" and not out.exists()
