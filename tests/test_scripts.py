"""The scripts in scripts/ run against the package in src/."""

import re
import subprocess
import sys
from pathlib import Path

from corefmtl.training import _platform_stamp

ROOT = Path(__file__).resolve().parent.parent


def test_digest_prints_the_stamp_and_four_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digest.py"), "--workload", "short-doc",
         "--steps", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    names = ["records", "params", "moments", "predictions"]
    assert list(lines) == list(_platform_stamp()) + names
    assert {key: lines[key] for key in _platform_stamp()} == _platform_stamp()
    assert all(re.fullmatch(r"[0-9a-f]{16}", lines[name]) for name in names)
