"""The scripts in scripts/ run against the package in src/."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert {key: lines[key] for key in _platform_stamp()} == {
        key: str(value) for key, value in _platform_stamp().items()}
    assert all(re.fullmatch(r"[0-9a-f]{16}", lines[name]) for name in names)


def test_digest_one_thread_prints_a_second_run_at_one_thread():
    """--one-thread prints the lines of a second run with
    OPENBLAS_NUM_THREADS=1 after the first, each prefixed `one-thread `;
    its stamp reads a thread count of 1 where the count can be read.
    The predictions agree across thread counts."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digest.py"), "--workload", "short-doc",
         "--steps", "2", "--one-thread"],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    keys = list(_platform_stamp()) + ["records", "params", "moments", "predictions"]
    assert list(lines) == keys + [f"one-thread {key}" for key in keys]
    assert lines["one-thread blas_threads"] in ("1", "None")
    assert lines["one-thread predictions"] == lines["predictions"]


def stage_rows(*args) -> dict[str, tuple]:
    """stage_peaks.py's rows by stage: (calls, entry, peak, exit)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["stage", "calls", "entry_mib", "peak_mib", "exit_mib"]
    rows = {}
    for line in lines:
        path, calls, *mib = line.split()
        rows[path] = (int(calls), *map(float, mib))
    return rows


@pytest.mark.parametrize("mode,stages", [
    ("predict", ["coarse_scores", "score_matrix", "decode_antecedents"]),
    ("train", ["score_matrix", "backward", "backward/span_block", "backward/pair_block",
               "backward/ffnn", "backward/kept_spans", "adam_step"]),
])
def test_stage_peaks_prints_entry_peak_and_exit_per_stage(mode, stages):
    rows = stage_rows("--workload", "short-doc", mode)
    whole = "predict_document" if mode == "predict" else "train"
    assert list(rows)[-1] == whole and rows[whole][0] == 1
    for name in stages:
        assert f"{whole}/{name}" in rows
    # no forward stage runs again in backward: each node reruns its own tiles
    assert not {f"{whole}/backward/{name}" for name in ("represent_spans",
                                                         "unary_score_tensors",
                                                         "span_block/ffnn")} & set(rows)
    for path, (calls, entry, peak, exit_) in rows.items():
        assert calls >= 1 and peak >= max(entry, exit_), path
        assert peak <= rows[whole][2], path


def test_stage_peaks_predicts_a_document_of_the_given_tokens():
    """--tokens N predicts a document of N tokens: more tokens, more span
    blocks and a higher peak. It takes predict only."""
    small, large = (stage_rows("--workload", "short-doc", "predict", "--tokens", str(n))
                    for n in (200, 1500))
    name = "predict_document/unary_score_tensors"
    assert small[name][0] < large[name][0]
    assert small["predict_document"][2] < large["predict_document"][2]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "--workload",
         "short-doc", "train", "--tokens", "200"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "--tokens" in proc.stderr
