"""Tests of the scripts under scripts/: each runs and prints its header, and a
threshold selkd would reject exits 2 with one error line."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")["main"]


def test_threshold_sweep_prints_views(capsys):
    load_main("threshold_sweep.py")(7, 200)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "threshold\traw_ratio\tview\tsentences\tuncertainty\tshift"
    assert len(lines) == 1 + 7 * 3  # one row per threshold and view


def test_exposure_table_prints_buckets(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_text("0\t0.500000\t4\t8\t16\n1\t1.000000\t0\t12\t24\n")
    load_main("exposure_table.py")(str(scores))
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["bucket\tcount\tmean_score\tmean_exposure",  # the buckets.tsv format
                     "[0,10)\t1\t0.500000\t0.166667",
                     "[10,20)\t1\t1.000000\t1.000000",
                     *(f"[{lo},{hi})\t0\t-\t-" for lo, hi in ((20, 30), (30, 40), (40, 50),
                                                              (50, 60), (60, "inf")))]


def test_exposure_table_bad_threshold_is_one_line_config_error(tmp_path):
    scores = tmp_path / "scores.tsv"
    scores.write_text("0\t0.500000\t4\t8\t16\n")
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "exposure_table.py"), str(scores), "nan", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "start threshold nan" in proc.stderr
