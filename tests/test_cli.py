import json
import os

import pytest

from selkd.cli import (
    EXIT_CHECKSUM,
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    main,
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def dir_bytes(d):
    out = {}
    for root, _, files in os.walk(d):
        for f in files:
            p = os.path.join(root, f)
            out[os.path.relpath(p, d)] = read_bytes(p)
    return out


SYNTH_ARGS = ["--n", "40", "--len-min", "3", "--len-max", "5", "--seed", "3"]
FAST_MODEL = ["--epochs", "2", "--batch-size", "8", "--embed-dim", "8", "--hidden-dim", "12"]


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), *SYNTH_ARGS]) == EXIT_OK
    return out


def corpus_flags(synth_dir):
    return ["--src", str(synth_dir / "src.txt"), "--raw", str(synth_dir / "raw.txt"),
            "--kd", str(synth_dir / "kd.txt")]


def test_synth_writes_artifacts_and_manifest(synth_dir):
    for name in ("src.txt", "raw.txt", "kd.txt", "modes.tsv", "manifest.json"):
        assert (synth_dir / name).exists()
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["tool"] == "selkd"
    assert set(manifest["outputs"]) == {"src.txt", "raw.txt", "kd.txt", "modes.tsv"}


def test_synth_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), *SYNTH_ARGS]) == EXIT_OK
    assert main(["synth", "--out", str(b), *SYNTH_ARGS]) == EXIT_OK
    assert dir_bytes(a) == dir_bytes(b)


def test_pipeline_stages_and_rerun_determinism(tmp_path, synth_dir):
    ev = tmp_path / "ev"
    assert main(["train-evaluator", "--out", str(ev), *corpus_flags(synth_dir),
                 *FAST_MODEL, "--seed", "1"]) == EXIT_OK
    assert (ev / "checkpoint.txt").exists()

    s1, s4 = tmp_path / "s1", tmp_path / "s4"
    base = ["score", *corpus_flags(synth_dir), "--checkpoint", str(ev / "checkpoint.txt")]
    assert main([*base, "--out", str(s1)]) == EXIT_OK
    assert main([*base, "--out", str(s4)]) == EXIT_OK
    assert read_bytes(s1 / "scores.tsv") == read_bytes(s4 / "scores.tsv")

    # rerun in place: byte-identical artifacts including the manifest
    before = dir_bytes(s1)
    assert main([*base, "--out", str(s1)]) == EXIT_OK
    after = dir_bytes(s1)
    assert before["scores.tsv"] == after["scores.tsv"]


def test_select_sentinel_reproduces_distilled_file(tmp_path, synth_dir):
    ev = tmp_path / "ev"
    assert main(["train-evaluator", "--out", str(ev), *corpus_flags(synth_dir),
                 *FAST_MODEL]) == EXIT_OK
    sc = tmp_path / "scores"
    assert main(["score", "--out", str(sc), *corpus_flags(synth_dir),
                 "--checkpoint", str(ev / "checkpoint.txt")]) == EXIT_OK
    sel = tmp_path / "sel"
    assert main(["select", "--out", str(sel), *corpus_flags(synth_dir),
                 "--scores", str(sc / "scores.tsv"),
                 "--fixed-threshold", "1.01", "--updates", "10"]) == EXIT_OK
    assert read_bytes(sel / "selected_target.txt") == read_bytes(synth_dir / "kd.txt")
    assert read_bytes(sel / "selected_source.txt") == read_bytes(synth_dir / "src.txt")
    decisions = (sel / "decisions.tsv").read_text().splitlines()
    assert all(line.split("\t")[1] == "KD" for line in decisions)

    # threshold zero keeps every raw target
    sel0 = tmp_path / "sel0"
    assert main(["select", "--out", str(sel0), *corpus_flags(synth_dir),
                 "--scores", str(sc / "scores.tsv"),
                 "--fixed-threshold", "0.0", "--updates", "10"]) == EXIT_OK
    assert read_bytes(sel0 / "selected_target.txt") == read_bytes(synth_dir / "raw.txt")


def test_train_student_runs_and_logs(tmp_path, synth_dir):
    ev = tmp_path / "ev"
    assert main(["train-evaluator", "--out", str(ev), *corpus_flags(synth_dir),
                 *FAST_MODEL]) == EXIT_OK
    sc = tmp_path / "scores"
    assert main(["score", "--out", str(sc), *corpus_flags(synth_dir),
                 "--checkpoint", str(ev / "checkpoint.txt")]) == EXIT_OK
    st = tmp_path / "student"
    assert main(["train-student", "--out", str(st), *corpus_flags(synth_dir),
                 "--scores", str(sc / "scores.tsv"), "--updates", "12",
                 *FAST_MODEL, "--t0", "0.4", "--t1", "1.0"]) == EXIT_OK
    log = (st / "train_log.tsv").read_text().splitlines()
    assert len(log) == 12
    first = log[0].split("\t")
    assert float(first[1]) == pytest.approx(0.4)  # T_0


def test_metrics_single_bitext_mode(tmp_path, synth_dir):
    out = tmp_path / "m"
    assert main(["metrics", "--out", str(out), "--src", str(synth_dir / "src.txt"),
                 "--tgt", str(synth_dir / "raw.txt"), "--align-iterations", "2"]) == EXIT_OK
    report = (out / "report.tsv").read_text().splitlines()
    assert report[0].startswith("view\t")
    assert report[1].startswith("bitext\t")


def test_metrics_threshold_sweep(tmp_path, synth_dir):
    ev = tmp_path / "ev"
    assert main(["train-evaluator", "--out", str(ev), *corpus_flags(synth_dir),
                 *FAST_MODEL]) == EXIT_OK
    sc = tmp_path / "scores"
    assert main(["score", "--out", str(sc), *corpus_flags(synth_dir),
                 "--checkpoint", str(ev / "checkpoint.txt")]) == EXIT_OK
    out = tmp_path / "m"
    assert main(["metrics", "--out", str(out), *corpus_flags(synth_dir),
                 "--scores", str(sc / "scores.tsv"), "--thresholds", "0.0,0.5,1.01",
                 "--align-iterations", "2"]) == EXIT_OK
    lines = (out / "report.tsv").read_text().splitlines()
    views = [ln.split("\t")[0] for ln in lines[1:]]
    assert views[:2] == ["raw", "distilled"]
    assert views.count("selected") == 3
    # T=1.01 leaves the selected view empty -> hole row, not a crash
    empty_row = [ln for ln in lines if ln.startswith("selected\t1.01")]
    assert len(empty_row) == 1 and "\t-\t" in empty_row[0]
    assert (out / "buckets.tsv").exists()


def test_missing_input_exit_code(tmp_path):
    code = main(["score", "--out", str(tmp_path / "x"), "--src", "no.txt",
                 "--raw", "no.txt", "--kd", "no.txt", "--checkpoint", "no.ckpt"])
    assert code == EXIT_MISSING_INPUT


def test_config_error_exit_code(tmp_path):
    code = main(["synth", "--out", str(tmp_path / "x"), "--modes", "3",
                 "--mode-probs", "0.9,0.9,0.9"])
    assert code == EXIT_CONFIG


def test_format_error_exit_code_and_incomplete_marker(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a\n\nb\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("x\ny\nz\n")
    out = tmp_path / "ev"
    code = main(["train-evaluator", "--out", str(out), "--src", str(bad),
                 "--raw", str(ok), "--kd", str(ok), *FAST_MODEL])
    assert code == EXIT_FORMAT
    assert (out / "INCOMPLETE").exists()
    assert not (out / "manifest.json").exists()
    assert not (out / "checkpoint.txt").exists()


def test_checksum_mismatch_detected(tmp_path, synth_dir):
    # tamper with a manifest-tracked artifact, then consume it
    with open(synth_dir / "raw.txt", "a", encoding="utf-8") as fh:
        fh.write("tampered line\n")
    out = tmp_path / "ev"
    code = main(["train-evaluator", "--out", str(out), *corpus_flags(synth_dir), *FAST_MODEL])
    assert code == EXIT_CHECKSUM


def test_vocab_mismatch_checkpoint_rejected(tmp_path, synth_dir):
    ev = tmp_path / "ev"
    assert main(["train-evaluator", "--out", str(ev), *corpus_flags(synth_dir),
                 *FAST_MODEL]) == EXIT_OK
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--n", "10", "--source-vocab", "5",
                 "--target-vocab", "9", "--seed", "9"]) == EXIT_OK
    code = main(["score", "--out", str(tmp_path / "s"), "--src", str(other / "src.txt"),
                 "--raw", str(other / "raw.txt"), "--kd", str(other / "kd.txt"),
                 "--checkpoint", str(ev / "checkpoint.txt")])
    assert code == EXIT_FORMAT


def test_checkpoint_with_wrong_param_shape_rejected(tmp_path, synth_dir):
    ev = tmp_path / "ev"
    assert main(["train-evaluator", "--out", str(ev), *corpus_flags(synth_dir),
                 *FAST_MODEL]) == EXIT_OK
    # Cut 3 rows off the embedding, keeping the record self-consistent.
    lines = (ev / "checkpoint.txt").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("param\temb\t"):
            _, name, shape, values = line.split("\t")
            rows, cols = (int(d) for d in shape.split(","))
            kept = values.split(" ")[:(rows - 3) * cols]
            lines[i] = "\t".join(["param", name, f"{rows - 3},{cols}", " ".join(kept)])
    cut = tmp_path / "cut.txt"
    cut.write_text("\n".join(lines) + "\n")
    code = main(["score", "--out", str(tmp_path / "s"), *corpus_flags(synth_dir),
                 "--checkpoint", str(cut)])
    assert code == EXIT_FORMAT


def test_select_rejects_nan_score(tmp_path, synth_dir):
    rows = [f"{i}\t{'nan' if i == 0 else '0.500000'}\t1\t4\t8" for i in range(40)]
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(rows) + "\n")
    code = main(["select", "--out", str(tmp_path / "sel"), *corpus_flags(synth_dir),
                 "--scores", str(scores), "--fixed-threshold", "0.0", "--updates", "10"])
    assert code == EXIT_FORMAT


def test_full_pipeline_small(tmp_path):
    out = tmp_path / "run"
    code = main(["full", "--out", str(out), "--n", "60", "--updates", "30",
                 "--epochs", "2", "--batch-size", "8", "--embed-dim", "8",
                 "--hidden-dim", "12", "--len-min", "3", "--len-max", "5"])
    assert code == EXIT_OK
    for sub in ("synth", "evaluator", "scores", "select", "student", "metrics", "report"):
        assert (out / sub / "manifest.json").exists(), sub
    summary = (out / "report" / "summary.txt").read_text()
    assert "score quantiles" in summary


def test_report_requires_run_dir(tmp_path):
    code = main(["report", "--out", str(tmp_path / "r"), "--run", str(tmp_path / "missing")])
    assert code == EXIT_MISSING_INPUT


@pytest.mark.parametrize("manifest", ["{not json", "[1, 2]", '{"outputs": ["raw.txt"]}',
                                      '{"outputs": {"raw.txt": 5}}'],
                         ids=["not-json", "not-object", "outputs-not-object", "digest-not-string"])
@pytest.mark.parametrize("command", ["metrics", "report"])
def test_malformed_manifest_is_format_error(tmp_path, synth_dir, command, manifest):
    (synth_dir / "manifest.json").write_text(manifest)
    out = tmp_path / "out"
    if command == "metrics":
        argv = ["metrics", "--out", str(out), *corpus_flags(synth_dir)]
    else:
        argv = ["report", "--out", str(out), "--run", str(synth_dir.parent)]
    assert main(argv) == EXIT_FORMAT
    assert (out / "INCOMPLETE").exists()



@pytest.mark.parametrize("flag,value", [("--align-iterations", "0"), ("--tension", "-1"),
                                        ("--tension", "nan"), ("--tension", "inf"),
                                        ("--null-prob", "1.5"), ("--null-prob", "nan")])
def test_bad_aligner_flag_is_config_error(tmp_path, synth_dir, flag, value):
    out = tmp_path / "m"
    code = main(["metrics", "--out", str(out), *corpus_flags(synth_dir), flag, value])
    assert code == EXIT_CONFIG
    assert (out / "INCOMPLETE").exists()
