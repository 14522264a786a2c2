import argparse
import json
import math
import os
import shutil

import pytest

from selkd import metrics as metrics_mod
from selkd.align import em_train, write_pharaoh
from selkd.cli import (
    EXIT_CHECKSUM,
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    _report_row,
    build_parser,
    main,
)
from selkd.corpus import load_corpus
from selkd.curriculum import raw_ratio
from selkd.scoring import read_score_tsv


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
                 "--threshold", "1.01"]) == EXIT_OK
    assert read_bytes(sel / "selected_target.txt") == read_bytes(synth_dir / "kd.txt")
    assert read_bytes(sel / "selected_source.txt") == read_bytes(synth_dir / "src.txt")
    decisions = (sel / "decisions.tsv").read_text().splitlines()
    assert all(line.split("\t")[1] == "KD" for line in decisions)
    config = json.loads((sel / "manifest.json").read_text())["config"]
    assert config == {"threshold": 1.01, "raw_ratio": 0.0}

    # threshold zero keeps every raw target
    sel0 = tmp_path / "sel0"
    assert main(["select", "--out", str(sel0), *corpus_flags(synth_dir),
                 "--scores", str(sc / "scores.tsv"),
                 "--threshold", "0.0"]) == EXIT_OK
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


def test_metrics_aligns_each_distinct_pair_once(tmp_path, synth_dir, monkeypatch):
    n, thresholds = 40, (0.0, 0.5, 1.01)
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(f"{i}\t{(i % 5) / 4:.6f}\t0\t4\t8\n" for i in range(n)))
    calls = []
    real_align_pair = metrics_mod.align_pair

    def counting_align_pair(model, src, tgt):
        calls.append((src, tgt))
        return real_align_pair(model, src, tgt)

    monkeypatch.setattr(metrics_mod, "align_pair", counting_align_pair)
    out = tmp_path / "m"
    assert main(["metrics", "--out", str(out), *corpus_flags(synth_dir),
                 "--scores", str(scores), "--thresholds", ",".join(map(str, thresholds)),
                 "--align-iterations", "2", "--dump-links"]) == EXIT_OK
    assert len(calls) == 2 * n  # the raw and the distilled view, each pair once
    monkeypatch.undo()

    # The same rows and links from aligning every view on its own.
    corpus = load_corpus(str(synth_dir / "src.txt"), str(synth_dir / "raw.txt"),
                         str(synth_dir / "kd.txt"))
    table = read_score_tsv(str(scores))
    raw, distilled = metrics_mod.view_raw(corpus), metrics_mod.view_distilled(corpus)
    model = em_train(raw, iterations=2)

    def row(label, view, t=None):
        try:
            rep = metrics_mod.metric_report(view, metrics_mod.align_bitext(view, model), label)
        except metrics_mod.MetricsError:
            rep = None
        return _report_row(label, t, None if t is None else raw_ratio(table, t), rep)

    expected = [row("raw", raw), row("distilled", distilled)]
    for t in thresholds:
        keep = [r.score >= t for r in table.records]
        expected += [row("selected", [p for p, k in zip(raw, keep) if k], t),
                     row("replaced", [p for p, k in zip(raw, keep) if not k], t),
                     row("mix", [p if k else d for p, d, k in zip(raw, distilled, keep)], t)]
    assert (out / "report.tsv").read_text().splitlines()[1:] == expected
    assert "\t-\t" in expected[3] and "\t-\t" in expected[-3]  # empty replaced, empty selected
    write_pharaoh(metrics_mod.align_bitext(raw, model), str(tmp_path / "links.txt"))
    assert read_bytes(out / "links.txt") == read_bytes(tmp_path / "links.txt")


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
                 "--scores", str(scores), "--threshold", "0.0"])
    assert code == EXIT_FORMAT


def test_select_reads_negative_zero_threshold_as_zero(tmp_path, synth_dir):
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(f"{i}\t0.500000\t1\t4\t8\n" for i in range(40)))
    sel = tmp_path / "sel"
    assert main(["select", "--out", str(sel), *corpus_flags(synth_dir),
                 "--scores", str(scores), "--threshold", "-0"]) == EXIT_OK
    decisions = (sel / "decisions.tsv").read_text().splitlines()
    assert {line.split("\t")[3] for line in decisions} == {"0.000000"}
    threshold = json.loads((sel / "manifest.json").read_text())["config"]["threshold"]
    assert math.copysign(1.0, threshold) == 1.0


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


FULL_ARGS = ["--n", "60", "--updates", "30", "--len-min", "3", "--len-max", "5", *FAST_MODEL]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One small `selkd full` run, shared read-only by the tests below."""
    out = tmp_path_factory.mktemp("full") / "run"
    assert main(["full", "--out", str(out), *FULL_ARGS]) == EXIT_OK
    return out


def _tamper_score(path):
    lines = path.read_text().splitlines()
    fields = lines[0].split("\t")
    fields[1] = "0.123456" if fields[1] != "0.123456" else "0.654321"
    path.write_text("\n".join(["\t".join(fields), *lines[1:]]) + "\n")


def _tamper_report(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("raw\t-\t-\t1\t0.000000\t0.000000\t0.000000\n")


@pytest.mark.parametrize("name,tamper", [("scores/scores.tsv", _tamper_score),
                                         ("metrics/report.tsv", _tamper_report)],
                         ids=["scores", "metrics-report"])
def test_report_rejects_tampered_file(tmp_path, full_run, name, tamper):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    tamper(run / name)
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out), "--run", str(run)]) == EXIT_CHECKSUM
    assert (out / "INCOMPLETE").exists()
    assert not (out / "summary.txt").exists()
    assert not (out / "manifest.json").exists()


def _manifest_case(name, run, out):
    """argv of one stage run on `full_run`'s files, and the inputs it reads."""
    synth = {k: str(run / "synth" / f"{k}.txt") for k in ("src", "raw", "kd")}
    corpus = ["--src", synth["src"], "--raw", synth["raw"], "--kd", synth["kd"]]
    scores = str(run / "scores" / "scores.tsv")
    if name == "train-student":
        ckpt = str(run / "evaluator" / "checkpoint.txt")
        return (["train-student", "--out", out, *corpus, "--scores", scores, "--updates", "4",
                 "--init-checkpoint", ckpt, *FAST_MODEL], {*synth.values(), scores, ckpt})
    if name == "metrics-scores":
        return (["metrics", "--out", out, *corpus, "--scores", scores, "--thresholds", "0.5",
                 "--align-iterations", "1"], {*synth.values(), scores})
    if name == "metrics":
        return (["metrics", "--out", out, *corpus, "--align-iterations", "1"], set(synth.values()))
    if name == "metrics-tgt":
        return (["metrics", "--out", out, "--src", synth["src"], "--tgt", synth["raw"],
                 "--align-iterations", "1"], {synth["src"], synth["raw"]})
    subs = ("synth", "evaluator", "scores", "select", "student", "metrics")
    return (["report", "--out", out, "--run", str(run)],
            {str(run / sub / "manifest.json") for sub in subs}
            | {scores, str(run / "metrics" / "report.tsv")})


@pytest.mark.parametrize("name", ["train-student", "metrics-scores", "metrics", "metrics-tgt",
                                  "report"])
def test_manifest_records_exactly_the_files_read(tmp_path, full_run, name):
    out = tmp_path / "out"
    argv, expected = _manifest_case(name, full_run, str(out))
    assert main(argv) == EXIT_OK
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert set(inputs) == expected


def test_metrics_manifest_records_bucket_schedule(tmp_path, full_run):
    base = ["metrics", *corpus_flags(full_run / "synth"),
            "--scores", str(full_run / "scores" / "scores.tsv"), "--align-iterations", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*base, "--out", str(a)]) == EXIT_OK
    assert main([*base, "--out", str(b), "--t0", "0.1"]) == EXIT_OK
    config_a = json.loads((a / "manifest.json").read_text())["config"]
    config_b = json.loads((b / "manifest.json").read_text())["config"]
    assert (config_a["t0"], config_b["t0"]) == (0.4, 0.1)
    assert config_a != config_b


# Each subcommand's flags besides -h/--help, in parser order. A new flag
# must be added here, so it shows up as a visible edit of this table.
CLI_FLAGS = {
    "synth": "--out --n --source-vocab --target-vocab --len-min --len-max --modes --mode-probs "
             "--mistake-rate --mistake-kind --seed",
    "train-evaluator": "--out --src --raw --kd --embed-dim --hidden-dim --upsample --window --lr "
                       "--epochs --batch-size --clip-norm --seed --target-side --snapshot-updates",
    "score": "--out --src --raw --kd --checkpoint --variant --normalize-by-reference",
    "select": "--out --src --raw --kd --scores --threshold",
    "train-student": "--out --src --raw --kd --scores --t0 --t1 --updates --embed-dim --hidden-dim "
                     "--upsample --window --lr --epochs --batch-size --clip-norm --seed "
                     "--init-checkpoint",
    "metrics": "--out --src --raw --kd --tgt --scores --thresholds --t0 --t1 --align-iterations "
               "--tension --null-prob --dump-links",
    "report": "--out --run",
    "full": "--out --n --source-vocab --target-vocab --len-min --len-max --modes --mode-probs "
            "--mistake-rate --mistake-kind --embed-dim --hidden-dim --upsample --window --lr "
            "--epochs --batch-size --clip-norm --seed --t0 --t1 --updates --variant "
            "--align-iterations --tension --null-prob",
}


def test_each_subcommand_has_exactly_its_flags():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: [opt for action in p._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")]
             for name, p in subs.choices.items()}
    assert flags == {name: table.split() for name, table in CLI_FLAGS.items()}
    assert sum(map(len, flags.values())) == 98


# The flags each subcommand requires, with placeholder values: enough to parse.
_REQUIRED_FLAGS = {
    "score": ["--src", "s", "--raw", "r", "--kd", "k", "--checkpoint", "c"],
    "select": ["--src", "s", "--raw", "r", "--kd", "k", "--scores", "t", "--threshold", "0.5"],
    "train-student": ["--src", "s", "--raw", "r", "--kd", "k", "--scores", "t"],
    "metrics": ["--src", "s", "--raw", "r", "--kd", "k"],
    "report": ["--run", "r"],
    "full": [],
}
_UNREAD_FLAGS = [
    ("metrics", "--updates"), ("train-student", "--eval-every"),
    *[(command, "--seed") for command in ("score", "select", "metrics", "report")],
    *[("select", flag) for flag in ("--k", "--t0", "--t1", "--updates", "--fixed-threshold")],
    ("train-student", "--fixed-threshold"), ("full", "--fixed-threshold"),
]


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS,
                         ids=[f"{command}-{flag[2:]}" for command, flag in _UNREAD_FLAGS])
def test_flag_the_stage_does_not_read_is_config_error(tmp_path, capsys, command, flag):
    argv = [command, "--out", str(tmp_path / "out"), *_REQUIRED_FLAGS[command]]
    build_parser().parse_args(argv)  # parses without the flag
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "5"])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_full_fixed_threshold_runs_the_kd_only_baseline(tmp_path):
    out = tmp_path / "run"
    assert main(["full", "--out", str(out), *SYNTH_ARGS, *FAST_MODEL, "--updates", "8",
                 "--t0", "1.01", "--t1", "1.01"]) == EXIT_OK
    log = [line.split("\t") for line in (out / "student" / "train_log.tsv").read_text().splitlines()]
    assert len(log) == 8
    assert all(row[1:3] == ["1.010000", "0.000000"] for row in log)
    decisions = [line.split("\t") for line in (out / "select" / "decisions.tsv").read_text().splitlines()]
    assert all(row[1] == "KD" and row[3] == "1.010000" for row in decisions)
    # The metrics stage reports the schedule the student ran, not a linear one.
    metrics = out / "metrics"
    buckets = [line.split("\t") for line in (metrics / "buckets.tsv").read_text().splitlines()[1:]]
    filled = [row for row in buckets if row[1] != "0"]
    assert filled and all(row[3] == "0.000000" for row in filled)
    swept = [line.split("\t")[:2] for line in (metrics / "report.tsv").read_text().splitlines()[3:]]
    assert swept == [["selected", "1.010000"], ["replaced", "1.010000"], ["mix", "1.010000"]]
    config = json.loads((metrics / "manifest.json").read_text())["config"]
    assert (config["t0"], config["t1"]) == (1.01, 1.01)


_BAD_THRESHOLD_CASES = {
    "select-nan": ["select", "--threshold", "nan"],
    "select-above": ["select", "--threshold", "1.02"],
    "select-below": ["select", "--threshold", "-0.1"],
    "metrics-thresholds-nan": ["metrics", "--thresholds", "nan,5"],
    "metrics-thresholds-above": ["metrics", "--thresholds", "0.5,1.02"],
    "metrics-thresholds-below": ["metrics", "--thresholds", "-0.1"],
    "metrics-t0-nan": ["metrics", "--t0", "nan"],
    "metrics-t1-above": ["metrics", "--t1", "1.5"],
    "train-student-t0-nan": ["train-student", "--t0", "nan"],
    "full-t1-above": ["full", "--t1", "2"],
}


@pytest.mark.parametrize("case", list(_BAD_THRESHOLD_CASES))
def test_threshold_outside_range_is_config_error(tmp_path, synth_dir, case):
    (synth_dir / "scores.tsv").write_text("".join(f"{i}\t0.500000\t0\t4\t8\n" for i in range(40)))
    command, *flags = _BAD_THRESHOLD_CASES[case]
    stage_flags = {"select": ["--scores", str(synth_dir / "scores.tsv")],
                   "metrics": ["--scores", str(synth_dir / "scores.tsv")],
                   "train-student": ["--scores", str(synth_dir / "scores.tsv")],
                   "full": SYNTH_ARGS}[command]
    corpus = corpus_flags(synth_dir) if command != "full" else []
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *corpus, *stage_flags, *flags]) == EXIT_CONFIG
    assert not out.exists()


_METRICS_FLAG_CASES = {
    "no-tgt-no-raw": ["--kd", "kd.txt"],
    "no-tgt-no-kd": ["--raw", "raw.txt"],
    "tgt-with-raw": ["--tgt", "raw.txt", "--raw", "raw.txt"],
    "tgt-with-kd": ["--tgt", "raw.txt", "--kd", "kd.txt"],
    "tgt-with-scores": ["--tgt", "raw.txt", "--scores", "scores.tsv"],
    "tgt-with-thresholds": ["--tgt", "raw.txt", "--thresholds", "0.5"],
    "thresholds-without-scores": ["--raw", "raw.txt", "--kd", "kd.txt", "--thresholds", "0.5"],
}


@pytest.mark.parametrize("case", list(_METRICS_FLAG_CASES))
def test_metrics_rejects_ignored_or_missing_flags(tmp_path, synth_dir, case):
    (synth_dir / "scores.tsv").write_text("".join(f"{i}\t0.500000\t0\t4\t8\n" for i in range(40)))
    flags = [str(synth_dir / arg) if arg.endswith((".txt", ".tsv")) else arg
             for arg in _METRICS_FLAG_CASES[case]]
    out = tmp_path / "m"
    code = main(["metrics", "--out", str(out), "--src", str(synth_dir / "src.txt"), *flags,
                 "--align-iterations", "1"])
    assert code == EXIT_CONFIG
    assert not out.exists()


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


@pytest.mark.parametrize("flag,value", [("--tension", "nan"), ("--align-iterations", "0")])
def test_full_checks_aligner_flags_before_any_stage(tmp_path, flag, value):
    out = tmp_path / "run"
    code = main(["full", "--out", str(out), *SYNTH_ARGS, *FAST_MODEL, "--updates", "8", flag, value])
    assert code == EXIT_CONFIG
    assert not out.exists() or os.listdir(out) == []
