import argparse
import collections
import json
import math
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selkd import cli
from selkd import metrics as metrics_mod
from selkd.align import em_train, write_pharaoh
from selkd.cli import (
    EXIT_CHECKSUM,
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_TRAINING,
    RUN_GRAPH,
    _model_config,
    _report_row,
    build_parser,
    main,
)
from selkd.corpus import MAX_SENTENCE_LEN, load_corpus
from selkd.curriculum import raw_ratio
from selkd.nat import PARAM_NAMES, ModelConfig, load_checkpoint
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
FAST_STUDENT = ["--batch-size", "8", "--embed-dim", "8", "--hidden-dim", "12"]  # train-student has no --epochs
FAST_MODEL = ["--epochs", "2", *FAST_STUDENT]


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), *SYNTH_ARGS]) == EXIT_OK
    return out


def corpus_flags(synth_dir):
    return ["--src", str(synth_dir / "src.txt"), "--raw", str(synth_dir / "raw.txt"),
            "--kd", str(synth_dir / "kd.txt")]


def write_scores(path, synth_dir, scores):
    """A hand-written score TSV for ``synth_dir``'s corpus; each ref_len is
    its raw target's length, which ``metrics`` checks."""
    raw = (synth_dir / "raw.txt").read_text().splitlines()
    path.write_text("".join(f"{i}\t{s:.6f}\t0\t{len(line.split())}\t8\n"
                            for i, (s, line) in enumerate(zip(scores, raw))))
    return path


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


def test_select_and_metrics_apply_one_selection_rule(tmp_path, synth_dir):
    # Hand-written scores; every fifth one equals the threshold, and a tie
    # keeps raw. decisions.tsv, select's raw_ratio and the metrics report's
    # ratio and selected/replaced/mix counts must all agree with the rule.
    n, threshold = 40, 0.5
    scores = [(i % 5) / 4 for i in range(n)]
    assert threshold in scores
    keep = [s >= threshold for s in scores]
    kept = sum(keep)
    path = write_scores(tmp_path / "scores.tsv", synth_dir, scores)
    sel, met = tmp_path / "sel", tmp_path / "met"
    assert main(["select", "--out", str(sel), *corpus_flags(synth_dir), "--scores", str(path),
                 "--threshold", str(threshold)]) == EXIT_OK
    assert main(["metrics", "--out", str(met), *corpus_flags(synth_dir), "--scores", str(path),
                 "--thresholds", str(threshold), "--align-iterations", "2"]) == EXIT_OK

    decisions = [line.split("\t") for line in (sel / "decisions.tsv").read_text().splitlines()]
    assert [row[1] == "RAW" for row in decisions] == keep
    raw_lines = (synth_dir / "raw.txt").read_text().splitlines()
    kd_lines = (synth_dir / "kd.txt").read_text().splitlines()
    assert (sel / "selected_target.txt").read_text().splitlines() == [
        r if k else d for r, d, k in zip(raw_lines, kd_lines, keep)]
    ratio = json.loads((sel / "manifest.json").read_text())["config"]["raw_ratio"]
    assert ratio == kept / n

    rows = [line.split("\t") for line in (met / "report.tsv").read_text().splitlines()[1:]]
    swept = {row[0]: row for row in rows if row[1] == f"{threshold:.6f}"}
    assert sorted(swept) == ["mix", "replaced", "selected"]
    assert all(row[2] == f"{ratio:.6f}" for row in swept.values())
    assert [int(swept[label][3]) for label in ("selected", "replaced", "mix")] == [kept, n - kept, n]


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
                 *FAST_STUDENT, "--t0", "0.4", "--t1", "1.0"]) == EXIT_OK
    log = (st / "train_log.tsv").read_text().splitlines()
    assert len(log) == 12
    first = log[0].split("\t")
    assert float(first[1]) == pytest.approx(0.4)  # T_0


def test_warm_started_student_checkpoint_records_the_student_config(tmp_path, full_run):
    files = _run_files(full_run)
    out = tmp_path / "student"
    assert main(["train-student", "--out", str(out), "--src", files["src"], "--raw", files["raw"],
                 "--kd", files["kd"], "--scores", files["scores"], "--updates", "4",
                 "--init-checkpoint", files["init_checkpoint"], *FAST_STUDENT,
                 "--lr", "0.3", "--batch-size", "4"]) == EXIT_OK
    recorded = json.loads((out / "manifest.json").read_text())["config"]["model"]
    assert (recorded["learning_rate"], recorded["batch_size"]) == (0.3, 4)
    assert asdict(load_checkpoint(str(out / "checkpoint.txt")).config) == recorded


def test_train_student_without_any_update_is_training_error(tmp_path):
    # T = 1.0 throughout picks both distilled targets (scores 0.5), and each
    # needs 3 frames of the 2 that upsample 2 gives a one-token source.
    for name, text in (("src", "a\nb\n"), ("raw", "p\nq\n"), ("kd", "x y z\ny z x\n")):
        (tmp_path / f"{name}.txt").write_text(text)
    (tmp_path / "scores.tsv").write_text("0\t0.500000\t0\t1\t2\n1\t0.500000\t0\t1\t2\n")
    out = tmp_path / "student"
    assert main(["train-student", "--out", str(out), *corpus_flags(tmp_path),
                 "--scores", str(tmp_path / "scores.tsv"), "--updates", "5",
                 "--t0", "1.0", "--t1", "1.0"]) == EXIT_TRAINING
    assert (out / "INCOMPLETE").exists()
    assert not (out / "checkpoint.txt").exists()


def test_train_evaluator_without_any_feasible_pair_is_training_error(tmp_path, capsys):
    # Both targets need 3 frames of the 2 that upsample 2 gives a one-token
    # source: the run stops after its first epoch and prints no mean loss.
    for name, text in (("src", "a\nb\n"), ("raw", "x y z\ny z x\n"), ("kd", "x y z\ny z x\n")):
        (tmp_path / f"{name}.txt").write_text(text)
    out = tmp_path / "evaluator"
    assert main(["train-evaluator", "--out", str(out), *corpus_flags(tmp_path),
                 "--epochs", "3"]) == EXIT_TRAINING
    assert (out / "INCOMPLETE").exists()
    err = capsys.readouterr().err
    assert "nan" not in err.lower()
    assert "mean loss" not in err


def test_interrupted_stage_leaves_incomplete_and_no_manifest(tmp_path, synth_dir, monkeypatch):
    out = tmp_path / "evaluator"
    argv = ["train-evaluator", "--out", str(out), *corpus_flags(synth_dir), *FAST_MODEL,
            "--snapshot-updates", "1"]
    assert main(argv) == EXIT_OK

    def interrupt(model, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.nat, "save_checkpoint", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv)  # a rerun into the finished directory
    assert (out / "INCOMPLETE").exists()
    assert not (out / "manifest.json").exists()


def test_score_plain_with_normalize_by_reference_is_config_error(tmp_path, synth_dir, capsys):
    # plain already divides by the reference length, so the flag would change nothing
    out = tmp_path / "scores"
    assert main(["score", "--out", str(out), *corpus_flags(synth_dir), "--checkpoint",
                 str(tmp_path / "checkpoint.txt"), "--variant", "plain",
                 "--normalize-by-reference"]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == \
        "selkd score: error: --normalize-by-reference is for ctc: plain divides by it already\n"


def test_metrics_single_bitext_mode(tmp_path, synth_dir):
    out = tmp_path / "m"
    assert main(["metrics", "--out", str(out), "--src", str(synth_dir / "src.txt"),
                 "--tgt", str(synth_dir / "raw.txt"), "--align-iterations", "2"]) == EXIT_OK
    report = (out / "report.tsv").read_text().splitlines()
    assert report[0].startswith("view\t")
    assert report[1].startswith("bitext\t")


def test_metrics_aligns_each_distinct_pair_once(tmp_path, synth_dir, monkeypatch):
    n, thresholds = 40, (0.0, 0.5, 1.01)
    scores = write_scores(tmp_path / "scores.tsv", synth_dir, [(i % 5) / 4 for i in range(n)])
    aligned = []  # pairs per align_pair call: one, or the size of a shape block
    real_align_pair = metrics_mod.align_pair

    def counting_align_pair(model, src, tgt):
        links = real_align_pair(model, src, tgt)
        aligned.append(len(links) if np.ndim(links) == 2 else 1)
        return links

    monkeypatch.setattr(metrics_mod, "align_pair", counting_align_pair)
    out = tmp_path / "m"
    assert main(["metrics", "--out", str(out), *corpus_flags(synth_dir),
                 "--scores", str(scores), "--thresholds", ",".join(map(str, thresholds)),
                 "--align-iterations", "2", "--dump-links"]) == EXIT_OK
    assert sum(aligned) == 2 * n  # the raw and the distilled view, each pair once
    monkeypatch.undo()
    # Every reference has length 4; exposure under the default 0.4 -> 1.0
    # schedule is 0, 0, 1/6, 7/12 and 1 for the five scores.
    assert (out / "buckets.tsv").read_text().splitlines() == [
        "bucket\tcount\tmean_score\tmean_exposure", f"[0,10)\t{n}\t0.500000\t0.350000",
        *(f"[{lo},{hi})\t0\t-\t-" for lo, hi in ((10, 20), (20, 30), (30, 40), (40, 50),
                                                  (50, 60), (60, "inf")))]

    # The same rows and links from aligning every view on its own.
    corpus = load_corpus(str(synth_dir / "src.txt"), str(synth_dir / "raw.txt"),
                         str(synth_dir / "kd.txt"))
    table = read_score_tsv(str(scores))
    raw, distilled = corpus.pairs("raw"), corpus.pairs("distilled")
    model = em_train(raw, iterations=2)

    def row(label, view, t=None):
        try:
            rep = metrics_mod.metric_report(
                metrics_mod.pair_stats(view, metrics_mod.align_bitext(view, model)), label)
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


@pytest.mark.parametrize("kind", ["bitext", "scores", "checkpoint", "report", "manifest"])
def test_invalid_utf8_input_is_format_error(tmp_path, synth_dir, capsys, kind):
    bad = tmp_path / {"report": f"run/{RUN_GRAPH[-1].files['metrics_report']}",
                      "manifest": f"run/{RUN_GRAPH[0].dir}/manifest.json"}.get(kind, "bad.txt")
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_bytes(b"a b\n\xff\xfe c\n")
    if kind in ("report", "manifest"):
        argv = ["report", "--run", str(tmp_path / "run")]
    elif kind == "bitext":
        argv = ["train-evaluator", "--src", str(bad), "--raw", str(synth_dir / "raw.txt"),
                "--kd", str(synth_dir / "kd.txt"), *FAST_MODEL]
    elif kind == "scores":
        argv = ["select", *corpus_flags(synth_dir), "--scores", str(bad), "--threshold", "0.5"]
    else:
        argv = ["score", *corpus_flags(synth_dir), "--checkpoint", str(bad)]
    out = tmp_path / "out"
    assert main([argv[0], "--out", str(out), *argv[1:]]) == EXIT_FORMAT
    assert (out / "INCOMPLETE").exists()
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err
    assert f"{bad}:2: not valid UTF-8" in err


# Pieces of a bitext file: tokens, a reserved surface, invalid UTF-8,
# ASCII and Unicode whitespace and every line ending, so lines come out
# empty, blank, unequal in number across the two files or undecodable.
_BITEXT_PIECES = st.sampled_from([b"a", b"b", b"c", b"<unk>", b"\xff", b"\xc3", b"\xc3\xa9",
                                  b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\xc2\xa0", b"\x00",
                                  b"\n", b"\r\n", b"\r"])
_BITEXT_BYTES = st.lists(_BITEXT_PIECES, max_size=30).map(b"".join)


@settings(max_examples=30, deadline=None)
@given(src=_BITEXT_BYTES, tgt=_BITEXT_BYTES)
def test_metrics_on_random_bitext_bytes_exits_ok_or_format_error(tmp_path_factory, src, tgt):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "src.txt").write_bytes(src)
    (d / "tgt.txt").write_bytes(tgt)
    code = main(["metrics", "--out", str(d / "m"), "--src", str(d / "src.txt"),
                 "--tgt", str(d / "tgt.txt"), "--align-iterations", "2"])
    assert code in (EXIT_OK, EXIT_FORMAT)


def test_full_with_one_pair_fails_at_metrics_with_no_aligned_tokens(tmp_path, capsys):
    # The one pair's distilled target holds only ids the raw side, and so
    # the lexical table, never saw: the distilled view links nothing.
    out = tmp_path / "run"
    assert main(["full", "--out", str(out), "--n", "1", "--updates", "2"]) == EXIT_FORMAT
    failed = next(i for i, row in enumerate(RUN_GRAPH) if row.command == "metrics")
    for row in RUN_GRAPH[:failed]:
        assert (out / row.dir / "manifest.json").exists()
    assert (out / RUN_GRAPH[failed].dir / "INCOMPLETE").exists()
    assert not (out / RUN_GRAPH[failed + 1].dir).exists()
    assert capsys.readouterr().err.endswith(
        "selkd full: error: no aligned tokens at all; cannot compute uncertainty\n")


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


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A synth corpus and the lines of an evaluator checkpoint trained on it."""
    d = tmp_path_factory.mktemp("ckpt")
    assert main(["synth", "--out", str(d / "synth"), *SYNTH_ARGS]) == EXIT_OK
    assert main(["train-evaluator", "--out", str(d / "ev"), *corpus_flags(d / "synth"),
                 *FAST_MODEL]) == EXIT_OK
    return d / "synth", (d / "ev" / "checkpoint.txt").read_text().splitlines()


def _score_with_checkpoint(out, synth_dir, lines):
    """Exit code of ``selkd score`` with a checkpoint of ``lines`` in ``out``."""
    (out / "ckpt.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return main(["score", "--out", str(out / "s"), *corpus_flags(synth_dir),
                 "--checkpoint", str(out / "ckpt.txt")])


def _edit_record(lines, kind, name, edit):
    """``lines`` with ``edit`` applied to the tab-separated fields after
    ``kind`` (and ``name``, for a param) of that record."""
    head = [kind] if kind == "config" else [kind, name]
    i = next(i for i, line in enumerate(lines) if line.split("\t")[:len(head)] == head)
    return [*lines[:i], "\t".join([*head, *edit(lines[i].split("\t")[len(head):])]), *lines[i + 1:]]


def _set_config(field, value):
    return lambda rest: [json.dumps(json.loads(rest[0]) | {field: value})]


def _set_first_value(value):
    return lambda rest: [rest[0], " ".join([value, *rest[1].split(" ")[1:]])]


@pytest.mark.parametrize("kind,name,edit", [
    ("config", None, _set_config("batch_size", 2.5)),
    ("config", None, _set_config("upsample", 2.0)),
    ("config", None, _set_config("window", 10**20)),
    ("config", None, _set_config("window", MAX_SENTENCE_LEN + 1)),
    ("config", None, _set_config("seed", True)),
    ("config", None, lambda rest: ['{"window": ' + "[" * 100_000 + "]" * 100_000 + "}"]),
    ("param", "emb", _set_first_value("0x1p99999")),
], ids=["batch-size-float", "upsample-float", "window-huge", "window-too-wide", "seed-bool",
        "config-too-deep", "param-overflows-float"])
def test_malformed_checkpoint_is_format_error(tmp_path, tiny_checkpoint, kind, name, edit):
    synth_dir, lines = tiny_checkpoint
    assert _score_with_checkpoint(tmp_path, synth_dir, _edit_record(lines, kind, name, edit)) == EXIT_FORMAT
    assert (tmp_path / "s" / "INCOMPLETE").exists()


# One config value replaced (ints, huge ints, floats, bools, strings, null,
# nested lists), or one param record's values, first value or shape edited.
_CONFIG_VALUES = st.one_of(
    st.floats(0, 64), st.floats(), st.integers(-2, 64), st.integers(2**63, 10**30) | st.just(-2**63 - 1),
    st.booleans(), st.none(), st.text(max_size=4),
    st.recursive(st.integers(0, 9), lambda inner: st.lists(inner, max_size=3), max_leaves=6))
_CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("config"), st.none(),
              st.builds(_set_config, st.sampled_from(sorted(asdict(ModelConfig()))), _CONFIG_VALUES)),
    st.tuples(st.just("param"), st.sampled_from(PARAM_NAMES), st.one_of(
        st.sampled_from([lambda rest: [rest[0], rest[1].rsplit(" ", 1)[0]],  # one value short
                         lambda rest: [rest[0], rest[1] + " 0x0p+0"]]),  # one value too many
        st.builds(_set_first_value, st.sampled_from(["0x1p99999", "nan", "-inf", ""])
                  | st.text("0123456789abcdefpx.+-", max_size=10)),
        st.builds(lambda dims: lambda rest: [",".join(map(str, dims)), rest[1]],
                  st.lists(st.integers(-1, 40) | st.just(10**20), max_size=3)))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edit=_CHECKPOINT_EDITS)
def test_score_with_one_checkpoint_field_mutated_exits_ok_or_format_error(
        tmp_path_factory, tiny_checkpoint, edit):
    synth_dir, lines = tiny_checkpoint
    out = tmp_path_factory.mktemp("mutated")
    assert _score_with_checkpoint(out, synth_dir, _edit_record(lines, *edit)) in (EXIT_OK, EXIT_FORMAT)


def test_select_rejects_nan_score(tmp_path, synth_dir):
    rows = [f"{i}\t{'nan' if i == 0 else '0.500000'}\t1\t4\t8" for i in range(40)]
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(rows) + "\n")
    code = main(["select", "--out", str(tmp_path / "sel"), *corpus_flags(synth_dir),
                 "--scores", str(scores), "--threshold", "0.0"])
    assert code == EXIT_FORMAT


def _replace_field(row, col, text):
    return lambda rows: [*rows[:row], [*rows[row][:col], text, *rows[row][col + 1:]], *rows[row + 1:]]


def _replace_line(row, how):
    return lambda rows: [*rows[:row], *{"drop": [], "repeat": [rows[row]] * 2, "empty": [[""]],
                                        "widen": [[*rows[row], "0"]]}[how], *rows[row + 1:]]


# One field of a valid score file replaced (small, negative and huge ints,
# float reprs, signs, spaces, underscores, other digits, any text), or one
# line dropped, repeated, emptied or given a sixth field.
_SCORE_FIELDS = st.one_of(
    st.integers(-3, 45).map(str), st.integers(2**63).map(str), st.floats().map(repr),
    st.sampled_from(["-0", "", " 1", "1_0", "0x1", "٥", "1e400", "0.5\r", "5\t5"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=4))
_SCORE_EDITS = st.one_of(
    st.builds(_replace_field, st.integers(0, 39), st.integers(0, 4), _SCORE_FIELDS),
    st.builds(_replace_line, st.integers(0, 39), st.sampled_from(["drop", "repeat", "empty", "widen"])))


def _select_rows(d, synth_dir, rows, threshold):
    """Exit code of ``selkd select`` into ``d/sel`` on a score file of ``rows``."""
    (d / "scores.tsv").write_bytes("".join("\t".join(row) + "\n" for row in rows).encode())
    return main(["select", "--out", str(d / "sel"), *corpus_flags(synth_dir),
                 "--scores", str(d / "scores.tsv"), "--threshold", threshold])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edit=_SCORE_EDITS)
def test_select_with_one_score_field_or_line_mutated_exits_ok_or_format_error(
        tmp_path_factory, tiny_checkpoint, edit):
    synth_dir, _ = tiny_checkpoint
    rows = edit([[str(i), "0.500000", "1", "4", "8"] for i in range(40)])
    assert _select_rows(tmp_path_factory.mktemp("mutated"), synth_dir, rows, "0.5") in (EXIT_OK, EXIT_FORMAT)


# Spellings that Python's ``int`` and ``float`` accept but a score file
# may not hold: a sign on an integer, an underscore, surrounding
# whitespace and digits of another script.
@pytest.mark.parametrize("col,text", [(0, "+1"), (2, "1_0"), (3, " 4"), (4, "\u0668"),
                                      (1, "0.5_0"), (1, "0.5 "), (1, "\u0660.\u0665")],
                         ids=["index-sign", "distance-underscore", "ref-len-space",
                              "frame-len-arabic-indic", "score-underscore", "score-space",
                              "score-arabic-indic"])
def test_select_rejects_score_file_spellings_beyond_ascii_numbers(tmp_path, synth_dir, col, text):
    rows = [[str(i), "0.500000", "1", "4", "8"] for i in range(40)]
    rows[1][col] = text
    assert _select_rows(tmp_path, synth_dir, rows, "0.5") == EXIT_FORMAT


def test_select_reads_negative_zero_score_as_zero(tmp_path, synth_dir):
    rows = [[str(i), "-0" if i == 0 else "0.500000", "1", "4", "8"] for i in range(40)]
    assert _select_rows(tmp_path, synth_dir, rows, "0") == EXIT_OK
    decisions = (tmp_path / "sel" / "decisions.tsv").read_text().splitlines()
    assert decisions[0].split("\t")[2] == "0.000000"


def test_metrics_rejects_ref_len_that_is_not_the_raw_targets_length(tmp_path, synth_dir, capsys):
    scores = write_scores(tmp_path / "scores.tsv", synth_dir, [0.5] * 40)
    rows = [line.split("\t") for line in scores.read_text().splitlines()]
    rows[6][3] = str(int(rows[6][3]) + 1)
    scores.write_text("".join("\t".join(row) + "\n" for row in rows))
    assert main(["metrics", "--out", str(tmp_path / "m"), *corpus_flags(synth_dir),
                 "--scores", str(scores), "--align-iterations", "1"]) == EXIT_FORMAT
    assert f"{scores}:7: ref_len" in capsys.readouterr().err


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
    for row in RUN_GRAPH:
        assert (out / row.dir / "manifest.json").exists(), row.dir
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


@pytest.mark.parametrize("name,tamper", [(RUN_GRAPH[-1].files["scores"], _tamper_score),
                                         (RUN_GRAPH[-1].files["metrics_report"], _tamper_report)],
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


def _run_files(run):
    """Each flag of ``RUN_GRAPH`` that names a file of a run, and that file in ``run``."""
    return {flag: str(run / path) for row in RUN_GRAPH for flag, path in row.files.items()}


def _manifest_case(name, run, out):
    """argv of one stage run on `full_run`'s files, and the inputs it reads."""
    files = _run_files(run)
    synth = {files[flag] for flag in ("src", "raw", "kd")}
    corpus = ["--src", files["src"], "--raw", files["raw"], "--kd", files["kd"]]
    scores = files["scores"]
    if name == "train-student":
        ckpt = files["checkpoint"]
        return (["train-student", "--out", out, *corpus, "--scores", scores, "--updates", "4",
                 "--init-checkpoint", ckpt, *FAST_STUDENT], {*synth, scores, ckpt})
    if name == "metrics-scores":
        return (["metrics", "--out", out, *corpus, "--scores", scores, "--thresholds", "0.5",
                 "--align-iterations", "1"], {*synth, scores})
    if name == "metrics":
        return (["metrics", "--out", out, *corpus, "--align-iterations", "1"], synth)
    if name == "metrics-tgt":
        return (["metrics", "--out", out, "--src", files["src"], "--tgt", files["raw"],
                 "--align-iterations", "1"], {files["src"], files["raw"]})
    *stages, report = RUN_GRAPH
    return (["report", "--out", out, "--run", str(run)],
            {str(run / row.dir / "manifest.json") for row in stages}
            | {str(run / path) for path in report.files.values()})


@pytest.mark.parametrize("name", ["train-student", "metrics-scores", "metrics", "metrics-tgt",
                                  "report"])
def test_manifest_records_exactly_the_files_read(tmp_path, full_run, name):
    out = tmp_path / "out"
    argv, expected = _manifest_case(name, full_run, str(out))
    assert main(argv) == EXIT_OK
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert set(inputs) == expected


def test_run_graph_matches_the_manifests_of_a_full_run(full_run):
    # Each stage's manifest records exactly the files its row names (the
    # report also reads the manifest of each stage before it), and each
    # such file is an output of an earlier stage, read with the digest
    # that stage recorded.
    assert sorted(os.listdir(full_run)) == sorted(row.dir for row in RUN_GRAPH)
    manifests = {row.dir: json.loads((full_run / row.dir / "manifest.json").read_text())
                 for row in RUN_GRAPH}
    *stages, report = RUN_GRAPH
    for i, row in enumerate(RUN_GRAPH):
        manifest = manifests[row.dir]
        assert manifest["subcommand"] == row.command
        read = {str(full_run / path) for path in row.files.values()}
        if row is report:
            read |= {str(full_run / stage.dir / "manifest.json") for stage in stages}
        assert set(manifest["inputs"]) == read, row.dir
        for path in row.files.values():
            upstream, name = path.split("/")
            assert upstream in [earlier.dir for earlier in RUN_GRAPH[:i]], path
            assert manifests[upstream]["outputs"][name] == manifest["inputs"][str(full_run / path)]


def _json_paths(value, path=()):
    """The key path of every field and list item inside ``value``, in file order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield (*path, key)
        yield from _json_paths(item, (*path, key))


# One field or item of a stage manifest, anywhere or under one top-level
# field, given another JSON value (digests, names, a lone surrogate, NaN,
# nesting), or one key renamed.
_JSON_TEXT = st.sampled_from(["", "0" * 64, "\ud800", "scores.tsv", "outputs"]) | st.text(max_size=6)
_JSON_VALUES = _JSON_TEXT | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=6)
_MANIFEST_EDITS = st.tuples(st.sampled_from(RUN_GRAPH[:-1]),
                            st.sampled_from([None, "outputs", "inputs", "config"]), st.integers(0, 10**6),
                            st.sampled_from(["value", "key"]), _JSON_VALUES, _JSON_TEXT)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edit=_MANIFEST_EDITS)
def test_report_with_one_manifest_field_mutated_exits_ok_checksum_or_format_error(
        tmp_path_factory, full_run, edit):
    row, field, pick, how, value, key = edit
    run = tmp_path_factory.mktemp("mutated") / "run"
    shutil.copytree(full_run, run)
    path = run / row.dir / "manifest.json"
    manifest = json.loads(path.read_text())
    paths = [p for p in _json_paths(manifest) if field in (None, p[0])]
    *parents, last = paths[pick % len(paths)]
    parent = manifest
    for step in parents:
        parent = parent[step]
    if how == "key" and isinstance(parent, dict):
        parent[key] = parent.pop(last)
    else:
        parent[last] = value
    path.write_text(json.dumps(manifest, indent=2))
    code = main(["report", "--out", str(run.parent / "report"), "--run", str(run)])
    assert code in (EXIT_OK, EXIT_CHECKSUM, EXIT_FORMAT)


def test_stage_hashes_each_input_once(tmp_path, full_run, monkeypatch):
    hashed = collections.Counter()
    real_sha256 = cli._sha256

    def counting_sha256(path):
        hashed[path] += 1
        return real_sha256(path)

    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    row = next(row for row in RUN_GRAPH if row.command == "score")
    files = {flag: str(full_run / path) for flag, path in row.files.items()}
    out = tmp_path / "scores"
    argv = [arg for flag, path in files.items() for arg in ("--" + flag.replace("_", "-"), path)]
    assert main(["score", "--out", str(out), *argv]) == EXIT_OK
    # every input sits beside a manifest that lists it, so each is checked too
    assert hashed == {**{path: 1 for path in files.values()}, str(out / "scores.tsv"): 1}


def test_metrics_manifest_records_bucket_schedule(tmp_path, full_run):
    files = _run_files(full_run)
    base = ["metrics", "--src", files["src"], "--raw", files["raw"], "--kd", files["kd"],
            "--scores", files["scores"], "--align-iterations", "1"]
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
                     "--upsample --window --lr --batch-size --clip-norm --seed --init-checkpoint",
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
    assert sum(map(len, flags.values())) == 97


# The flags each subcommand requires, with placeholder values: enough to parse.
_REQUIRED_FLAGS = {
    "train-evaluator": ["--src", "s", "--raw", "r", "--kd", "k"],
    "score": ["--src", "s", "--raw", "r", "--kd", "k", "--checkpoint", "c"],
    "select": ["--src", "s", "--raw", "r", "--kd", "k", "--scores", "t", "--threshold", "0.5"],
    "train-student": ["--src", "s", "--raw", "r", "--kd", "k", "--scores", "t"],
    "metrics": ["--src", "s", "--raw", "r", "--kd", "k"],
    "report": ["--run", "r"],
    "full": [],
}
_UNREAD_FLAGS = [
    ("metrics", "--updates"), ("train-student", "--eval-every"), ("train-student", "--epochs"),
    *[(command, "--seed") for command in ("score", "select", "metrics", "report")],
    *[("select", flag) for flag in ("--k", "--t0", "--t1", "--updates", "--fixed-threshold")],
    ("train-student", "--fixed-threshold"), ("full", "--fixed-threshold"),
]


@pytest.mark.parametrize("command", ["train-evaluator", "train-student", "full"])
def test_model_flags_default_to_the_model_config_defaults(command):
    args = build_parser().parse_args([command, *_REQUIRED_FLAGS[command]])
    assert _model_config(args) == ModelConfig()


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
def test_threshold_outside_range_is_config_error(tmp_path, synth_dir, capsys, case):
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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and f"selkd {command}: error: " in captured.err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_snapshot_updates_below_one_is_config_error(tmp_path, synth_dir, capsys, value):
    # no update ever equals it, so the run used to save its final model as the snapshot
    out = tmp_path / "out"
    assert main(["train-evaluator", "--out", str(out), *corpus_flags(synth_dir), *FAST_MODEL,
                 "--snapshot-updates", value]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == \
        f"selkd train-evaluator: error: --snapshot-updates must be >= 1, got {value}\n"


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


def test_report_on_empty_score_table_leaves_out_quantiles(tmp_path):
    run = tmp_path / "run"
    scores = run / RUN_GRAPH[-1].files["scores"]
    scores.parent.mkdir(parents=True)
    scores.write_text("")
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out), "--run", str(run)]) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "[scores] INCOMPLETE" in summary
    assert "quantiles" not in summary


def test_report_requires_run_dir(tmp_path):
    code = main(["report", "--out", str(tmp_path / "r"), "--run", str(tmp_path / "missing")])
    assert code == EXIT_MISSING_INPUT


@pytest.mark.parametrize("manifest", ["{not json", "[1, 2]", '{"outputs": ["raw.txt"]}',
                                      '{"outputs": {"raw.txt": 5}}', "[" * 100_000],
                         ids=["not-json", "not-object", "outputs-not-object", "digest-not-string",
                              "too-deep"])
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
                                        ("--tension", "1e9"),
                                        ("--null-prob", "1.5"), ("--null-prob", "nan")])
def test_bad_aligner_flag_is_config_error(tmp_path, synth_dir, flag, value):
    out = tmp_path / "m"
    code = main(["metrics", "--out", str(out), *corpus_flags(synth_dir), flag, value])
    assert code == EXIT_CONFIG
    assert (out / "INCOMPLETE").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lr", "--clip-norm"])
@pytest.mark.parametrize("command", ["train-evaluator", "full"])
def test_non_finite_model_flag_is_config_error(tmp_path, synth_dir, capsys, command, flag, value):
    # NaN passes a ``<= 0`` check, and neither NaN nor inf is valid JSON in a manifest.
    out = tmp_path / "out"
    extra = corpus_flags(synth_dir) if command == "train-evaluator" else [*SYNTH_ARGS, "--updates", "8"]
    assert main([command, "--out", str(out), *FAST_MODEL, *extra, flag, value]) == EXIT_CONFIG
    assert "learning_rate and clip_norm must be finite and positive" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    if command == "full":  # checked before any stage runs
        assert not out.exists() or os.listdir(out) == []
    else:
        assert (out / "INCOMPLETE").exists()


@pytest.mark.parametrize("flag,value", [("--tension", "nan"), ("--tension", "1e9"),
                                        ("--align-iterations", "0")])
def test_full_checks_aligner_flags_before_any_stage(tmp_path, flag, value):
    out = tmp_path / "run"
    code = main(["full", "--out", str(out), *SYNTH_ARGS, *FAST_MODEL, "--updates", "8", flag, value])
    assert code == EXIT_CONFIG
    assert not out.exists() or os.listdir(out) == []
