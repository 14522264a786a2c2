"""Acceptance suite: one test per release criterion, in order.

Each test prints a single pass/fail line (visible with ``pytest -s``).
The statistical criteria (6 and 8) run three fixed seeds each and assert
on the seed means, per their definitions.
"""

import functools
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from selkd import synth
from selkd.align import em_train, align_pair
from selkd.cli import RUN_GRAPH, main as cli_main
from selkd.curriculum import (
    ThresholdSchedule,
    exposure_period,
    keeps_raw,
    raw_ratio,
    train_student,
)
from selkd.metrics import (
    metric_report,
    pair_stats,
    repetition_ratio,
    threshold_views,
)
from selkd.nat import (
    ModelConfig,
    ctc_loss_and_grad,
    decode_greedy,
    forward,
    min_frames,
    train,
    viterbi_align,
)
from selkd.scoring import ScoreRecord, ScoreTable, score_corpus

from conftest import random_lattice
from oracles import brute_best_paths, brute_total_prob, ctc_loss, fd_gradient, frame_path_logprob


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")
        return inner
    return wrap


# -- 1 ----------------------------------------------------------------------

@criterion(1, "exposure-period arithmetic matches the reference length-bucket rows")
def test_criterion_1_exposure_table():
    schedule = ThresholdSchedule(start=0.4, end=1.0, total_updates=300000)
    table = [
        (0.826, 71.0), (0.740, 56.6), (0.696, 49.3), (0.680, 46.6),
        (0.670, 45.1), (0.658, 43.0), (0.644, 40.6),
    ]
    for score, expected_pct in table:
        got = exposure_period(score, schedule) * 100.0
        assert abs(got - expected_pct) <= 0.2, (score, got, expected_pct)


# -- 2 ----------------------------------------------------------------------

@criterion(2, "CTC path-sum equals brute-force enumeration (rel err <= 1e-10)")
def test_criterion_2_ctc_forward_vs_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        vocab = int(rng.integers(2, 6))       # includes blank, <= 5
        frames = int(rng.integers(1, 9))      # T <= 8
        tgt_len = int(rng.integers(1, 5))     # |Y| <= 4
        target = tuple(int(x) for x in rng.integers(1, vocab, size=tgt_len))
        if frames < min_frames(target):
            continue
        lattice = random_lattice(rng, frames, vocab)
        total = brute_total_prob(lattice.tolist(), target)
        loss = ctc_loss(lattice, target)
        rel = abs(math.exp(-loss) - total) / total
        assert rel <= 1e-10, (frames, vocab, target, rel)
        checked += 1
    assert checked >= 200


# -- 3 ----------------------------------------------------------------------

@criterion(3, "CTC gradient matches central differences (rel err <= 1e-4)")
def test_criterion_3_gradient_finite_differences():
    rng = np.random.default_rng(3033)
    checked = 0
    worst = 0.0
    while checked < 50:
        vocab = int(rng.integers(3, 6))
        frames = int(rng.integers(2, 6))
        tgt_len = int(rng.integers(1, 3))
        target = tuple(int(x) for x in rng.integers(1, vocab, size=tgt_len))
        if frames < min_frames(target):
            continue
        lattice = random_lattice(rng, frames, vocab)
        _, grad = ctc_loss_and_grad(lattice, target)
        fd = fd_gradient(lambda m: ctc_loss(np.array(m), target), lattice.tolist(), step=1e-5)
        for t in range(frames):
            for v in range(vocab):
                rel = abs(grad[t, v] - fd[t][v]) / max(abs(fd[t][v]), 1e-6)
                worst = max(worst, rel)
        checked += 1
    assert worst <= 1e-4, worst


# -- 4 ----------------------------------------------------------------------

@criterion(4, "Viterbi equals brute-force argmax on every instance size")
def test_criterion_4_viterbi_optimality():
    rng = np.random.default_rng(4044)
    for frames in range(1, 7):            # T <= 6
        for tgt_len in range(1, 4):       # |Y| <= 3
            for vocab in range(2, 6):
                for _ in range(3):
                    target = tuple(int(x) for x in rng.integers(1, vocab, size=tgt_len))
                    if frames < min_frames(target):
                        continue
                    lattice = random_lattice(rng, frames, vocab)
                    best_lp, best_set = brute_best_paths(lattice.tolist(), target)
                    path = viterbi_align(lattice, target)
                    assert frame_path_logprob(lattice, path) == pytest.approx(best_lp, abs=1e-9)
                    assert path in best_set


# -- 5 ----------------------------------------------------------------------

@criterion(5, "EM aligner: monotone likelihood and bijective-link accuracy")
def test_criterion_5_em_aligner():
    spec = synth.SynthTaskSpec(source_vocab_size=10, target_vocab_size=20,
                               len_min=3, len_max=8, num_modes=2,
                               mode_probs=(0.7, 0.3), mistake_rate=0.0, seed=50)
    sc = synth.generate(spec, n=1000)
    model = em_train(sc.corpus.pairs("raw"), iterations=10)
    lls = model.log_likelihood
    assert len(lls) == 10
    for a, b in zip(lls, lls[1:]):
        assert b >= a - 1e-9, (a, b)

    from test_align import bijective_bitext

    bitext = bijective_bitext(1000, seed=51)
    bij = em_train(bitext, iterations=5)
    total = correct = 0
    for src, tgt in bitext:
        for j, i in enumerate(align_pair(bij, src, tgt), start=1):
            total += 1
            correct += int(i == j)
    assert correct / total >= 0.99, correct / total


# -- 6 ----------------------------------------------------------------------

def _selection_complexity_seed(seed):
    spec = synth.SynthTaskSpec(source_vocab_size=12, target_vocab_size=16,
                               len_min=3, len_max=8, num_modes=4,
                               mode_probs=(0.5, 0.17, 0.17, 0.16),
                               mistake_rate=0.0, seed=seed)
    sc = synth.generate(spec, n=5000)
    corpus = sc.corpus
    cfg = ModelConfig(embed_dim=16, hidden_dim=32, upsample=2, window=0,
                      learning_rate=0.25, epochs=3, batch_size=64, seed=seed)
    evaluator = train(corpus.pairs("distilled"), cfg, corpus.src_vocab, corpus.tgt_vocab).model
    table = score_corpus(evaluator, corpus, variant="ctc")
    threshold = next(t for t in sorted({r.score for r in table.records})
                     if 0.4 <= raw_ratio(table, t) <= 0.6)
    ratio = raw_ratio(table, threshold)
    raw_pairs, distilled_pairs = corpus.pairs("raw"), corpus.pairs("distilled")
    align_model = em_train(raw_pairs, iterations=4)
    raw = pair_stats(raw_pairs, align_model)
    distilled = pair_stats(distilled_pairs, align_model)
    reports = {label: metric_report(stats, label)
               for label, stats in threshold_views(corpus, table, threshold, raw, distilled)}
    selected, replaced = reports["selected"], reports["replaced"]
    return {
        "ratio": ratio,
        "c_selected": selected.uncertainty,
        "c_replaced": replaced.uncertainty,
        "s_selected": selected.shift,
        "s_replaced": replaced.shift,
        "c_all_raw": metric_report(raw, "raw").uncertainty,
    }


@pytest.mark.slow
@criterion(6, "selected raw is less complex than replaced raw (3 seeds)")
def test_criterion_6_selected_vs_replaced_complexity():
    for seed in (101, 202, 303):
        r = _selection_complexity_seed(seed)
        assert 0.4 <= r["ratio"] <= 0.6, r
        assert r["c_selected"] < r["c_replaced"], r
        assert r["s_selected"] < r["s_replaced"], r
        assert r["c_selected"] <= r["c_all_raw"], r


# -- 7 ----------------------------------------------------------------------

@criterion(7, "selection algebra: ratio monotone, boundaries, RAW iff score >= T")
def test_criterion_7_selection_algebra():
    rng = np.random.default_rng(7077)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        scores = [float(x) for x in rng.random(n)]
        table = ScoreTable(records=tuple(
            ScoreRecord(index=i, score=s, distance=0, ref_len=1, frame_len=2)
            for i, s in enumerate(scores)))
        assert raw_ratio(table, 0.0) == 1.0
        assert raw_ratio(table, 1.01) == 0.0
        thresholds = sorted(float(x) for x in rng.random(6) * 1.01)
        ratios = [raw_ratio(table, t) for t in thresholds]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        t_k = float(rng.random() * 1.01)
        for keep, s in zip(keeps_raw(table, t_k).tolist(), scores, strict=True):
            assert keep == (s >= t_k)


# -- 8 ----------------------------------------------------------------------

def _token_accuracy(refs, hyps):
    match = total = 0
    for ref, hyp in zip(refs, hyps):
        m = min(len(ref), len(hyp))
        match += sum(1 for i in range(m) if ref[i] == hyp[i])
        total += max(len(ref), len(hyp))
    return match / total


def _students_seed(seed, updates=1800, n=800):
    spec = synth.SynthTaskSpec(source_vocab_size=10, target_vocab_size=40,
                               len_min=7, len_max=7, num_modes=4,
                               mode_probs=(0.5, 0.1, 0.2, 0.2),
                               mistake_rate=0.1, mistake_kind="repeat-token", seed=seed)
    sc = synth.generate(spec, n=n)
    held = synth.generate(replace(spec, mistake_rate=0.0, seed=seed + 1000), n=800)
    ev_cfg = ModelConfig(embed_dim=16, hidden_dim=32, upsample=2, window=0,
                         learning_rate=0.25, epochs=3, batch_size=64, seed=seed)
    evaluator = train(sc.corpus.pairs("distilled"), ev_cfg, sc.corpus.src_vocab,
                      sc.corpus.tgt_vocab).model
    table = score_corpus(evaluator, sc.corpus, variant="ctc")
    stu_cfg = ModelConfig(embed_dim=32, hidden_dim=64, upsample=2, window=1,
                          learning_rate=0.3, epochs=1, batch_size=12, seed=seed + 7)
    refs = [ex.distilled_target for ex in held.corpus.examples]
    sources = [ex.source for ex in held.corpus.examples]
    out = {}
    for name, schedule in (("selective", ThresholdSchedule(0.4, 1.0, updates)),
                           ("kd", ThresholdSchedule(1.01, 1.01, updates)),
                           ("raw", ThresholdSchedule(0.0, 0.0, updates))):
        student = train_student(sc.corpus, table, schedule, stu_cfg).model
        hyps = [decode_greedy(forward(student, src)).output for src in sources]
        nonempty = [h for h in hyps if h]
        assert nonempty, f"{name} student decoded nothing but blanks"
        out[name] = (repetition_ratio(nonempty), _token_accuracy(refs, hyps))
    return out


@pytest.mark.slow
@criterion(8, "selective student repeats less than KD-only, scores >= raw-only (3-seed mean)")
def test_criterion_8_repetition_and_accuracy():
    results = [_students_seed(seed) for seed in (11, 22, 33)]
    rep_selective = statistics.mean(r["selective"][0] for r in results)
    rep_kd = statistics.mean(r["kd"][0] for r in results)
    acc_selective = statistics.mean(r["selective"][1] for r in results)
    acc_raw = statistics.mean(r["raw"][1] for r in results)
    assert rep_selective < rep_kd, (rep_selective, rep_kd)
    assert acc_selective >= acc_raw, (acc_selective, acc_raw)


# -- 9 ----------------------------------------------------------------------

def _run_stage_chain(base):
    synth_dir = base / "synth"
    ev_dir = base / "ev"
    score_dir = base / "scores"
    args = ["--n", "60", "--len-min", "3", "--len-max", "5", "--seed", "12"]
    assert cli_main(["synth", "--out", str(synth_dir), *args]) == 0
    corpus = ["--src", str(synth_dir / "src.txt"), "--raw", str(synth_dir / "raw.txt"),
              "--kd", str(synth_dir / "kd.txt")]
    assert cli_main(["train-evaluator", "--out", str(ev_dir), *corpus,
                     "--epochs", "2", "--batch-size", "8",
                     "--embed-dim", "8", "--hidden-dim", "12"]) == 0
    assert cli_main(["score", "--out", str(score_dir), *corpus,
                     "--checkpoint", str(ev_dir / "checkpoint.txt")]) == 0
    out = {}
    for sub in (synth_dir, ev_dir, score_dir):
        for p in sorted(sub.iterdir()):
            out[f"{sub.name}/{p.name}"] = p.read_bytes()
    return out


@criterion(9, "reruns give byte-identical artifacts")
def test_criterion_9_determinism(tmp_path):
    def normalize(blob, root):
        # manifests record the run's own paths; they are legitimate
        # config, not artifact content
        return blob.replace(str(root).encode(), b"ROOT")

    first = _run_stage_chain(tmp_path / "a")
    second = _run_stage_chain(tmp_path / "b")
    assert first.keys() == second.keys()
    for key in first:
        if key.endswith("manifest.json"):
            assert normalize(first[key], tmp_path / "a") == \
                normalize(second[key], tmp_path / "b"), f"manifest differs beyond config: {key}"
        else:
            assert first[key] == second[key], f"artifact differs: {key}"
    # rerun in place: identical inputs and paths, everything matches exactly
    third = _run_stage_chain(tmp_path / "a")
    for key in first:
        assert first[key] == third[key], f"rerun differs: {key}"

    # every remaining stage too: a small full run, repeated in place,
    # must leave every byte of every artifact unchanged
    def full_bytes(out):
        flags = ["full", "--out", str(out), "--n", "60", "--updates", "30",
                 "--epochs", "2", "--batch-size", "8", "--embed-dim", "8",
                 "--hidden-dim", "12", "--len-min", "3", "--len-max", "5"]
        assert cli_main(flags) == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    run1 = full_bytes(tmp_path / "full")
    run2 = full_bytes(tmp_path / "full")
    assert run1.keys() == run2.keys()
    for key in run1:
        assert run1[key] == run2[key], f"full-pipeline rerun differs: {key}"


# -- 10 ---------------------------------------------------------------------

@pytest.mark.slow
@criterion(10, "default full pipeline finishes under 5 minutes")
def test_criterion_10_end_to_end_smoke(tmp_path):
    out = tmp_path / "run"
    started = time.monotonic()
    assert cli_main(["full", "--out", str(out)]) == 0  # defaults: n=2000, K=2000
    elapsed = time.monotonic() - started
    for row in RUN_GRAPH:
        assert (out / row.dir / "manifest.json").exists(), row.dir
    assert elapsed < 300.0, f"full pipeline took {elapsed:.0f}s"
