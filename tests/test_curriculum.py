import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selkd.cli import EXIT_FORMAT, main
from selkd.curriculum import (
    ScheduleError,
    ThresholdSchedule,
    exposure_period,
    keeps_raw,
    raw_ratio,
    threshold_at,
    train_student,
    write_decisions_tsv,
)
from selkd.nat import ModelConfig
from selkd.scoring import ScoreRecord, ScoreTable

from conftest import make_corpus


def table_from_scores(scores) -> ScoreTable:
    recs = tuple(
        ScoreRecord(index=i, score=s, distance=0, ref_len=1, frame_len=2)
        for i, s in enumerate(scores)
    )
    return ScoreTable(records=recs)


LINEAR = ThresholdSchedule(start=0.4, end=1.0, total_updates=300000)


def test_threshold_endpoints_and_midpoint():
    assert threshold_at(LINEAR, 0) == 0.4
    assert threshold_at(LINEAR, 300000) == 1.0
    assert threshold_at(LINEAR, 150000) == pytest.approx(0.7)


@pytest.mark.parametrize("total", [1, 7, 10, 300000])
@pytest.mark.parametrize("t", [0.0, 0.55, 1.01])
def test_threshold_fixed_mode(t, total):
    sched = ThresholdSchedule(t, t, total)
    assert (sched.start, sched.end, sched.total_updates) == (t, t, total)
    assert all(threshold_at(sched, k) == t for k in range(total + 1))


def test_threshold_out_of_range():
    with pytest.raises(ScheduleError):
        threshold_at(LINEAR, -1)
    with pytest.raises(ScheduleError):
        threshold_at(LINEAR, 300001)


def test_negative_zero_endpoints_read_as_zero():
    schedule = ThresholdSchedule(start=-0.0, end=-0.0, total_updates=3)
    assert str(schedule.start) == str(schedule.end) == str(threshold_at(schedule, 0)) == "0.0"


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        ThresholdSchedule(start=-0.1, end=1.0, total_updates=10)
    with pytest.raises(ScheduleError):
        ThresholdSchedule(start=0.2, end=1.02, total_updates=10)
    ThresholdSchedule(1.01, 1.01, 5)  # the deselect-all sentinel is legal


@given(st.integers(min_value=1, max_value=1000), st.data())
def test_threshold_monotone_when_rising(total, data):
    sched = ThresholdSchedule(start=0.3, end=0.9, total_updates=total)
    ks = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=total), min_size=2, max_size=8)))
    ts = [threshold_at(sched, k) for k in ks]
    assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))


def two_target_corpus(n=4):
    rows = [(f"s{i} s{i}", f"r{i} r{i}", f"k{i} k{i}") for i in range(n)]
    return make_corpus(rows)


def test_select_all_raw_at_zero():
    assert keeps_raw(table_from_scores([0.0, 0.3, 0.9, 1.0]), 0.0).tolist() == [True] * 4


def test_select_all_kd_at_sentinel():
    # The targets this picks are checked end to end by
    # test_cli.py::test_select_sentinel_reproduces_distilled_file.
    assert keeps_raw(table_from_scores([0.0, 0.3, 0.9, 1.0]), 1.01).tolist() == [False] * 4


def test_select_mixed_and_tie_goes_raw():
    assert keeps_raw(table_from_scores([0.9, 0.3]), 0.5).tolist() == [True, False]
    tie = keeps_raw(table_from_scores([0.5, 0.3]), 0.5)
    assert tie[0]  # score == threshold selects raw


def test_select_missing_score_errors(tmp_path, capsys):
    # The select stage checks that the table covers the corpus before it
    # applies the rule.
    for name in ("src", "raw", "kd"):
        (tmp_path / f"{name}.txt").write_text("a\nb\nc\n")
    (tmp_path / "scores.tsv").write_text("0\t0.500000\t0\t1\t2\n1\t0.500000\t0\t1\t2\n")
    out = tmp_path / "sel"
    assert main(["select", "--out", str(out), "--src", str(tmp_path / "src.txt"),
                 "--raw", str(tmp_path / "raw.txt"), "--kd", str(tmp_path / "kd.txt"),
                 "--scores", str(tmp_path / "scores.tsv"), "--threshold", "0.5"]) == EXIT_FORMAT
    assert "score table has 2 rows for a corpus of 3" in capsys.readouterr().err
    assert (out / "INCOMPLETE").exists()


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30),
       st.floats(min_value=0, max_value=1.01))
def test_select_rule_holds_per_record(scores, threshold):
    table = table_from_scores(scores)
    keep = keeps_raw(table, threshold)
    assert keep.dtype == bool and len(keep) == len(scores)
    for k, s in zip(keep.tolist(), scores):
        assert k == (s >= threshold)
    # decisions.tsv states the same choice and the threshold on every row
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "decisions.tsv")
        write_decisions_tsv(table, threshold, path)
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
    assert [row[1] for row in rows] == ["RAW" if s >= threshold else "KD" for s in scores]
    assert all(row[3] == f"{threshold:.6f}" for row in rows)


def test_raw_ratio_cases():
    t = table_from_scores([0.2, 0.4, 0.6, 0.8])
    assert raw_ratio(t, 0.0) == 1.0
    assert raw_ratio(t, 1.01) == 0.0
    assert raw_ratio(t, 0.5) == 0.5


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40), st.data())
def test_raw_ratio_monotone_nonincreasing(scores, data):
    t = table_from_scores(scores)
    thresholds = sorted(data.draw(
        st.lists(st.floats(min_value=0, max_value=1.01), min_size=2, max_size=6)))
    ratios = [raw_ratio(t, x) for x in thresholds]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_exposure_reference_rows():
    # Reference length-bucket rows: mean score -> exposure percentage
    # under the default 0.4 -> 1.0 schedule.
    sched = ThresholdSchedule(start=0.4, end=1.0, total_updates=300000)
    expected = [
        (0.826, 71.0), (0.740, 56.6), (0.696, 49.3), (0.680, 46.6),
        (0.670, 45.1), (0.658, 43.0), (0.644, 40.6),
    ]
    for score, pct in expected:
        assert exposure_period(score, sched) * 100 == pytest.approx(pct, abs=0.2)


def test_exposure_below_start_is_zero():
    sched = ThresholdSchedule(start=0.4, end=1.0, total_updates=100)
    assert exposure_period(0.4, sched) == 0.0
    assert exposure_period(0.1, sched) == 0.0
    assert exposure_period(1.0, sched) == 1.0


def test_exposure_fixed_schedule_step():
    sched = ThresholdSchedule(0.5, 0.5, 10)
    assert exposure_period(0.5, sched) == 1.0
    assert exposure_period(0.49, sched) == 0.0


def student_config(seed=5, batch_size=2):
    return ModelConfig(embed_dim=6, hidden_dim=8, upsample=2, window=1,
                       learning_rate=0.2, epochs=1, batch_size=batch_size, seed=seed)


def replace_side(corpus, raw_from_distilled: bool):
    """Same corpus and vocabularies with one target side overwritten by
    the other, so model shapes and token ids coincide exactly."""
    from selkd.corpus import Corpus, TriExample

    examples = []
    for ex in corpus.examples:
        tgt = ex.distilled_target if raw_from_distilled else ex.raw_target
        examples.append(TriExample(source=ex.source, raw_target=tgt, distilled_target=tgt))
    return Corpus(examples=tuple(examples), src_vocab=corpus.src_vocab,
                  tgt_vocab=corpus.tgt_vocab)


def test_student_fixed_sentinel_equals_training_on_distilled():
    # Fixed T=1.01 always picks distilled targets; the trace must equal
    # training on a corpus whose raw side IS the distilled data.
    corpus = make_corpus([
        ("a b", "p q", "x y"), ("b a", "q p", "y x"),
        ("a a", "p p", "x x"), ("b b", "q q", "y y"),
    ])
    kd_as_raw = replace_side(corpus, raw_from_distilled=True)
    table = table_from_scores([0.5, 0.5, 0.5, 0.5])
    updates = 12
    r_sentinel = train_student(corpus, table, ThresholdSchedule(1.01, 1.01, updates),
                               student_config())
    r_kd = train_student(kd_as_raw, table, ThresholdSchedule(0.0, 0.0, updates),
                         student_config())
    assert [row.loss for row in r_sentinel.log] == [row.loss for row in r_kd.log]
    for name in r_sentinel.model.params:
        np.testing.assert_array_equal(r_sentinel.model.params[name], r_kd.model.params[name])
    assert all(row.raw_fraction == 0.0 for row in r_sentinel.log)
    assert all(row.raw_fraction == 1.0 for row in r_kd.log)


def test_student_fixed_zero_equals_training_on_raw():
    corpus = make_corpus([
        ("a b", "p q", "x y"), ("b a", "q p", "y x"),
    ])
    raw_only = replace_side(corpus, raw_from_distilled=False)
    table = table_from_scores([0.7, 0.2])
    updates = 8
    r_zero = train_student(corpus, table, ThresholdSchedule(0.0, 0.0, updates),
                           student_config())
    r_raw = train_student(raw_only, table, ThresholdSchedule(1.01, 1.01, updates),
                          student_config())
    assert [row.loss for row in r_zero.log] == [row.loss for row in r_raw.log]


def test_student_linear_raw_ratio_nonincreasing():
    corpus = two_target_corpus(6)
    scores = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    table = table_from_scores(scores)
    updates = 30
    sched = ThresholdSchedule(start=0.0, end=1.0, total_updates=updates)
    result = train_student(corpus, table, sched, student_config(batch_size=3))
    # corpus-level raw ratio at each logged threshold is exactly nonincreasing
    ratios = [raw_ratio(table, row.threshold) for row in result.log]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert len(result.log) == updates
    ks = [row.update for row in result.log]
    assert ks == list(range(updates))


def test_student_seed_determinism():
    corpus = two_target_corpus(4)
    table = table_from_scores([0.2, 0.4, 0.6, 0.8])
    updates = 10
    sched = ThresholdSchedule(start=0.2, end=0.9, total_updates=updates)
    a = train_student(corpus, table, sched, student_config())
    b = train_student(corpus, table, sched, student_config())
    assert a.log == b.log
    for name in a.model.params:
        np.testing.assert_array_equal(a.model.params[name], b.model.params[name])


def test_student_init_model_used():
    corpus = two_target_corpus(4)
    table = table_from_scores([0.2, 0.4, 0.6, 0.8])
    updates = 4
    sched = ThresholdSchedule(start=0.2, end=0.9, total_updates=updates)
    from selkd.nat import NatModel

    warm = NatModel.initialize(student_config(), corpus.src_vocab, corpus.tgt_vocab)
    warm.params["b_out"] += 0.25  # make the start recognizably different
    res = train_student(corpus, table, sched, student_config(), init_model=warm.copy())
    cold = train_student(corpus, table, sched, student_config())
    assert not np.array_equal(res.model.params["b_out"], cold.model.params["b_out"])


def test_student_init_architecture_mismatch_rejected():
    corpus = two_target_corpus(2)
    table = table_from_scores([0.5, 0.5])
    sched = ThresholdSchedule(0.5, 0.5, 4)
    from selkd.nat import NatModel, TrainingError

    other_cfg = ModelConfig(embed_dim=4, hidden_dim=8, upsample=2, window=1,
                            learning_rate=0.2, epochs=1, batch_size=2, seed=5)
    warm = NatModel.initialize(other_cfg, corpus.src_vocab, corpus.tgt_vocab)
    with pytest.raises(TrainingError, match="architecture"):
        train_student(corpus, table, sched, student_config(), init_model=warm)


def test_student_init_wrong_vocab_rejected():
    corpus = two_target_corpus(2)
    other = make_corpus([("zz", "qq", "ww")])
    table = table_from_scores([0.5, 0.5])
    sched = ThresholdSchedule(0.5, 0.5, 4)
    from selkd.nat import NatModel, TrainingError

    wrong = NatModel.initialize(student_config(), other.src_vocab, other.tgt_vocab)
    with pytest.raises(TrainingError):
        train_student(corpus, table, sched, student_config(), init_model=wrong)


def test_student_without_any_update_raises():
    # Fixed T = 1.01 picks every distilled target, and both are 3 tokens on
    # 2 frames; the feasible raw targets are never drawn.
    corpus = make_corpus([("a", "p", "x y z"), ("b", "q", "y z x")])
    from selkd.nat import TrainingError

    with pytest.raises(TrainingError, match="no update happened"):
        train_student(corpus, table_from_scores([0.5, 0.5]), ThresholdSchedule(1.01, 1.01, 5),
                      student_config())


def test_student_skips_an_infeasible_raw_target_only_when_raw_is_picked(monkeypatch):
    # Example 0's raw target needs 3 frames of its 2; its distilled one fits.
    # Both examples score 0.5, so T_k <= 0.5 draws both raw pairs and a
    # higher T_k both distilled ones.
    from selkd import nat

    corpus = make_corpus([("a", "p q r", "x"), ("b", "q", "y")])
    steps = []
    batch_step = nat.batch_step

    def recording(*args):
        result = batch_step(*args)
        steps.append(result[1])
        return result

    monkeypatch.setattr(nat, "batch_step", recording)
    schedule = ThresholdSchedule(start=0.0, end=1.0, total_updates=8)
    result = train_student(corpus, table_from_scores([0.5, 0.5]), schedule, student_config())
    picks_raw = [row.threshold <= 0.5 for row in result.log]
    assert picks_raw == [True] * 5 + [False] * 3
    assert [row.raw_fraction for row in result.log] == [1.0 if raw else 0.0 for raw in picks_raw]
    assert steps == [1 if raw else 0 for raw in picks_raw]
    assert result.skipped == 5
