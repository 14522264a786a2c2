import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selkd import metrics as metrics_mod
from selkd.align import NULL_LINK, NULL_TOKEN, AlignmentModel, align_pair, em_train
from selkd.curriculum import ThresholdSchedule
from selkd.metrics import (
    MetricsError,
    align_bitext,
    alignment_shift,
    alignment_shift_pair,
    corpus_bleu,
    metric_report,
    repetition_ratio,
    translation_uncertainty,
    view_distilled,
    view_raw,
    view_replaced_raw,
    view_selected_raw,
    view_training_mix,
)
from selkd import synth

from test_align import bijective_bitext, dense_table


def test_uncertainty_zero_for_deterministic_mapping():
    bitext = bijective_bitext(300, seed=9)
    model = em_train(bitext, iterations=4)
    assert translation_uncertainty(bitext, align_bitext(bitext, model)) == 0.0


def test_uncertainty_fifty_fifty_is_ln2():
    # One source type aligned to two target types with equal counts.
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {8: 0.01, 9: 0.01}, 5: {8: 0.5, 9: 0.5}}))
    bitext = [((5,), (8,))] * 50 + [((5,), (9,))] * 50
    links = align_bitext(bitext, model)
    assert translation_uncertainty(bitext, links) == pytest.approx(math.log(2), rel=1e-12)


def test_uncertainty_errors_when_everything_null():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {8: 1.0}, 5: {}}))
    bitext = [((5,), (8,))]
    with pytest.raises(MetricsError):
        translation_uncertainty(bitext, align_bitext(bitext, model))


def test_multimodal_raw_more_uncertain_than_distilled():
    spec = synth.SynthTaskSpec(source_vocab_size=8, target_vocab_size=16,
                               len_min=3, len_max=6, num_modes=4,
                               mode_probs=(0.25,) * 4, mistake_rate=0.0, seed=21)
    sc = synth.generate(spec, n=800)
    raw = view_raw(sc.corpus)
    kd = view_distilled(sc.corpus)
    model = em_train(raw, iterations=4)
    assert translation_uncertainty(raw, align_bitext(raw, model)) > \
        translation_uncertainty(kd, align_bitext(kd, model))


def test_shift_pair_cases():
    # identity links on equal lengths
    assert alignment_shift_pair((4, 5), (7, 8), (1, 2)) == 0.0
    # crossed links: |1/2-2/2| + |2/2-1/2| = 1.0 over |Y|=2
    assert alignment_shift_pair((4, 5), (7, 8), (2, 1)) == pytest.approx(0.5)
    # NULL links contribute nothing
    assert alignment_shift_pair((4, 5), (7, 8), (NULL_LINK, NULL_LINK)) == 0.0


def test_shift_pair_rejects_partial_links():
    with pytest.raises(MetricsError):
        alignment_shift_pair((4, 5), (7, 8), (1,))


def test_shift_corpus_mean():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {}, 1: {7: 1.0}, 2: {8: 1.0}}))
    # monotone pair tau=0 plus crossed pair tau=0.5 -> mean 0.25
    bitext = [((1, 2), (7, 8)), ((2, 1), (7, 8))]
    assert alignment_shift(bitext, align_bitext(bitext, model)) == pytest.approx(0.25)


def test_reversed_modes_shift_more():
    spec = synth.SynthTaskSpec(source_vocab_size=8, target_vocab_size=16,
                               len_min=4, len_max=7, num_modes=2,
                               mode_probs=(0.5, 0.5), mistake_rate=0.0, seed=31)
    sc = synth.generate(spec, n=600)
    pairs = list(zip(sc.corpus.examples, sc.modes))
    canonical = [(ex.source, ex.raw_target) for ex, m in pairs if m == 0]
    reversed_ = [(ex.source, ex.raw_target) for ex, m in pairs if m == 1]
    model = em_train(view_raw(sc.corpus), iterations=4)
    assert alignment_shift(reversed_, align_bitext(reversed_, model)) > \
        alignment_shift(canonical, align_bitext(canonical, model))


def test_repetition_examples():
    assert repetition_ratio([(1, 1, 2)]) == pytest.approx(1000 / 3)
    assert repetition_ratio([(1, 2, 3), (4, 5)]) == 0.0
    with pytest.raises(MetricsError):
        repetition_ratio([])


@given(st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6).map(tuple),
                min_size=1, max_size=10))
def test_repetition_invariant_under_sentence_order(sentences):
    assert repetition_ratio(sentences) == repetition_ratio(list(reversed(sentences)))


def test_repetition_matches_generator_expectation():
    # Construction: distilled = canonical map of an iid-uniform source,
    # with one duplicated token inserted at rate rho. With source vocab a
    # multiple of the synonym-group count, adjacent canonical tokens
    # collide with probability 1/groups, so
    #   E[repeats]/E[tokens] = ((E[L]-1)/groups + rho) / (E[L] + rho).
    spec = synth.SynthTaskSpec(source_vocab_size=12, target_vocab_size=16,
                               len_min=4, len_max=8, num_modes=4,
                               mode_probs=(0.25,) * 4, mistake_rate=0.1,
                               mistake_kind="repeat-token", seed=77)
    assert spec.source_vocab_size % spec.synonym_groups == 0
    n = 4000
    sc = synth.generate(spec, n=n)
    mean_len = (spec.len_min + spec.len_max) / 2
    expected = 1000.0 * ((mean_len - 1) / spec.synonym_groups + spec.mistake_rate) \
        / (mean_len + spec.mistake_rate)
    got = repetition_ratio([ex.distilled_target for ex in sc.corpus.examples])
    assert got == pytest.approx(expected, abs=10.0)


def test_bleu_identity_is_exactly_100():
    hyps = [(1, 2, 3), (4, 5)]
    assert corpus_bleu(hyps, hyps) == 100.0


def test_bleu_no_overlap_is_zero():
    assert corpus_bleu([(1, 2)], [(3, 4)]) == 0.0


def test_bleu_hand_worked_fixture():
    # refs: "the cat sat on the mat" / "dogs bark"
    # hyps: "the cat sat on mat"     / "dogs bark loudly"
    the, cat, sat, on, mat, dogs, bark, loudly = range(1, 9)
    refs = [(the, cat, sat, on, the, mat), (dogs, bark)]
    hyps = [(the, cat, sat, on, mat), (dogs, bark, loudly)]
    # by hand: p1 = (5+2)/(5+3) = 7/8
    #          p2 = (3+1)/(4+2) = 2/3   (on-mat and bark-loudly miss)
    #          p3 = (2+0)/(3+1) = 1/2
    #          p4 = (1+0)/(2+0) = 1/2
    #          lengths 8 vs 8 -> brevity penalty 1
    expected = 100.0 * (7 / 8 * 2 / 3 * 1 / 2 * 1 / 2) ** 0.25
    assert corpus_bleu(hyps, refs) == pytest.approx(expected, rel=1e-12)


def test_bleu_smoothing_and_brevity():
    # ref "a b c d e", hyp "a x": p1 = 1/2 unsmoothed,
    # p2 = (0+1)/(1+1) = 1/2 smoothed, p3 = p4 = 1/1 smoothed (no n-grams),
    # BP = exp(1 - 5/2).
    a, b, c, d, e, x = range(1, 7)
    expected = 100.0 * math.exp(1 - 5 / 2) * (0.5 * 0.5 * 1.0 * 1.0) ** 0.25
    assert corpus_bleu([(a, x)], [(a, b, c, d, e)]) == pytest.approx(expected, rel=1e-12)


def test_bleu_input_validation():
    with pytest.raises(MetricsError):
        corpus_bleu([], [])
    with pytest.raises(MetricsError):
        corpus_bleu([(1,)], [(1,), (2,)])
    assert corpus_bleu([()], [(1, 2)]) == 0.0  # empty hypothesis side


def test_metric_report_single_mode_distilled_has_zero_uncertainty():
    spec = synth.SynthTaskSpec(source_vocab_size=8, target_vocab_size=8,
                               len_min=3, len_max=6, num_modes=1,
                               mode_probs=(1.0,), mistake_rate=0.0, seed=5)
    sc = synth.generate(spec, n=400)
    kd = view_distilled(sc.corpus)
    model = em_train(kd, iterations=4)
    rep = metric_report(kd, model, "distilled")
    assert rep.uncertainty == 0.0
    assert rep.sentences == 400
    assert rep.label == "distilled"


def test_metric_report_aligns_each_pair_once(monkeypatch):
    bitext = bijective_bitext(30, seed=4)
    model = em_train(bitext, iterations=2)
    calls = []

    def counting_align_pair(model, src, tgt):
        calls.append((src, tgt))
        return align_pair(model, src, tgt)

    monkeypatch.setattr(metrics_mod, "align_pair", counting_align_pair)
    metric_report(bitext, model, "raw")
    assert len(calls) == len(bitext)


def test_metric_report_empty_view_errors():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {}}))
    with pytest.raises(MetricsError, match="empty"):
        metric_report([], model, "empty-view")


def test_views_partition_corpus(memorized_setup):
    corpus, result = memorized_setup
    from selkd.scoring import score_corpus

    table = score_corpus(result.model, corpus)
    selected = view_selected_raw(corpus, table, 0.5)
    replaced = view_replaced_raw(corpus, table, 0.5)
    assert len(selected) + len(replaced) == len(corpus)
    mix = view_training_mix(corpus, table, 0.5)
    assert len(mix) == len(corpus)


def test_bucket_rows_present_with_scores(memorized_setup):
    corpus, result = memorized_setup
    from selkd.scoring import score_corpus

    table = score_corpus(result.model, corpus)
    model = em_train(view_raw(corpus), iterations=2)
    sched = ThresholdSchedule(start=0.4, end=1.0, total_updates=100)
    rep = metric_report(view_raw(corpus), model, "raw", table=table, schedule=sched)
    assert len(rep.buckets) == 7
    small = rep.buckets[0]
    assert small.count == len(corpus)  # all sentences shorter than 10
    assert small.mean_score == pytest.approx(1.0)
    assert small.mean_exposure == pytest.approx(1.0)
