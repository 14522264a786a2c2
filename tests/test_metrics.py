import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selkd.align import NULL_LINK, NULL_TOKEN, AlignmentModel, em_train
from selkd.curriculum import ThresholdSchedule
from selkd.metrics import (
    MetricReport,
    MetricsError,
    align_bitext,
    corpus_bleu,
    length_buckets,
    metric_report,
    pair_stats,
    repetition_ratio,
    threshold_views,
)
from selkd import synth
from selkd.scoring import ScoreRecord, ScoreTable, ScoringError

from conftest import make_corpus, unzip_view
from oracles import alignment_shift_links, metric_report_links
from test_align import bijective_bitext, dense_table


def report(bitext, links):
    """The metrics stage's report of one view."""
    return metric_report(pair_stats(bitext, links), "view")


def test_uncertainty_zero_for_deterministic_mapping():
    bitext = bijective_bitext(300, seed=9)
    model = em_train(bitext, iterations=4)
    assert report(bitext, align_bitext(bitext, model)).uncertainty == 0.0


def test_uncertainty_fifty_fifty_is_ln2():
    # One source type aligned to two target types with equal counts.
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {8: 0.01, 9: 0.01}, 5: {8: 0.5, 9: 0.5}}))
    bitext = [((5,), (8,))] * 50 + [((5,), (9,))] * 50
    links = align_bitext(bitext, model)
    assert report(bitext, links).uncertainty == pytest.approx(math.log(2), rel=1e-12)


def test_uncertainty_errors_when_everything_null():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {8: 1.0}, 5: {}}))
    bitext = [((5,), (8,))]
    with pytest.raises(MetricsError):
        report(bitext, align_bitext(bitext, model))


def test_multimodal_raw_more_uncertain_than_distilled():
    spec = synth.SynthTaskSpec(source_vocab_size=8, target_vocab_size=16,
                               len_min=3, len_max=6, num_modes=4,
                               mode_probs=(0.25,) * 4, mistake_rate=0.0, seed=21)
    sc = synth.generate(spec, n=800)
    raw = sc.corpus.pairs("raw")
    kd = sc.corpus.pairs("distilled")
    model = em_train(raw, iterations=4)
    assert report(raw, align_bitext(raw, model)).uncertainty > \
        report(kd, align_bitext(kd, model)).uncertainty


def shift_of(src, tgt, links):
    """The shift ``pair_stats`` records for one pair and its links."""
    return pair_stats([(src, tgt)], [links])[0].shift


def test_shift_pair_cases():
    # identity links on equal lengths
    assert shift_of((4, 5), (7, 8), (1, 2)) == 0.0
    # crossed links: |1/2-2/2| + |2/2-1/2| = 1.0 over |Y|=2
    assert shift_of((4, 5), (7, 8), (2, 1)) == pytest.approx(0.5)
    # NULL links contribute nothing
    assert shift_of((4, 5), (7, 8), (NULL_LINK, NULL_LINK)) == 0.0


def test_shift_pair_rejects_partial_links():
    with pytest.raises(MetricsError):
        shift_of((4, 5), (7, 8), (1,))


def test_pair_shift_sums_left_to_right_bit_for_bit():
    # Long targets in blocks of several pairs: a pairwise or any other
    # reordered sum of the shift terms changes the last bits of some pairs.
    rng = random.Random(5)
    bitext, links = [], []
    for _ in range(300):
        n, m = rng.randint(1, 40), rng.choice((rng.randint(1, 40), 33))
        bitext.append((tuple(rng.randrange(9) for _ in range(n)),
                       tuple(rng.randrange(9) for _ in range(m))))
        links.append(tuple(rng.choice((NULL_LINK, rng.randint(1, n))) for _ in range(m)))
    shifts = [p.shift for p in pair_stats(bitext, links)]
    assert shifts == [alignment_shift_links([pair], [pair_links])
                      for pair, pair_links in zip(bitext, links)]


def test_shift_corpus_mean():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {}, 1: {7: 1.0}, 2: {8: 1.0}}))
    # monotone pair tau=0 plus crossed pair tau=0.5 -> mean 0.25
    bitext = [((1, 2), (7, 8)), ((2, 1), (7, 8))]
    assert report(bitext, align_bitext(bitext, model)).shift == pytest.approx(0.25)


def test_reversed_modes_shift_more():
    spec = synth.SynthTaskSpec(source_vocab_size=8, target_vocab_size=16,
                               len_min=4, len_max=7, num_modes=2,
                               mode_probs=(0.5, 0.5), mistake_rate=0.0, seed=31)
    sc = synth.generate(spec, n=600)
    pairs = list(zip(sc.corpus.examples, sc.modes))
    canonical = [(ex.source, ex.raw_target) for ex, m in pairs if m == 0]
    reversed_ = [(ex.source, ex.raw_target) for ex, m in pairs if m == 1]
    model = em_train(sc.corpus.pairs("raw"), iterations=4)
    assert report(reversed_, align_bitext(reversed_, model)).shift > \
        report(canonical, align_bitext(canonical, model)).shift


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
    kd = sc.corpus.pairs("distilled")
    model = em_train(kd, iterations=4)
    rep = metric_report(pair_stats(kd, align_bitext(kd, model)), "distilled")
    assert rep.uncertainty == 0.0
    assert rep.sentences == 400
    assert rep.label == "distilled"


def test_metric_report_empty_view_errors():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {}}))
    with pytest.raises(MetricsError, match="empty"):
        metric_report(pair_stats([], align_bitext([], model)), "empty-view")


def test_views_partition_corpus(memorized_setup):
    corpus, result = memorized_setup
    from selkd.scoring import score_corpus

    table = score_corpus(result.model, corpus)
    raw, distilled = corpus.pairs("raw"), corpus.pairs("distilled")
    model = em_train(raw, iterations=2)
    views = {label: unzip_view(items) for label, items in threshold_views(
        corpus, table, 0.5, list(zip(raw, align_bitext(raw, model))),
        list(zip(distilled, align_bitext(distilled, model))))}
    selected, replaced, mix = (views[label][0] for label in ("selected", "replaced", "mix"))
    assert len(selected) + len(replaced) == len(corpus)
    assert len(mix) == len(corpus)
    # links picked by index are the links of each view aligned on its own
    for view, links in views.values():
        assert links == align_bitext(view, model)


def test_threshold_views_reject_short_table():
    corpus = make_corpus([("a b", "p q", "x y"), ("b a", "q p", "y x"), ("a a", "p p", "x x")])
    table = ScoreTable(records=tuple(
        ScoreRecord(index=i, score=0.5, distance=0, ref_len=2, frame_len=4)
        for i in range(len(corpus) - 1)))
    links = [(1, 2)] * len(corpus)
    with pytest.raises(ScoringError, match="2 rows for a corpus of 3"):
        threshold_views(corpus, table, 0.5, links, links)


def test_bucket_rows_present_with_scores(memorized_setup):
    corpus, result = memorized_setup
    from selkd.scoring import score_corpus

    table = score_corpus(result.model, corpus)
    sched = ThresholdSchedule(start=0.4, end=1.0, total_updates=100)
    buckets = length_buckets(table, sched)
    assert len(buckets) == 7
    small = buckets[0]
    assert small.count == len(corpus)  # all sentences shorter than 10
    assert small.mean_score == pytest.approx(1.0)
    assert small.mean_exposure == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# metric_report over per-pair records against the per-link walk, bit for bit
# ---------------------------------------------------------------------------

def _report_or_error(fn, *args):
    try:
        return fn(*args)
    except MetricsError as exc:
        return f"MetricsError: {exc}"


def _views_against_oracle(corpus, table, thresholds, raw_links, distilled_links) -> dict:
    """Every view the metrics stage reports, each from ``metric_report`` over
    its records and from the per-link oracle over its pairs and links; the
    two must be equal with ``==``. Returns the label -> result of each view."""
    def items(view, links):
        return list(zip(view, links, pair_stats(view, links)))

    raw = items(corpus.pairs("raw"), raw_links)
    distilled = items(corpus.pairs("distilled"), distilled_links)
    views = [("raw", raw), ("distilled", distilled)]
    for t in thresholds:
        views += [(f"{label}@{t}", picked)
                  for label, picked in threshold_views(corpus, table, t, raw, distilled)]
    results = {}
    for label, picked in views:
        got = _report_or_error(metric_report, [stats for _, _, stats in picked], label)
        want = _report_or_error(metric_report_links, [pair for pair, _, _ in picked],
                                [links for _, links, _ in picked], label)
        assert got == want, label
        results[label] = got
    return results


def _score_table(scores) -> ScoreTable:
    return ScoreTable(records=tuple(
        ScoreRecord(index=i, score=s, distance=0, ref_len=1, frame_len=0)
        for i, s in enumerate(scores)))


def test_metric_report_matches_link_walk_on_hand_built_views():
    # Source types a, b first occur as b then a in the raw view and as a
    # then b in the distilled view, target types likewise; the last pair
    # links nothing, so the view that holds only it is a hole, and nothing
    # reaches 1.01, so that view is empty.
    corpus = make_corpus([("a b", "x y x", "y x y"), ("b a", "y y", "x y"),
                          ("a a b", "x x y", "y y x"), ("b", "z", "z")])
    raw_links = [(2, 1, 2), (1, 2), (3, 1, 2), (NULL_LINK,)]
    distilled_links = [(1, 2, 1), (2, 1), (1, 3, 3), (NULL_LINK,)]
    results = _views_against_oracle(corpus, _score_table([0.5, 0.5, 0.5, 0.9]), (0.7, 1.01),
                                    raw_links, distilled_links)
    assert results["selected@0.7"].startswith("MetricsError: no aligned tokens")
    assert results["selected@1.01"] == "MetricsError: view 'selected@1.01' is empty"
    assert results["raw"].uncertainty > 0


def test_metric_report_matches_link_walk_on_aligned_synth_corpus():
    # A seeded corpus big enough that any other order of the entropy or
    # shift sums changes some view's last bits; EM links, all 11 views.
    spec = synth.SynthTaskSpec(source_vocab_size=12, target_vocab_size=16,
                               len_min=3, len_max=9, num_modes=4,
                               mode_probs=(0.4, 0.3, 0.2, 0.1), mistake_rate=0.1, seed=12)
    corpus = synth.generate(spec, n=400).corpus
    model = em_train(corpus.pairs("raw"), iterations=2)
    rng = random.Random(12)
    table = _score_table([rng.choice((0.25, 0.5, 0.75, 1.0)) for _ in range(len(corpus))])
    results = _views_against_oracle(corpus, table, (0.4, 0.7, 0.9),
                                    align_bitext(corpus.pairs("raw"), model),
                                    align_bitext(corpus.pairs("distilled"), model))
    assert len(results) == 11
    assert all(isinstance(r, MetricReport) for r in results.values())


@st.composite
def aligned_corpora(draw):
    """(corpus, score table, thresholds, raw links, distilled links) over a
    few token types, so types repeat within and across pairs, with NULL
    links common enough that whole pairs and whole views link nothing."""
    src_types, tgt_types = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def sentence(types):
        return st.lists(st.integers(0, types - 1), min_size=1, max_size=5).map(
            lambda ids: " ".join(f"w{i}" for i in ids))

    rows = draw(st.lists(st.tuples(sentence(src_types), sentence(tgt_types), sentence(tgt_types)),
                         min_size=1, max_size=8))
    corpus = make_corpus(rows)

    def links(side):
        out = []
        for ex in corpus.examples:
            target = getattr(ex, side)
            position = st.one_of(st.just(NULL_LINK), st.integers(1, len(ex.source)))
            out.append(tuple(draw(st.lists(position, min_size=len(target), max_size=len(target)))))
        return out

    scores = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=len(rows), max_size=len(rows)))
    thresholds = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.01)), min_size=1, max_size=3))
    return corpus, _score_table(scores), thresholds, links("raw_target"), links("distilled_target")


@given(aligned_corpora())
def test_metric_report_matches_link_walk_on_random_views(case):
    _views_against_oracle(*case)
