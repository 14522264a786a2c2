import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import align_reference, em_per_pair, em_reference
from selkd.align import (
    DEFAULT_NULL_PROB,
    DEFAULT_TENSION,
    NULL_LINK,
    NULL_TOKEN,
    AlignmentConfigError,
    AlignmentError,
    AlignmentModel,
    _prior,
    align_pair,
    check_em_params,
    em_train,
    shape_blocks,
    write_pharaoh,
)
from selkd.corpus import MAX_SENTENCE_LEN
from selkd.metrics import pair_stats
from selkd.rng import Rng


def dense_table(rows):
    """Lexical table array from {source id or NULL_TOKEN: {target id: prob}},
    sized by the largest ids present."""
    v_src = max((x for x in rows if x != NULL_TOKEN), default=-1) + 1
    v_tgt = max((y for row in rows.values() for y in row), default=-1) + 1
    trans = np.zeros((v_src + 1, v_tgt))
    for x, row in rows.items():
        for y, p in row.items():
            trans[x, y] = p
    return trans


def bijective_bitext(n_pairs=1000, vocab=10, len_min=3, len_max=8, seed=2):
    """Token i on the source side always translates to token i+100."""
    rng = Rng(seed)
    bitext = []
    for _ in range(n_pairs):
        length = len_min + rng.randint(len_max - len_min + 1)
        src = tuple(2 + rng.randint(vocab) for _ in range(length))
        tgt = tuple(x + 100 for x in src)
        bitext.append((src, tgt))
    return bitext


def noisy_bitext(n_pairs=300, seed=4):
    """Bijective base with occasional word-order swaps, for likelihood
    tests that should not be trivially saturated."""
    rng = Rng(seed)
    bitext = []
    for src, tgt in bijective_bitext(n_pairs, seed=seed):
        tgt = list(tgt)
        if rng.random() < 0.3 and len(tgt) >= 2:
            i = rng.randint(len(tgt) - 1)
            tgt[i], tgt[i + 1] = tgt[i + 1], tgt[i]
        bitext.append((src, tuple(tgt)))
    return bitext


def test_single_pair_single_iteration():
    model = em_train([((5,), (9,))], iterations=1)
    # all non-NULL translation mass of source token 5 lands on target 9
    assert model.trans[5][9] == pytest.approx(1.0)


def test_rows_stochastic_after_each_m_step():
    model = em_train(noisy_bitext(50), iterations=3)
    for row in model.trans[model.trans.sum(axis=1) > 0]:
        assert abs(row.sum() - 1.0) <= 1e-9
        assert all(0.0 <= p <= 1.0 for p in row)


def test_log_likelihood_nondecreasing():
    model = em_train(noisy_bitext(200), iterations=10)
    lls = model.log_likelihood
    assert len(lls) == 10
    for a, b in zip(lls, lls[1:]):
        assert b >= a - 1e-9


def test_bijective_corpus_identity_links():
    bitext = bijective_bitext(1000)
    model = em_train(bitext, iterations=5)
    total = 0
    correct = 0
    for src, tgt in bitext[:200]:
        links = align_pair(model, src, tgt)
        assert len(links) == len(tgt)  # total over target positions
        for j, i in enumerate(links, start=1):
            total += 1
            correct += int(i == j)
    assert correct / total >= 0.99


def test_align_pair_deterministic():
    bitext = bijective_bitext(100)
    model = em_train(bitext, iterations=3)
    src, tgt = bitext[0]
    assert align_pair(model, src, tgt) == align_pair(model, src, tgt)


def test_null_prior_dominates_when_huge():
    bitext = bijective_bitext(100)
    model = em_train(bitext, iterations=2, null_prob=0.99)
    links = align_pair(model, *bitext[0])
    assert sum(1 for i in links if i == NULL_LINK) >= len(links) - 1


def test_unseen_token_falls_back_to_null():
    model = em_train([((5,), (9,))], iterations=1)
    before = model.unseen_fallbacks
    links = align_pair(model, (5,), (12345,))
    assert links == (NULL_LINK,)
    assert model.unseen_fallbacks == before + 1


def test_empty_bitext_rejected():
    with pytest.raises(AlignmentError):
        em_train([], iterations=1)
    with pytest.raises(AlignmentError):
        em_train([((1,), (2,))], iterations=0)
    for bitext in ([((3,), ())], [((), ()), ((1, 2), ())]):
        with pytest.raises(AlignmentError, match="no target token"):
            em_train(bitext, iterations=2)


def test_pharaoh_dump(tmp_path):
    path = tmp_path / "links.txt"
    write_pharaoh([(1, 2, NULL_LINK), (2, 1)], str(path))
    assert path.read_text() == "0-0 1-1\n1-0 0-1\n"


def test_null_token_key_present_in_table():
    bitext = bijective_bitext(50)
    model = em_train(bitext, iterations=2)
    # one row per source id 0..max, then the NULL row
    assert model.trans.shape[0] == max(x for src, _ in bitext for x in src) + 2
    assert model.trans[NULL_TOKEN].sum() == pytest.approx(1.0)


def test_negative_token_ids_rejected():
    with pytest.raises(AlignmentError):
        em_train([((1, -2), (3,))], iterations=1)
    with pytest.raises(AlignmentError):
        em_train([((1,), (-3,))], iterations=1)


def test_em_matches_plain_loop_reference():
    # the last pair repeats source and target tokens, so several cells get
    # more than one posterior per target position
    bitext = noisy_bitext(50) + [((3, 5, 3, 3), (103, 103, 105, 103, 103))]
    tension, null_prob = 4.0, 0.08
    model = em_train(bitext, iterations=3, tension=tension, null_prob=null_prob)
    table, lls = em_reference(bitext, 3, tension, null_prob, null_key=NULL_TOKEN)

    v_src, v_tgt = model.trans.shape[0] - 1, model.trans.shape[1]
    for x in (*range(v_src), NULL_TOKEN):
        for y in range(v_tgt):
            assert abs(model.trans[x, y] - table.get(x, {}).get(y, 0.0)) <= 1e-12, (x, y)
    assert all(y < v_tgt for row in table.values() for y in row)
    assert set(table) <= {*range(v_src), NULL_TOKEN}
    assert np.allclose(model.log_likelihood, lls, rtol=0.0, atol=1e-9)
    for src, tgt in bitext:
        assert align_pair(model, src, tgt) == align_reference(table, src, tgt, tension, null_prob,
                                                              null_key=NULL_TOKEN)


def test_em_bit_identical_to_per_pair_loop():
    # shapes interleave in corpus order (so shape blocks gather pairs from
    # all over the corpus), and a small vocabulary repeats source and target
    # tokens within and across pairs, so many cells sum several posteriors
    rng = Rng(17)
    bitext = []
    for _ in range(120):
        src = tuple(rng.randint(6) for _ in range(1 + rng.randint(7)))
        tgt = tuple(rng.randint(8) for _ in range(1 + rng.randint(7)))
        bitext.append((src, tgt))
    bitext += noisy_bitext(40)
    for tension, null_prob in ((4.0, 0.08), (1.5, 0.3)):
        model = em_train(bitext, iterations=4, tension=tension, null_prob=null_prob)
        table, lls = em_per_pair(bitext, 4, tension, null_prob, _prior)
        assert np.array_equal(model.trans, table)
        assert model.log_likelihood == lls


@pytest.mark.parametrize("bitext", [
    [((), (4, 2)), ((1, 3), (2,)), ((), (2,))],
    [((1, 3), ()), ((2,), (5, 5)), ((), ()), ((0,), ())],
    [((), (1,))],
], ids=["empty-sources", "empty-targets", "only-an-empty-source"])
def test_em_with_empty_sides_bit_identical_to_per_pair_loop(bitext):
    model = em_train(bitext, iterations=3)
    table, lls = em_per_pair(bitext, 3, DEFAULT_TENSION, DEFAULT_NULL_PROB, _prior)
    assert np.array_equal(model.trans, table)
    assert model.log_likelihood == lls


_SENTENCES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@given(st.lists(st.tuples(_SENTENCES, _SENTENCES), max_size=12))
def test_shape_blocks_stack_each_shapes_pairs_in_bitext_order(bitext):
    blocks = shape_blocks(bitext)
    positions = [block[0] for block in blocks]
    assert sorted(k for members in positions for k in members) == list(range(len(bitext)))
    assert [members[0] for members in positions] == sorted(members[0] for members in positions)
    for members, (_, src, tgt) in zip(positions, blocks):
        assert members == sorted(members)
        assert src.dtype == tgt.dtype == np.intp
        n_src, n_tgt = map(len, bitext[members[0]])
        assert src.shape == (len(members), n_src) and tgt.shape == (len(members), n_tgt)
        assert [tuple(row) for row in src.tolist()] == [bitext[k][0] for k in members]
        assert [tuple(row) for row in tgt.tolist()] == [bitext[k][1] for k in members]


def test_prior_at_the_largest_tension_has_no_underflowing_row():
    bound = -np.log(np.finfo(np.float64).tiny) / (1.0 - 1.0 / MAX_SENTENCE_LEN)
    check_em_params(1, bound, DEFAULT_NULL_PROB)
    prior = _prior(1, MAX_SENTENCE_LEN, bound, DEFAULT_NULL_PROB)
    assert np.isfinite(prior).all()
    assert np.allclose(prior.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    with pytest.raises(AlignmentConfigError):
        check_em_params(1, np.nextafter(bound, np.inf), DEFAULT_NULL_PROB)


def test_align_pair_tie_prefers_null():
    # one source position: its prior is 1 - null_prob = 0.5, equal to NULL's
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {1: 0.5}, 2: {1: 0.5}}), null_prob=0.5)
    assert align_pair(model, (2,), (1,)) == (NULL_LINK,)


def test_align_pair_tie_between_positions_prefers_smaller():
    # tension 0 makes the prior flat over source positions
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {1: 0.1}, 2: {1: 0.5}, 3: {1: 0.5}}),
                           tension=0.0)
    assert align_pair(model, (3, 2), (1,)) == (1,)
    assert align_pair(model, (2, 3), (1,)) == (1,)


def test_align_pair_source_id_beyond_table_contributes_nothing():
    model = AlignmentModel(trans=dense_table({NULL_TOKEN: {1: 0.1}, 2: {1: 0.5}}))
    assert align_pair(model, (99, 2), (1,)) == (2,)
    assert align_pair(model, (99,), (1,)) == (NULL_LINK,)
    assert model.unseen_fallbacks == 0


@st.composite
def stacked_alignment_cases(draw):
    """(training bitext, aligned bitext, tension, null_prob, iterations) over
    a few token types, so tokens repeat and weights tie. The aligned bitext
    interleaves the training pairs with pairs whose source and target ids
    reach beyond the table; targets the training pairs never hold read 0."""
    def sentences(types):
        return st.lists(st.integers(0, types - 1), min_size=1, max_size=5).map(tuple)

    train = draw(st.lists(st.tuples(sentences(3), sentences(4)), min_size=1, max_size=10))
    beyond = draw(st.lists(st.tuples(sentences(5), sentences(6)), max_size=10))
    return (train, draw(st.permutations(train + beyond)), draw(st.sampled_from((0.0, 1.5, 4.0))),
            draw(st.sampled_from((0.08, 0.3))), draw(st.integers(1, 3)))


@given(stacked_alignment_cases())
def test_stacked_alignment_matches_reference_per_pair(case):
    train, bitext, tension, null_prob, iterations = case
    model = em_train(train, iterations, tension=tension, null_prob=null_prob)
    null_row = model.trans.shape[0] - 1
    table = {NULL_TOKEN if x == null_row else x: {y: p for y, p in enumerate(row) if p}
             for x, row in enumerate(model.trans.tolist())}
    links = [p.links for p in pair_stats(bitext, model)]
    for (src, tgt), pair_links in zip(bitext, links, strict=True):
        assert pair_links == align_reference(table, src, tgt, tension, null_prob,
                                             null_key=NULL_TOKEN)
    one_pair = AlignmentModel(model.trans, tension, null_prob)
    assert [align_pair(one_pair, src, tgt) for src, tgt in bitext] == links
    assert model.unseen_fallbacks == one_pair.unseen_fallbacks
