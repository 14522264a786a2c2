from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selkd import nat, scoring
from selkd.nat import ModelConfig, NatModel, decode_positional, forward, min_frames, param_shapes, viterbi_align
from selkd.scoring import (
    ScoreRecord,
    ScoringError,
    read_score_tsv,
    score_corpus,
    validate_table_covers,
    write_score_tsv,
)

from oracles import hamming_distance, score_ctc, score_plain


def test_hamming_basic():
    assert hamming_distance((1, 2, 3), (1, 9, 3)) == 1
    assert hamming_distance((1, 2), (1, 2)) == 0
    assert hamming_distance((1, 2), (1, 2, 3, 4)) == 2
    assert hamming_distance((), (5, 6)) == 2


def test_score_plain_cases():
    assert score_plain((1, 2, 3), (1, 9, 3)) == pytest.approx(2 / 3, abs=1e-6)
    assert score_plain((1, 2, 3), (1, 2, 3)) == 1.0
    # clamp: distance 3 over reference length 1
    assert score_plain((1,), (2, 3, 4)) == 0.0
    assert score_plain((1, 2), ()) == 0.0  # empty decode counts as maximal distance
    with pytest.raises(ScoringError):
        score_plain((), (1,))


sent = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8).map(tuple)


@given(sent, sent)
def test_score_plain_bounded(y, yhat):
    assert 0.0 <= score_plain(y, yhat) <= 1.0


@given(sent)
def test_score_plain_identity(y):
    assert score_plain(y, y) == 1.0


@given(sent, st.data())
def test_corrupting_more_positions_never_raises_score(y, data):
    # flip a growing set of distinct positions of a copy of y
    positions = data.draw(st.permutations(range(len(y))))
    prev = score_plain(y, y)
    hyp = list(y)
    for pos in positions:
        hyp[pos] = 99  # token outside y's alphabet
        cur = score_plain(y, tuple(hyp))
        assert cur <= prev
        prev = cur


def test_score_ctc_perfect_match(memorized_setup):
    corpus, result = memorized_setup
    # model memorized the distilled side; score the distilled target
    ex = corpus.examples[0]
    rec = score_ctc(result.model, ex.source, ex.distilled_target)
    assert rec.score == 1.0
    assert rec.distance == 0
    assert rec.frame_len == result.model.config.upsample * len(ex.source)


def test_score_ctc_fraction_of_mismatched_frames():
    # A hand-built evaluator whose 8 frames for the one-token source emit
    # a fixed lattice over (blank, unk, a, b). The greedy labels differ
    # from the reference's Viterbi path at exactly 2 of 8 frames: the
    # path for (a, b) is (a _ b b _ _ _ _), greedy reads (a _ a b a _ _ _).
    from conftest import make_corpus

    corpus = make_corpus([("p", "a b", "a b")])
    eps = 1e-9
    lattice = np.array([
        [eps, eps, 1.0, eps],  # both a
        [1.0, eps, eps, eps],  # both blank
        [eps, eps, 0.6, 0.4],  # greedy a; the path cannot re-emit a -> takes b
        [eps, eps, eps, 1.0],  # both b
        [0.1, eps, 0.9, eps],  # greedy a; the path is past the a state -> blank
        [1.0, eps, eps, eps],
        [1.0, eps, eps, eps],
        [1.0, eps, eps, eps],
    ])
    config = ModelConfig(embed_dim=1, hidden_dim=8, upsample=8)
    params = {name: np.zeros(shape) for name, shape in
              param_shapes(config, len(corpus.src_vocab), len(corpus.tgt_vocab)).items()}
    # With zero embeddings and position weights, frame t's only input is
    # its phase one-hot (t mod 8 = t): route it through hidden unit t of
    # both layers to row t of the lattice's logits.
    frames = np.arange(8)
    params["w1"][2 * config.embed_dim + frames, frames] = 1.0
    params["w2"][frames, frames] = 1.0
    params["w_out"][:] = np.log(lattice) / np.tanh(np.tanh(1.0))
    model = NatModel(config, params, len(corpus.src_vocab), len(corpus.tgt_vocab),
                     corpus.src_vocab.content_hash(), corpus.tgt_vocab.content_hash())
    [rec] = score_corpus(model, corpus).records
    assert (rec.distance, rec.ref_len, rec.frame_len, rec.infeasible) == (2, 2, 8, False)
    assert rec.score == 0.75  # 1 - 2/8
    [rec] = score_corpus(model, corpus, normalize_by_reference=True).records
    assert (rec.distance, rec.score) == (2, 0.0)  # 1 - 2/|Y|


def test_score_ctc_infeasible_flags_zero(memorized_setup):
    corpus, result = memorized_setup
    ex = corpus.examples[0]
    too_long = tuple([2, 3] * (2 * len(ex.source)))  # longer than frame count
    rec = score_ctc(result.model, ex.source, too_long)
    assert rec.infeasible
    assert rec.score == 0.0


def test_score_corpus_overfit_all_ones(memorized_setup):
    corpus, result = memorized_setup
    # raw == distilled on this single-mode task, and the model memorized it
    table = score_corpus(result.model, corpus, variant="ctc")
    assert len(table) == len(corpus)
    assert all(r.score == 1.0 for r in table.records)
    assert table.checkpoint_id != ""


def test_score_corpus_plain_variant(memorized_setup):
    corpus, result = memorized_setup
    table = score_corpus(result.model, corpus, variant="plain")
    assert all(r.frame_len == 0 for r in table.records)
    assert all(r.score == 1.0 for r in table.records)  # memorized


def test_score_corpus_rejects_wrong_vocab(memorized_setup):
    corpus, result = memorized_setup
    from conftest import make_corpus

    other = make_corpus([("q w", "e r", "e r")])
    with pytest.raises(ScoringError, match="vocabular"):
        score_corpus(result.model, other)


def test_tsv_round_trip_and_determinism(memorized_setup, tmp_path):
    corpus, result = memorized_setup
    table = score_corpus(result.model, corpus, variant="ctc")
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_score_tsv(table, str(p1))
    write_score_tsv(score_corpus(result.model, corpus, variant="ctc"), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_score_tsv(str(p1))
    assert len(loaded) == len(table)
    for a, b in zip(loaded.records, table.records):
        assert a.index == b.index
        assert a.score == pytest.approx(b.score, abs=5e-7)  # 6-decimal file
        assert (a.distance, a.ref_len, a.frame_len) == (b.distance, b.ref_len, b.frame_len)
    validate_table_covers(loaded, corpus)


@pytest.mark.parametrize("bad", ["nan", "inf", "7.500000", "-0.100000", "x"])
def test_read_score_tsv_rejects_scores_outside_unit_interval(tmp_path, bad):
    p = tmp_path / "scores.tsv"
    p.write_text(f"0\t0.500000\t1\t3\t6\n1\t{bad}\t1\t3\t6\n")
    with pytest.raises(ScoringError, match=":2:"):
        read_score_tsv(str(p))


def test_validate_table_covers_rejects_gaps(memorized_setup):
    corpus, result = memorized_setup
    table = score_corpus(result.model, corpus)
    broken = type(table)(records=table.records[1:])
    with pytest.raises(ScoringError):
        validate_table_covers(broken, corpus)


def test_unknown_variant_rejected(memorized_setup):
    corpus, result = memorized_setup
    with pytest.raises(ScoringError, match="variant"):
        score_corpus(result.model, corpus, variant="bleu")


def _ctc_record_alone(model, index, source, reference, normalize_by_reference=False):
    em = forward(model, source)
    frames = len(em)
    if min_frames(reference) > frames:
        return ScoreRecord(index, 0.0, frames, len(reference), frames, infeasible=True)
    aligned = viterbi_align(em, reference)
    distance = sum(1 for a, g in zip(aligned, np.argmax(em, axis=1)) if a != g)
    denom = len(reference) if normalize_by_reference else frames
    return ScoreRecord(index, min(1.0, max(0.0, 1.0 - distance / denom)), distance,
                       len(reference), frames)


def _plain_record_alone(model, index, source, reference):
    decoded = decode_positional(model, source, len(reference))
    return ScoreRecord(index, score_plain(reference, decoded), hamming_distance(reference, decoded),
                       len(reference), 0)


def test_padded_scoring_groups_match_each_pair_alone(monkeypatch):
    # Mixed source lengths, a repeated reference token ("b b"), one
    # reference too long for its 2 * 2 frames, and eight pairs of one
    # source and one reference token; a small group bound and a batch of 3
    # split the corpus into several padded forward groups, and the eight
    # short pairs' Viterbi pass spans several of them.
    from conftest import make_corpus

    corpus = make_corpus([
        ("p q r s t u", "a b c d e f", "a b c d e f"),
        ("p q", "a b c d e", "a b"),
        ("q r s", "b b c", "b c"),
        ("s", "d", "d"),
        ("u t s r q p p q", "f e d c b a a", "f e d"),
        ("r s t", "c d", "c d e"),
        ("t u", "e f", "e f"),
        ("p", "a", "a"), ("q", "b", "b"), ("r", "c", "c"), ("t", "e", "e"),
        ("u", "f", "f"), ("v", "a", "b"), ("w", "b", "b"),
    ])
    model = NatModel.initialize(ModelConfig(embed_dim=6, hidden_dim=8, batch_size=3, seed=3),
                                corpus.src_vocab, corpus.tgt_vocab)
    for param in model.params.values():
        param *= 4  # sharper emissions, so the greedy labels vary
    monkeypatch.setattr(nat, "_GROUP_CELLS", 200)
    table = nat.PairTable.of(corpus.pairs("raw"), 2)
    assert len(nat._length_groups(table.frames, table.states)) >= 2
    forwards, viterbi_lanes = [], []

    def forward_packed(model, sources, frames):
        forwards.append((sources, frames))
        return nat._forward_packed(model, sources, frames)

    def viterbi_packed(logp, frames, targets):
        viterbi_lanes.append(len(frames))
        return nat._viterbi_packed(logp, frames, targets)

    monkeypatch.setattr(scoring, "_forward_packed", forward_packed)
    monkeypatch.setattr(scoring, "_viterbi_packed", viterbi_packed)
    cases = {
        "ctc": ({}, _ctc_record_alone),
        "ctc by reference": ({"normalize_by_reference": True},
                             partial(_ctc_record_alone, normalize_by_reference=True)),
        "plain": ({"variant": "plain"}, _plain_record_alone),
    }
    tables = {}
    for name, (kwargs, alone) in cases.items():
        tables[name] = score_corpus(model, corpus, **kwargs).records
        expected = [alone(model, i, src, ref) for i, (src, ref) in enumerate(corpus.pairs("raw"))]
        assert list(tables[name]) == expected
    for name in ("ctc", "ctc by reference"):
        assert [r.infeasible for r in tables[name]] == [i == 1 for i in range(len(corpus))]
    # No forward outgrows a training step's group (a pair over the bound
    # alone has a group of its own); some Viterbi pass spans several.
    states = {source: 2 * len(reference) + 1 for source, reference in corpus.pairs("raw")}
    assert forwards
    for sources, frames in forwards:
        assert len(sources) <= 3
        cells = len(sources) * frames.max() * max(states[source] for source in sources)
        assert len(sources) == 1 or cells <= 200
    assert max(viterbi_lanes) > 3
    # dividing by |Y| < T lowers scores, and the clamp keeps them in [0, 1]
    assert any(a.score > b.score for a, b in zip(tables["ctc"], tables["ctc by reference"]))
    assert any(r.distance > r.ref_len and not r.infeasible for r in tables["ctc by reference"])
    assert all(0.0 <= r.score <= 1.0 for r in tables["ctc by reference"])
