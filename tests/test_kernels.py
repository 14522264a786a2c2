"""The packed CTC, Viterbi and backprop kernels against their earlier
forms in ``oracles``, bit for bit: every loss, gradient entry, path label
and found flag must be equal, not merely close."""

import tracemalloc

import numpy as np
import pytest

from selkd.corpus import Vocabulary
from selkd.nat import (
    ModelConfig,
    NatModel,
    _backprop_packed,
    _ctc_packed,
    _forward_packed,
    _viterbi_packed,
    min_frames,
)

from oracles import backprop_add_at, ctc_per_frame, viterbi_argmax


def random_batch(rng, vocab, ties=False):
    """Packed lattices with targets full of repeats. Frame counts mix
    slack, tight (T = min_frames) and infeasible (T = min_frames - 1)
    lattices, and one lane's emissions block a label it needs, so some
    lanes have no finite path."""
    count = int(rng.integers(1, 8))
    targets, frames = [], []
    for _ in range(count):
        target = tuple(int(v) for v in rng.integers(1, vocab, size=rng.integers(1, 7)))
        need = min_frames(target)
        targets.append(target)
        frames.append(int(rng.choice([need, need + rng.integers(1, 6), max(1, need - 1)])))
    frames = np.array(frames)
    scores = rng.normal(size=(frames.sum(), vocab))
    if ties:
        scores = np.round(scores)  # equal candidates on every frame
    logp = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
    blocked = int(rng.integers(count))
    start = int(frames[:blocked].sum())
    logp[start:start + frames[blocked], targets[blocked][0]] = -np.inf
    return logp, frames, targets


@pytest.mark.parametrize("ties", [False, True])
def test_ctc_matches_per_frame_reference(ties):
    rng = np.random.default_rng(17)
    for _ in range(150):
        logp, frames, targets = random_batch(rng, int(rng.integers(2, 6)), ties)
        losses, dlogp = _ctc_packed(logp, frames, targets)
        ref_losses, ref_dlogp = ctc_per_frame(logp, frames, targets)
        assert np.isinf(losses).any()
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(dlogp, ref_dlogp)


@pytest.mark.parametrize("ties", [False, True])
def test_viterbi_matches_argmax_reference(ties):
    rng = np.random.default_rng(23)
    for _ in range(150):
        logp, frames, targets = random_batch(rng, int(rng.integers(2, 6)), ties)
        labels, found = _viterbi_packed(logp, frames, targets)
        ref_labels, ref_found = viterbi_argmax(logp, frames, targets)
        assert not found.all()
        np.testing.assert_array_equal(found, ref_found)
        np.testing.assert_array_equal(labels, ref_labels)


@pytest.mark.parametrize("window", [0, 1, 2])
def test_backprop_matches_add_at_reference(window):
    rng = np.random.default_rng(29 + window)
    src_vocab, tgt_vocab = Vocabulary(), Vocabulary()
    for i in range(7):
        src_vocab.add(f"s{i}")
        tgt_vocab.add(f"t{i}")
    config = ModelConfig(embed_dim=5, hidden_dim=6, upsample=3, window=window, seed=window)
    model = NatModel.initialize(config, src_vocab, tgt_vocab)
    for _ in range(40):
        # Ids repeat within and across sources, and some fall outside the
        # vocabulary (read as UNK), so many rows scatter into one id.
        sources = [tuple(int(v) for v in rng.integers(-1, len(src_vocab) + 2, size=rng.integers(1, 7)))
                   for _ in range(rng.integers(1, 6))]
        frames = np.array([int(rng.integers(1, 4 * len(s) + 1)) for s in sources])
        cache = _forward_packed(model, sources, frames)
        dlogp = rng.normal(size=cache["logp"].shape)
        grads = _backprop_packed(model, cache, dlogp)
        ref = backprop_add_at(model.params, window, cache, dlogp)
        assert grads.keys() == ref.keys()
        for name in ref:
            np.testing.assert_array_equal(grads[name], ref[name], err_msg=name)


def test_ctc_holds_at_most_two_lattice_arrays():
    """On a long group the CTC pass peaks below three (T_max, B, S_max)
    float arrays: beta lives in the emission rows it has read, and the bin
    index is built after the emissions are freed. More live lattice arrays
    outgrow the allocator's retained heap, which is then returned to the
    system and faulted back in on every group."""
    rng = np.random.default_rng(31)
    count, t_frames, length, vocab = 6, 90, 40, 18
    targets = [tuple(int(v) for v in rng.integers(1, vocab, size=length)) for _ in range(count)]
    frames = np.full(count, t_frames)
    scores = rng.normal(size=(frames.sum(), vocab))
    logp = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
    lattice_bytes = t_frames * count * (2 * length + 1) * 8
    tracemalloc.start()
    try:
        losses, _ = _ctc_packed(logp, frames, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(losses).all()
    assert peak < 3 * lattice_bytes
