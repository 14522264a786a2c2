"""The packed kernels against their references.

The CTC kernels in both semirings, the Viterbi and the backprop kernels
are checked bit for bit against plainer forms in ``oracles``: every
loss, gradient entry, path label and found flag must be equal, not
merely close. The probability-space CTC is also checked against the
log-space one within a tolerance derived from float64 rounding, and
exactly on the lattices its guard sends to the log-space kernel."""

import tracemalloc

import numpy as np
import pytest

from selkd.corpus import Vocabulary
from selkd.nat import (
    ModelConfig,
    NatModel,
    _backprop_packed,
    _MIN_PATH_MASS,
    _ctc_log,
    _ctc_packed,
    _forward_packed,
    _viterbi_packed,
    min_frames,
)

from oracles import backprop_add_at, ctc_per_frame, ctc_per_frame_probability, viterbi_argmax


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
        losses, dlogp = _ctc_log(logp, frames, targets)
        ref_losses, ref_dlogp = ctc_per_frame(logp, frames, targets)
        assert np.isinf(losses).any()
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(dlogp, ref_dlogp)


def log_softmax(scores):
    return scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))


def ctc_tolerance(frames, losses):
    """Largest difference, in a loss or in a gradient entry, between
    ``_ctc_packed`` and ``_ctc_log`` on normalised lattices of at most
    T = max(frames) frames and losses of at most L = max(losses) nats.

    With u = eps / 2 the unit roundoff, in probability space every alpha,
    beta and p is a sum of nonnegative terms, so relative errors never
    cancel into larger ones: a frame of alpha or beta adds at most 7u (an
    exp of up to 2 ulp, two adds, one multiply), and a posterior
    alpha * beta / p is within 22uT of exact. In log space a frame adds
    at most 4u(M + 1) in absolute log terms, M the size of the log
    values, two logaddexps and one add, so alpha and beta are within
    relative 4uT(M + 1) each. M exceeds L + 2 only at states of posterior
    g below e^-(M - L), which adds g * |log g| <= 1/e. A loss differs by
    the relative error of p plus u * L for the log; a gradient entry sums
    one frame's posteriors of one label (at most 1 in total) and is within
    22uT + 10uT(L + 2) + Su, S <= 2T + 1 states. All of this is below
    32uT(L + 2) = 16 * eps * T * (L + 2).
    """
    return 16 * np.finfo(np.float64).eps * int(frames.max()) * (2 + float(losses.max()))


def feasible_batch(rng, vocab, longest, ties=False):
    """Packed normalised lattices with targets of 1 .. ``longest`` labels
    full of repeats, each with T between min_frames and twice it, so
    every lane has a path."""
    count = int(rng.integers(1, 9))
    targets, frames = [], []
    for _ in range(count):
        target = tuple(int(v) for v in rng.integers(1, vocab, size=rng.integers(1, longest + 1)))
        need = min_frames(target)
        targets.append(target)
        frames.append(int(rng.integers(need, 2 * need + 1)))
    frames = np.array(frames)
    scores = rng.normal(size=(frames.sum(), vocab))
    if ties:
        scores = np.round(scores)  # equal labels on every frame
    return log_softmax(scores), frames, targets


@pytest.mark.parametrize("longest", [6, 48])
def test_ctc_probability_space_matches_log_space(longest):
    rng = np.random.default_rng(37 + longest)
    for _ in range(100 if longest < 10 else 20):
        logp, frames, targets = feasible_batch(rng, int(rng.integers(2, 8)), longest)
        losses, dlogp = _ctc_packed(logp, frames, targets)
        ref_losses, ref_dlogp = _ctc_log(logp, frames, targets)
        assert (ref_losses < 460.5).all()  # no lane trips the guard
        tol = ctc_tolerance(frames, ref_losses)
        np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=tol)
        np.testing.assert_allclose(dlogp, ref_dlogp, rtol=0, atol=tol)


@pytest.mark.parametrize("ties", [False, True])
def test_ctc_probability_space_matches_per_frame_reference(ties):
    rng = np.random.default_rng(61)
    for _ in range(100):
        logp, frames, targets = feasible_batch(rng, int(rng.integers(2, 8)), 12, ties)
        losses, dlogp = _ctc_packed(logp, frames, targets)
        ref_losses, ref_dlogp = ctc_per_frame_probability(logp, frames, targets)
        assert (ref_losses < -np.log(_MIN_PATH_MASS)).all()  # no lane trips the guard
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(dlogp, ref_dlogp)


def tight_path_past_minus_700():
    """T = min_frames = 3, so the only path emits 1, 2, 3; frame 1 gives
    label 2 a log-probability of -700 (p near 1e-304)."""
    logp = log_softmax(np.random.default_rng(41).normal(size=(3, 5)))
    logp[1, 2] = -700.0
    return logp, (1, 2, 3)


def loss_above_guard():
    """A tight lattice of 50 frames whose path labels each read -10, so the
    loss is 500 nats and p = e^-500, representable but below the floor."""
    frames = 50
    target = tuple(1 + t % 2 for t in range(frames))
    logp = np.full((frames, 4), np.log((1 - np.exp(-10.0)) / 3))
    logp[np.arange(frames), target] = -10.0
    return logp, target


def no_path():
    """Every frame forbids the first label."""
    logp = log_softmax(np.random.default_rng(43).normal(size=(6, 4)))
    logp[:, 2] = -np.inf
    return logp, (2, 1)


def nan_emission():
    logp = log_softmax(np.random.default_rng(47).normal(size=(5, 4)))
    logp[2, 0] = np.nan
    return logp, (1, 3)


def unnormalised_rows():
    """Rows near e^300 after a first row near e^-741, a subnormal: p is
    finite and above the floor, but beta overflows and alpha has lost its
    precision, so the rows' mass above 1 is what must send it."""
    logp = np.random.default_rng(59).normal(size=(4, 4)) + 300
    logp[0] -= 1041
    return logp, (1, 2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN in log space
@pytest.mark.parametrize("case", [tight_path_past_minus_700, loss_above_guard, no_path, nan_emission,
                                  unnormalised_rows])
def test_ctc_guard_falls_back_to_log_space(case):
    """A lattice the probability space cannot represent gets exactly what
    ``_ctc_log`` gives it, alone or next to a lattice that stays in
    probability space, and that neighbour keeps its own result."""
    logp, target = case()
    frames = np.array([len(logp)])
    ref_loss, ref_grad = _ctc_log(logp, frames, [target])
    loss, grad = _ctc_packed(logp, frames, [target])
    np.testing.assert_array_equal(loss, ref_loss)
    np.testing.assert_array_equal(grad, ref_grad)

    other_logp, other_frames, other_targets = feasible_batch(np.random.default_rng(53), logp.shape[1], 5)
    other_loss, other_grad = _ctc_packed(other_logp, other_frames, other_targets)
    both_loss, both_grad = _ctc_packed(np.vstack([other_logp, logp]), np.append(other_frames, frames),
                                       other_targets + [target])
    np.testing.assert_array_equal(both_loss, np.append(other_loss, ref_loss))
    np.testing.assert_array_equal(both_grad, np.vstack([other_grad, ref_grad]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ctc_guard_cases_are_what_they_say():
    checks = {tight_path_past_minus_700: lambda loss: loss > 700,
              loss_above_guard: lambda loss: 460.5 < loss < 700,
              no_path: np.isinf, nan_emission: np.isnan,
              unnormalised_rows: lambda loss: -np.log(_MIN_PATH_MASS) > loss}
    for case, check in checks.items():
        logp, target = case()
        assert check(_ctc_log(logp, np.array([len(logp)]), [target])[0][0]), case.__name__


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


@pytest.mark.parametrize("kernel", [_ctc_packed, _ctc_log], ids=["packed", "log"])
def test_ctc_holds_at_most_two_lattice_arrays(kernel):
    """On a long group the CTC pass peaks below three (T_max, S_max, B)
    float arrays in either semiring: beta lives in the emission rows it
    has read, and the bin index is built after the emissions are freed.
    More live lattice arrays outgrow the allocator's retained heap, which
    is then returned to the system and faulted back in on every group."""
    rng = np.random.default_rng(31)
    count, t_frames, length, vocab = 6, 90, 40, 18
    targets = [tuple(int(v) for v in rng.integers(1, vocab, size=length)) for _ in range(count)]
    frames = np.full(count, t_frames)
    scores = rng.normal(size=(frames.sum(), vocab))
    logp = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
    lattice_bytes = t_frames * count * (2 * length + 1) * 8
    tracemalloc.start()
    try:
        losses, _ = kernel(logp, frames, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(losses).all()
    assert peak < 3 * lattice_bytes


def test_viterbi_holds_one_int8_lattice():
    """On a long group the Viterbi pass peaks below one int8
    (T_max, S_max, B) lattice of back-pointers plus a multiple of its
    (rows, V) float input, because it gathers each frame's emissions from
    the padded table inside its loop.

    Besides the back-pointers it holds one padded copy of the input,
    (rows + 1) x (V + 1) floats, and arrays with one value per lane and
    frame or per lane and state: the frame rows and their offsets, the
    extended labels and skip mask, one frame's scores, finals, candidates,
    choices, gather index and emissions, and at the end the path, its
    labels and the mask that packs them. That is 17 arrays; allow 20. With
    S_max <= T_max each holds at most rows x 8 bytes, 1/V of the input. A
    float64 lattice and its int64 cell index, 16 bytes a cell, would be
    2 S_max / V = 9 times the input here."""
    rng = np.random.default_rng(31)
    count, t_frames, length, vocab = 6, 90, 40, 18
    targets = [tuple(int(v) for v in rng.integers(1, vocab, size=length)) for _ in range(count)]
    frames = np.full(count, t_frames)
    logp = log_softmax(rng.normal(size=(frames.sum(), vocab)))
    rows = len(logp)
    back_bytes = t_frames * (2 * length + 1) * count
    multiple = (rows + 1) * (vocab + 1) / (rows * vocab) + 20 / vocab
    tracemalloc.start()
    try:
        _, found = _viterbi_packed(logp, frames, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.all()
    assert peak < back_bytes + multiple * logp.nbytes
