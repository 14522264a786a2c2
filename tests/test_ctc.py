"""CTC loss and gradient against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selkd.corpus import BLANK_ID
from selkd.nat import (
    CtcInfeasibleError,
    _ctc_packed,
    collapse,
    ctc_loss_and_grad,
    min_frames,
)

from conftest import random_lattice
from oracles import brute_total_prob, ctc_loss, fd_gradient, valid_paths, valid_paths_product


def test_oracle_agrees_with_product_enumeration():
    # The pruned automaton walk must enumerate exactly the same path set
    # as filtering the full symbol product.
    rng = np.random.default_rng(1)
    for _ in range(30):
        vocab = int(rng.integers(2, 4))
        frames = int(rng.integers(1, 6))
        tgt_len = int(rng.integers(1, 4))
        target = tuple(int(x) for x in rng.integers(1, vocab, size=tgt_len))
        assert sorted(valid_paths(vocab, frames, target)) == sorted(
            valid_paths_product(vocab, frames, target)
        )


def test_certain_single_frame_gives_zero_loss():
    # One frame, probability 1 on the target token.
    e = np.log(np.array([[1e-300, 1.0, 1e-300]]))
    e -= np.log(np.exp(e).sum(axis=1, keepdims=True))
    assert ctc_loss(e, (1,)) == pytest.approx(0.0, abs=1e-9)


def test_uniform_lattice_path_count():
    # Three uniform frames over {blank, a}: exactly six frame paths
    # collapse to [a], so p = 6/27.
    e = np.full((3, 2), np.log(0.5))
    paths = valid_paths(2, 3, (1,))
    assert len(paths) == 6
    assert (1, 0, 1) not in paths  # collapses to [a, a], not [a]
    loss = ctc_loss(e, (1,))
    assert loss == pytest.approx(-math.log(6 / 8), rel=1e-12)
    # And with a 3-symbol vocabulary at uniform 1/3 the mass is 6/27.
    e3 = np.full((3, 3), np.log(1 / 3))
    assert ctc_loss(e3, (1,)) == pytest.approx(-math.log(6 / 27), rel=1e-12)


def test_dp_matches_enumeration_on_random_lattices(np_rng):
    checked = 0
    for _ in range(250):
        vocab = int(np_rng.integers(2, 6))
        frames = int(np_rng.integers(1, 9))
        tgt_len = int(np_rng.integers(1, 5))
        target = tuple(int(x) for x in np_rng.integers(1, vocab, size=tgt_len))
        e = random_lattice(np_rng, frames, vocab)
        total = brute_total_prob(e.tolist(), target)
        if frames < min_frames(target):
            assert total == 0.0
            with pytest.raises(CtcInfeasibleError):
                ctc_loss(e, target)
            continue
        loss = ctc_loss(e, target)
        assert abs(math.exp(-loss) - total) / total <= 1e-10
        checked += 1
    assert checked >= 100


def test_gradient_matches_finite_differences(np_rng):
    for _ in range(12):
        vocab = int(np_rng.integers(3, 6))
        frames = int(np_rng.integers(2, 6))
        tgt_len = int(np_rng.integers(1, 3))
        target = tuple(int(x) for x in np_rng.integers(1, vocab, size=tgt_len))
        if frames < min_frames(target):
            continue
        e = random_lattice(np_rng, frames, vocab)
        _, grad = ctc_loss_and_grad(e, target)
        fd = fd_gradient(lambda m: ctc_loss(np.array(m), target), e.tolist(), step=1e-5)
        for t in range(frames):
            for v in range(vocab):
                rel = abs(grad[t, v] - fd[t][v]) / max(abs(fd[t][v]), 1e-6)
                assert rel <= 1e-4, (t, v, grad[t, v], fd[t][v])


def test_padded_batch_matches_each_lattice_alone(np_rng):
    # Mixed frame counts and target lengths, with repeats: padding and
    # neighbors must not change a single bit of any lattice's result.
    cases = ((7, (1, 2, 1)), (3, (2,)), (12, (3, 3, 1, 2)), (5, (1, 1)), (9, (2, 3, 1, 3, 2)))
    lattices = [random_lattice(np_rng, frames, 4) for frames, _ in cases]
    targets = [target for _, target in cases]
    losses, grad = _ctc_packed(np.vstack(lattices), np.array([len(m) for m in lattices]), targets)
    start = 0
    for lattice, target, loss in zip(lattices, targets, losses):
        alone_loss, alone_grad = ctc_loss_and_grad(lattice, target)
        assert loss == alone_loss
        np.testing.assert_array_equal(grad[start:start + len(lattice)], alone_grad)
        start += len(lattice)
    assert start == len(grad)


def test_gradient_rows_are_posteriors(np_rng):
    # -grad[t] is a probability distribution over symbols at each frame.
    e = random_lattice(np_rng, 6, 4)
    _, grad = ctc_loss_and_grad(e, (1, 2))
    np.testing.assert_allclose(-grad.sum(axis=1), np.ones(6), atol=1e-9)
    assert np.all(-grad >= -1e-12)


def test_loss_nonnegative_and_zero_only_when_certain(np_rng):
    for _ in range(40):
        e = random_lattice(np_rng, 5, 4)
        tgt = tuple(int(x) for x in np_rng.integers(1, 4, size=2))
        assert ctc_loss(e, tgt) >= 0.0


def test_infeasible_target_raises():
    e = np.full((2, 3), np.log(1 / 3))
    with pytest.raises(CtcInfeasibleError):
        ctc_loss(e, (1, 1))  # adjacent repeat needs 3 frames
    # and the repeat fits once a separating blank fits
    e3 = np.full((3, 3), np.log(1 / 3))
    ctc_loss(e3, (1, 1))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nan_and_plus_inf_are_rejected(value):
    """The first NaN or +inf is named by its (frame, label). -inf blocks a
    label, and rows that are not normalised run in log space, so both are
    still accepted."""
    e = np.full((4, 5), np.log(0.2))
    e[1, 2] = e[3, 4] = value
    with pytest.raises(ValueError, match=rf"\(frame 1, label 2\) is {value}$"):
        ctc_loss_and_grad(e, (2, 3))
    e[1, 2] = e[3, 4] = -np.inf
    assert np.isfinite(ctc_loss_and_grad(e, (2, 3))[0])
    assert np.isfinite(ctc_loss_and_grad(e + 300, (2, 3))[0])


def test_min_frames_counts_adjacent_repeats():
    assert min_frames((1, 2, 3)) == 3
    assert min_frames((1, 1)) == 3
    assert min_frames((1, 1, 1)) == 5
    assert min_frames((1, 2, 2, 1)) == 5


def test_empty_target_rejected():
    e = np.full((3, 3), np.log(1 / 3))
    with pytest.raises(ValueError):
        ctc_loss(e, ())


# -- collapse semantics ------------------------------------------------------

def test_collapse_examples():
    a, b = 1, 2
    assert collapse((a, a, BLANK_ID, b)) == (a, b)
    assert collapse((BLANK_ID, BLANK_ID)) == ()
    # blank-separated duplicates survive as a genuine repeated token
    assert collapse((a, BLANK_ID, a)) == (a, a)
    assert collapse(()) == ()


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
def test_collapse_never_emits_blank_and_bounds_length(path):
    out = collapse(path)
    assert BLANK_ID not in out
    assert len(out) <= len(path)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
@settings(max_examples=200)
def test_collapse_idempotent_without_blank_separated_repeats(path):
    # Idempotence holds except across label-blank-label bridges, where a
    # second collapse would merge a genuine repeat (see the example test).
    out = collapse(path)
    if all(a != b for a, b in zip(out, out[1:])):
        assert collapse(out) == out
