"""Viterbi alignment against brute-force enumeration."""

import numpy as np
import pytest

from selkd.nat import (
    CtcInfeasibleError,
    _viterbi_packed,
    collapse,
    min_frames,
    viterbi_align,
)

from conftest import random_lattice
from oracles import brute_best_paths, ctc_loss, frame_path_logprob


def test_certain_path_is_recovered():
    # Probability ~1 on the path [a, blank, b].
    eps = 1e-12
    rows = [
        [eps, 1.0, eps],  # a
        [1.0, eps, eps],  # blank
        [eps, eps, 1.0],  # b
    ]
    e = np.log(np.array(rows))
    e -= np.log(np.exp(e).sum(axis=1, keepdims=True))
    path = viterbi_align(e, (1, 2))
    assert path == (1, 0, 2)


def test_best_path_never_beats_path_sum(np_rng):
    for _ in range(50):
        vocab = int(np_rng.integers(2, 5))
        frames = int(np_rng.integers(1, 7))
        tgt = tuple(int(x) for x in np_rng.integers(1, vocab, size=np_rng.integers(1, 4)))
        if frames < min_frames(tgt):
            continue
        e = random_lattice(np_rng, frames, vocab)
        best = frame_path_logprob(e, viterbi_align(e, tgt))
        assert best <= -ctc_loss(e, tgt) + 1e-12


def test_matches_bruteforce_argmax(np_rng):
    checked = 0
    for _ in range(200):
        vocab = int(np_rng.integers(2, 5))
        frames = int(np_rng.integers(1, 7))
        tgt = tuple(int(x) for x in np_rng.integers(1, vocab, size=np_rng.integers(1, 4)))
        e = random_lattice(np_rng, frames, vocab)
        best_lp, best_set = brute_best_paths(e.tolist(), tgt)
        if not best_set:
            with pytest.raises(CtcInfeasibleError):
                viterbi_align(e, tgt)
            continue
        path = viterbi_align(e, tgt)
        assert frame_path_logprob(e, path) == pytest.approx(best_lp, abs=1e-9)
        assert path in best_set
        checked += 1
    assert checked >= 80


def test_collapse_equals_target(np_rng):
    for _ in range(40):
        vocab = int(np_rng.integers(3, 6))
        tgt = tuple(int(x) for x in np_rng.integers(1, vocab, size=3))
        e = random_lattice(np_rng, 10, vocab)
        path = viterbi_align(e, tgt)
        assert collapse(path) == tgt


def test_tie_break_puts_blanks_early():
    # Fully uniform lattice: every valid path ties, so the documented rule
    # (prefer the smaller extended state) must emit blanks first.
    e = np.full((3, 2), np.log(0.5))
    path = viterbi_align(e, (1,))
    assert path == (0, 0, 1)
    e4 = np.full((4, 3), np.log(1 / 3))
    path = viterbi_align(e4, (1, 2))
    assert path == (0, 0, 1, 2)


def test_infeasible_raises():
    e = np.full((1, 3), np.log(1 / 3))
    with pytest.raises(CtcInfeasibleError):
        viterbi_align(e, (1, 2))


def _packed_paths(lattices, targets):
    frames = np.array([len(m) for m in lattices])
    labels, found = _viterbi_packed(np.vstack(lattices), frames, targets)
    return [tuple(part.tolist()) for part in np.split(labels, np.cumsum(frames)[:-1])], found


def test_tie_rule_survives_padding(np_rng):
    # Uniform lattices tie everywhere; padded next to a longer lattice (in
    # front or behind) each must keep its lone path, blanks earliest.
    uniform = np.full((3, 3), np.log(1 / 3))
    uniform4 = np.full((4, 3), np.log(1 / 3))
    longer = random_lattice(np_rng, 9, 3)
    cases = [(uniform, (1,)), (longer, (1, 2, 2, 1)), (uniform4, (1, 2))]
    for order in (cases, cases[::-1]):
        lattices = [m for m, _ in order]
        targets = [t for _, t in order]
        paths, found = _packed_paths(lattices, targets)
        assert found.all()
        assert paths == [viterbi_align(m, t) for m, t in order]
    assert viterbi_align(uniform, (1,)) == (0, 0, 1)
    assert viterbi_align(uniform4, (1, 2)) == (0, 0, 1, 2)


def test_lane_without_finite_path_leaves_neighbors_alone(np_rng):
    # Label 2 is impossible in the first lattice: only that lane is flagged.
    blocked = random_lattice(np_rng, 5, 3)
    blocked[:, 2] = -np.inf
    fine = random_lattice(np_rng, 7, 3)
    paths, found = _packed_paths([blocked, fine], [(1, 2), (2, 1, 1)])
    assert found.tolist() == [False, True]
    assert paths[1] == viterbi_align(fine, (2, 1, 1))
    with pytest.raises(CtcInfeasibleError):
        viterbi_align(blocked, (1, 2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nan_and_plus_inf_are_rejected(value):
    """The first NaN or +inf is named by its (frame, label). -inf blocks a
    label and large rows that are not normalised are still accepted."""
    e = np.full((4, 5), np.log(0.2))
    e[1, 2] = e[3, 4] = value
    with pytest.raises(ValueError, match=rf"\(frame 1, label 2\) is {value}$"):
        viterbi_align(e, (2, 3))
    e[1, 2] = e[3, 4] = -np.inf
    for lattice in (e, e + 300):
        assert collapse(viterbi_align(lattice, (2, 3))) == (2, 3)
