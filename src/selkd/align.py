"""EM-trained word alignment with a diagonal position preference.

A lexical translation table t(y | x), reweighted by a fixed diagonal
prior: the prior mass for linking target position j to source position
i is proportional to exp(-tension * |i/N - j/L|) with a reserved share
for the NULL link. Only the lexical table is re-estimated, so every EM
iteration provably cannot decrease the corpus log-likelihood. Positions
are 1-based in the distance ratios; NULL links are encoded as source
position 0.

The table is one dense float64 array of shape (V_src + 1, V_tgt), V_src
and V_tgt being one more than the largest source and target id in the
training bitext, with the NULL row last (``trans[NULL_TOKEN]``) and 0 for
pairs that never co-occur. It takes about 8 * (V_src + 1) * V_tgt bytes.
EM keeps one table alive at a time: it frees the old table before it
counts into the next one, which it normalises in place. Besides, EM holds
the bitext's shape blocks and two flat arrays with one entry per (target
position, source position or NULL) cell of the training bitext: the
cells' table indices and their posteriors.

A bitext has one array layout: ``shape_blocks`` stacks the ids of each
(|src|, |tgt|) shape's pairs once, and the E-step, ``align_pair`` (one
gather per stack) and the metrics' record builder read those stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus import MAX_SENTENCE_LEN, Sentence, write_lines

NULL_LINK = 0  # per-target link value meaning "aligned to nothing"
NULL_TOKEN = -1  # row of the NULL source word in the lexical table (the last row)

DEFAULT_TENSION = 4.0
DEFAULT_NULL_PROB = 0.08


class AlignmentError(ValueError):
    pass


class AlignmentConfigError(AlignmentError):
    """An EM parameter is out of range."""


AlignmentLinks = tuple[int, ...]  # one entry per target position: 0 or 1-based source position


@dataclass
class AlignmentModel:
    trans: np.ndarray  # t(y | x) at [x, y]; (V_src + 1, V_tgt), NULL row last, 0 where x, y never co-occur
    tension: float = DEFAULT_TENSION
    null_prob: float = DEFAULT_NULL_PROB
    log_likelihood: tuple[float, ...] = field(default_factory=tuple)
    unseen_fallbacks: int = 0


@lru_cache(maxsize=4096)
def _prior(n_src: int, tgt_len: int, tension: float, null_prob: float) -> np.ndarray:
    """Prior over [NULL, 1..n_src] for each target position: shape
    (tgt_len, n_src + 1). Read-only, because the cache shares it."""
    i = np.arange(1, n_src + 1, dtype=np.float64)
    j = np.arange(1, tgt_len + 1, dtype=np.float64)[:, None]
    delta = np.exp(-tension * np.abs(i / n_src - j / tgt_len))
    prior = np.empty((tgt_len, n_src + 1))
    prior[:, 0] = null_prob
    prior[:, 1:] = (1.0 - null_prob) * delta / delta.sum(axis=1, keepdims=True)
    prior.flags.writeable = False
    return prior


def shape_blocks(bitext: list[tuple[Sentence, Sentence]]) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """One (positions, src, tgt) per (|src|, |tgt|) shape, in the order of its
    first pair: its pairs' indices in bitext order and their intp id stacks."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, (src, tgt) in enumerate(bitext):
        by_shape.setdefault((len(src), len(tgt)), []).append(k)
    return [(members, np.array([bitext[k][0] for k in members], dtype=np.intp),
             np.array([bitext[k][1] for k in members], dtype=np.intp)) for members in by_shape.values()]


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    """Divide each row of the nonnegative ``m`` by its sum, in place; rows
    without mass stay 0."""
    totals = m.sum(axis=1, keepdims=True)
    return np.divide(m, totals, out=m, where=totals > 0)


def check_em_params(iterations: int, tension: float, null_prob: float) -> None:
    """Raise ``AlignmentConfigError`` for an EM parameter out of range.

    ``tension`` is bounded so that no prior row underflows: a row's largest
    term is exp(-tension * d), d being its smallest distance |i/N - j/L|,
    which is at most 1 - 1/MAX_SENTENCE_LEN (N = 1, L = MAX_SENTENCE_LEN,
    j = 1). Keeping that term at or above float64's smallest normal gives
    tension <= -ln(tiny) / (1 - 1/MAX_SENTENCE_LEN), about 709; above it a
    row of zeros would normalise to NaN."""
    max_tension = -np.log(np.finfo(np.float64).tiny) / (1.0 - 1.0 / MAX_SENTENCE_LEN)
    if iterations < 1:
        raise AlignmentConfigError("iterations must be >= 1")
    if not 0.0 <= tension <= max_tension:
        raise AlignmentConfigError(f"tension must be in [0, {max_tension:.3f}], got {tension}")
    if not 0.0 <= null_prob < 1.0:
        raise AlignmentConfigError(f"null_prob must be in [0, 1), got {null_prob}")


def em_train(bitext: list[tuple[Sentence, Sentence]], iterations: int,
             tension: float = DEFAULT_TENSION, null_prob: float = DEFAULT_NULL_PROB) -> AlignmentModel:
    """Estimate the lexical table by expectation-maximization.

    The logged log-likelihood at iteration r is the corpus likelihood
    under the parameters entering that iteration; the sequence is
    nondecreasing up to renormalization noise.

    The E-step runs once per ``shape_blocks`` block: all pairs of one
    (|src|, |tgt|) form an unpadded (B, |tgt|, |src| + 1) array of prior * t(y | x),
    whose rows are summed over the contiguous last axis, so each pair's
    normalisers and log-likelihood get the bits it would get alone. The
    posteriors go back into corpus order in one flat array, and one
    ``bincount`` over the cells' flat table indices adds them up in
    corpus order, target position by target position, as a per-pair
    ``np.add.at`` would. The per-pair log-likelihoods are summed in
    corpus order as well.
    """
    if not bitext:
        raise AlignmentError("empty bitext")
    check_em_params(iterations, tension, null_prob)

    stacks = shape_blocks(bitext)
    if min(min(src.min(initial=0), tgt.min(initial=0)) for _, src, tgt in stacks) < 0:
        raise AlignmentError("token ids must be >= 0")
    shape = (max(int(src.max(initial=-1)) for _, src, _ in stacks) + 2,
             max(int(tgt.max(initial=-1)) for _, _, tgt in stacks) + 1)
    if shape[1] == 0:
        raise AlignmentError("bitext has no target token")

    # Each pair's cells, target position by target position, in corpus order.
    sizes = np.empty(len(bitext), dtype=np.intp)
    for members, src, tgt in stacks:
        sizes[members] = (src.shape[1] + 1) * tgt.shape[1]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    cells = np.empty(int(sizes.sum()), dtype=np.intp)
    blocks = []
    for members, src, cols in stacks:
        rows = np.concatenate((np.full((len(members), 1), shape[0] - 1), src), axis=1)  # NULL row first
        at = starts[members, None] + np.arange(rows.shape[1] * cols.shape[1])
        cells[at] = (cols[:, :, None] + shape[1] * rows[:, None, :]).reshape(len(members), -1)
        blocks.append((members, rows, cols, _prior(src.shape[1], cols.shape[1], tension, null_prob)))

    # Uniform initialization over each source type's co-occurring targets;
    # NULL co-occurs with every target type.
    trans = np.zeros(shape[0] * shape[1])
    trans[cells] = 1.0
    trans = _normalize_rows(trans.reshape(shape))

    posteriors = np.empty(len(cells))
    pair_ll = np.empty(len(bitext))
    lls = []
    for _ in range(iterations):
        for members, rows, cols, prior in blocks:
            weights = trans[rows[:, None, :], cols[:, :, None]]
            weights *= prior
            z = weights.sum(axis=2)
            pair_ll[members] = np.log(z).sum(axis=1)
            weights /= z[:, :, None]
            at = starts[members, None] + np.arange(weights[0].size)
            posteriors[at] = weights.reshape(len(members), -1)
        ll = 0.0
        for value in pair_ll.tolist():
            ll += value
        lls.append(ll)
        del trans  # free the old table before counting into the next one
        trans = _normalize_rows(np.bincount(cells, weights=posteriors,
                                            minlength=shape[0] * shape[1]).reshape(shape))

    return AlignmentModel(trans, tension, null_prob, log_likelihood=tuple(lls))


def align_pair(model: AlignmentModel, src, tgt):
    """Argmax link (or NULL) for every target position of one pair, or of
    a stack of pairs of one shape.

    ``src`` and ``tgt`` are one pair's sentences, which give its
    ``AlignmentLinks``, or (B, |src|) and (B, |tgt|) id arrays, which give
    a (B, |tgt|) array of links. Ids outside the table read 0. The first
    maximum of each target position's weights wins, so ties resolve toward
    NULL and then the smaller source position. A target position whose
    weights are all 0 (a target token never seen in training) falls back
    to NULL and bumps the model's fallback counter.
    """
    src, tgt = np.asarray(src, dtype=np.intp), np.asarray(tgt, dtype=np.intp)
    trans = model.trans
    rows = np.concatenate((np.full((*src.shape[:-1], 1), NULL_TOKEN), src), axis=-1)
    rows_ok = (rows >= NULL_TOKEN) & (rows < trans.shape[0] - 1)
    cols_ok = (tgt >= 0) & (tgt < trans.shape[1])
    # (..., |tgt|, |src| + 1): a row per target position, NULL in column 0
    weights = trans[np.where(rows_ok, rows, NULL_TOKEN)[..., None, :],
                    np.where(cols_ok, tgt, 0)[..., :, None]]
    if not (rows_ok.all() and cols_ok.all()):
        weights *= rows_ok[..., None, :] & cols_ok[..., :, None]
    weights *= _prior(src.shape[-1], tgt.shape[-1], model.tension, model.null_prob)
    model.unseen_fallbacks += int(np.count_nonzero(~weights.any(axis=-1)))
    links = weights.argmax(axis=-1)
    return tuple(links.tolist()) if links.ndim == 1 else links


def write_pharaoh(links_per_pair: list[AlignmentLinks], path: str) -> None:
    """Pharaoh dump: "i-j" pairs, 0-based, one line per sentence, NULL
    links omitted."""
    write_lines(path, (" ".join(f"{i - 1}-{j}" for j, i in enumerate(links) if i != NULL_LINK)
                       for links in links_per_pair))
