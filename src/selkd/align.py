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
pairs that never co-occur. It takes about 8 * (V_src + 1) * V_tgt bytes,
twice that during EM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus import Sentence

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


def _weights(trans: np.ndarray, rows, cols, tension: float, null_prob: float) -> np.ndarray:
    """prior * t(y_j | x_i) of one pair, given its table rows (NULL_TOKEN,
    *src) and target ids: a row per target position, NULL in column 0, so
    each row's sum runs over contiguous memory. Ids outside the table read 0."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    j, i = np.nonzero(((cols >= 0) & (cols < trans.shape[1]))[:, None]
                      & (rows >= NULL_TOKEN) & (rows < trans.shape[0] - 1))
    lexical = np.zeros((len(cols), len(rows)))
    lexical[j, i] = trans[rows[i], cols[j]]
    return _prior(len(rows) - 1, len(cols), tension, null_prob) * lexical


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    """Each row divided by its sum; rows without mass stay 0."""
    totals = m.sum(axis=1, keepdims=True)
    return np.divide(m, totals, out=np.zeros_like(m), where=totals > 0)


def em_train(bitext: list[tuple[Sentence, Sentence]], iterations: int,
             tension: float = DEFAULT_TENSION, null_prob: float = DEFAULT_NULL_PROB) -> AlignmentModel:
    """Estimate the lexical table by expectation-maximization.

    The logged log-likelihood at iteration r is the corpus likelihood
    under the parameters entering that iteration; the sequence is
    nondecreasing up to renormalization noise.
    """
    if not bitext:
        raise AlignmentError("empty bitext")
    if iterations < 1:
        raise AlignmentConfigError("iterations must be >= 1")
    if not (np.isfinite(tension) and tension >= 0):
        raise AlignmentConfigError(f"tension must be finite and >= 0, got {tension}")
    if not 0.0 <= null_prob < 1.0:
        raise AlignmentConfigError(f"null_prob must be in [0, 1), got {null_prob}")

    pairs = [(np.array((NULL_TOKEN, *src), dtype=np.intp), np.array(tgt, dtype=np.intp))
             for src, tgt in bitext]
    src_ids = np.concatenate([rows[1:] for rows, _ in pairs])
    tgt_ids = np.concatenate([cols for _, cols in pairs])
    if src_ids.min(initial=0) < 0 or tgt_ids.min(initial=0) < 0:
        raise AlignmentError("token ids must be >= 0")
    shape = (int(src_ids.max(initial=-1)) + 2, int(tgt_ids.max(initial=-1)) + 1)

    # Uniform initialization over each source type's co-occurring targets;
    # NULL co-occurs with every target type.
    support = np.zeros(shape)
    for rows, cols in pairs:
        support[rows[None, :], cols[:, None]] = 1.0
    trans = _normalize_rows(support)

    lls = []
    for _ in range(iterations):
        counts = np.zeros(shape)
        ll = 0.0
        for rows, cols in pairs:
            weights = _weights(trans, rows, cols, tension, null_prob)
            z = weights.sum(axis=1, keepdims=True)
            ll += np.log(z).sum()
            np.add.at(counts, (rows[None, :], cols[:, None]), weights / z)
        lls.append(float(ll))
        trans = _normalize_rows(counts)

    return AlignmentModel(trans, tension, null_prob, log_likelihood=tuple(lls))


def align_pair(model: AlignmentModel, src: Sentence, tgt: Sentence) -> AlignmentLinks:
    """Argmax link (or NULL) for every target position.

    The first maximum of each target position's weights wins, so ties
    resolve toward NULL and then the smaller source position. Target
    tokens never seen in training fall back to NULL and bump the model's
    fallback counter.
    """
    weights = _weights(model.trans, (NULL_TOKEN, *src), tgt, model.tension, model.null_prob)
    model.unseen_fallbacks += int(np.count_nonzero(~weights.any(axis=1)))
    return tuple(weights.argmax(axis=1).tolist())


def write_pharaoh(links_per_pair: list[AlignmentLinks], path: str) -> None:
    """Pharaoh dump: "i-j" pairs, 0-based, one line per sentence, NULL
    links omitted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for links in links_per_pair:
            cells = [f"{i - 1}-{j}" for j, i in enumerate(links) if i != NULL_LINK]
            fh.write(" ".join(cells))
            fh.write("\n")
