"""Independent reference implementations used to check the DP and EM code.

Nothing here shares logic with the package: paths are enumerated by a
direct automaton walk over raw frame sequences (with exhaustive
product enumeration as a cross-check on tiny instances), gradients
come from central finite differences, and the word aligner is plain
nested loops over a dict-of-dicts lexical table. The one exception is
``em_per_pair``, a per-pair numpy EM that takes the package's position
prior so that its tables can be compared bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BLANK = 0


def collapse_ref(path) -> tuple:
    """Reference collapse: merge adjacent duplicates, then drop blanks."""
    out = []
    prev = None
    for f in path:
        if f != prev and f != BLANK:
            out.append(f)
        prev = f
    return tuple(out)


def valid_paths(vocab_size: int, n_frames: int, target) -> list[tuple]:
    """All frame paths over {0..vocab_size-1} collapsing to the target.

    Walks the prefix automaton (tokens emitted so far, previous frame
    symbol) instead of filtering the full product, so it stays linear in
    the number of valid paths.
    """
    target = tuple(target)
    results = []

    def extend(prefix, emitted, last):
        if len(prefix) == n_frames:
            if emitted == len(target):
                results.append(tuple(prefix))
            return
        for v in range(vocab_size):
            if v == BLANK or v == last:
                extend(prefix + [v], emitted, v)
            elif emitted < len(target) and target[emitted] == v:
                extend(prefix + [v], emitted + 1, v)

    extend([], 0, None)
    return results


def valid_paths_product(vocab_size: int, n_frames: int, target) -> list[tuple]:
    """Exhaustive filter over the full symbol product; tiny instances only."""
    target = tuple(target)
    return [p for p in itertools.product(range(vocab_size), repeat=n_frames)
            if collapse_ref(p) == target]


def path_logprob(log_probs, path) -> float:
    return sum(log_probs[t][f] for t, f in enumerate(path))


def brute_total_prob(log_probs, target) -> float:
    """Sum of the probabilities of all valid frame paths."""
    paths = valid_paths(len(log_probs[0]), len(log_probs), target)
    return sum(math.exp(path_logprob(log_probs, p)) for p in paths)


def brute_best_paths(log_probs, target) -> tuple[float, list[tuple]]:
    """(max log-probability, all argmax paths) over valid frame paths."""
    paths = valid_paths(len(log_probs[0]), len(log_probs), target)
    if not paths:
        return float("-inf"), []
    scored = [(path_logprob(log_probs, p), p) for p in paths]
    best = max(lp for lp, _ in scored)
    return best, [p for lp, p in scored if lp == best]


def fd_gradient(loss_fn, log_probs, step: float = 1e-5):
    """Central finite differences of loss_fn over every lattice entry."""
    rows = len(log_probs)
    cols = len(log_probs[0])
    grad = [[0.0] * cols for _ in range(rows)]
    for t in range(rows):
        for v in range(cols):
            plus = [list(r) for r in log_probs]
            minus = [list(r) for r in log_probs]
            plus[t][v] += step
            minus[t][v] -= step
            grad[t][v] = (loss_fn(plus) - loss_fn(minus)) / (2 * step)
    return grad


def _diagonal_prior(i, j, n_src, tgt_len, tension, null_prob) -> float:
    """Prior of linking target position j to source position i (0 = NULL)."""
    if i == 0:
        return null_prob
    norm = sum(math.exp(-tension * abs(k / n_src - j / tgt_len)) for k in range(1, n_src + 1))
    return (1.0 - null_prob) * math.exp(-tension * abs(i / n_src - j / tgt_len)) / norm


def em_reference(bitext, iterations, tension, null_prob, null_key):
    """Diagonal-prior EM over {source id or null_key: {target id: prob}}.

    Returns (table, log-likelihood per iteration, taken before its update).
    """
    support = {}
    for src, tgt in bitext:
        for x in (null_key, *src):
            support.setdefault(x, set()).update(tgt)
    table = {x: {y: 1.0 / len(ys) for y in ys} for x, ys in support.items()}
    lls = []
    for _ in range(iterations):
        counts = {x: {} for x in table}
        ll = 0.0
        for src, tgt in bitext:
            for j, y in enumerate(tgt, start=1):
                weights = [_diagonal_prior(i, j, len(src), len(tgt), tension, null_prob)
                           * table[x].get(y, 0.0)
                           for i, x in enumerate((null_key, *src))]
                z = sum(weights)
                ll += math.log(z)
                for x, w in zip((null_key, *src), weights):
                    counts[x][y] = counts[x].get(y, 0.0) + w / z
        lls.append(ll)
        table = {x: {y: c / sum(row.values()) for y, c in row.items()} for x, row in counts.items()}
    return table, lls


def align_reference(table, src, tgt, tension, null_prob, null_key):
    """Argmax source position (0 = NULL) per target position; a later
    candidate wins only when strictly greater."""
    links = []
    for j, y in enumerate(tgt, start=1):
        best, best_w = 0, -1.0
        for i, x in enumerate((null_key, *src)):
            w = _diagonal_prior(i, j, len(src), len(tgt), tension, null_prob) * table.get(x, {}).get(y, 0.0)
            if w > best_w:
                best, best_w = i, w
        links.append(best)
    return tuple(links)


def em_per_pair(bitext, iterations, tension, null_prob, prior):
    """Dense-table EM, one pair at a time in corpus order: gather t(y | x)
    with a row per target position and NULL in column 0, multiply by
    ``prior(|src|, |tgt|, tension, null_prob)``, normalise each row by
    ``w.sum(1)`` and scatter the posteriors with ``np.add.at``.

    Returns (table with the NULL row last, log-likelihood per iteration).
    """
    pairs = [(np.array((-1, *src)), np.array(tgt)) for src, tgt in bitext]
    shape = (max(max(src, default=-1) for src, _ in bitext) + 2,
             max(max(tgt, default=-1) for _, tgt in bitext) + 1)

    def normalize(m):
        totals = m.sum(axis=1, keepdims=True)
        return np.divide(m, totals, out=np.zeros(shape), where=totals > 0)

    table = np.zeros(shape)
    for rows, cols in pairs:
        table[rows[None, :], cols[:, None]] = 1.0
    table = normalize(table)
    lls = []
    for _ in range(iterations):
        counts = np.zeros(shape)
        ll = 0.0
        for rows, cols in pairs:
            w = prior(len(rows) - 1, len(cols), tension, null_prob) * table[rows[None, :], cols[:, None]]
            z = w.sum(1)
            ll += float(np.log(z).sum())
            np.add.at(counts, (rows[None, :], cols[:, None]), w / z[:, None])
        lls.append(ll)
        table = normalize(counts)
    return table, tuple(lls)
