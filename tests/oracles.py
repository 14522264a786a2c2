"""Independent reference implementations used to check the DP and EM code.

Nothing here shares logic with the package: paths are enumerated by a
direct automaton walk over raw frame sequences (with exhaustive
product enumeration as a cross-check on tiny instances), gradients
come from central finite differences, and the word aligner is plain
nested loops over a dict-of-dicts lexical table. The exceptions are
references the package's kernels are compared with bit for bit:
``em_per_pair``, a per-pair numpy EM that takes the package's position
prior, and ``ctc_per_frame``, ``ctc_per_frame_probability``,
``viterbi_argmax`` and ``backprop_add_at``, plainer lane-major forms of
the packed CTC (in log and in probability space), Viterbi and backprop
kernels (one bincount per frame, a (3, B, S) ``argmax`` per frame, and
one ``np.add.at`` per embedding scatter block) that must give the same bits,
and ``sentence_loss_and_grads``, one pair's loss and gradients from the
package's B = 1 forward and CTC with ``backprop_add_at``. ``ctc_loss``,
``frame_path_logprob``, ``validate_emissions`` and ``score_ctc`` are test
conveniences built on the package's B = 1 functions. ``hamming_distance``
and ``score_plain`` score one positional decode position by position; the
package's grouped plain scoring must give the same records.
``metric_report_links`` walks one metrics view link by link; the package
must give the same bits. ``read_text_lines`` reads a file in text mode,
and ``read_ids_regex`` finds each of its lines' tokens with a regular
expression; the package's byte reader must give the same lines,
sentences, vocabulary and errors.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

import numpy as np

from selkd.align import NULL_LINK
from selkd.corpus import MAX_SENTENCE_LEN, RESERVED_SURFACES, CorpusFormatError
from selkd.metrics import MetricReport, MetricsError
from selkd.nat import _forward_packed, ctc_loss_and_grad
from selkd.scoring import ScoringError, _score_pairs

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


def translation_uncertainty_links(bitext, links) -> float:
    """Per-link walk of one view: a Counter of target types per source type,
    each created at its first link, then the mean entropy in that order."""
    by_source = {}
    for (src, tgt), pair_links in zip(bitext, links, strict=True):
        for j, i in enumerate(pair_links):
            if i == NULL_LINK:
                continue
            by_source.setdefault(src[i - 1], Counter())[tgt[j]] += 1
    if not by_source:
        raise MetricsError("no aligned tokens at all; cannot compute uncertainty")
    total = 0.0
    for counter in by_source.values():
        n = sum(counter.values())
        total += -sum((c / n) * math.log(c / n) for c in counter.values())
    return total / len(by_source)


def alignment_shift_links(bitext, links) -> float:
    """Per-link walk of one view: each pair's mean |i/|X| - j/|Y||, summed
    in view order."""
    if not bitext:
        raise MetricsError("empty bitext")
    shifts = []
    for (src, tgt), pair_links in zip(bitext, links, strict=True):
        if len(pair_links) != len(tgt):
            raise MetricsError(f"links cover {len(pair_links)} positions for a target of {len(tgt)}")
        acc = 0.0
        for j, i in enumerate(pair_links, start=1):
            if i != NULL_LINK:
                acc += abs(i / len(src) - j / len(tgt))
        shifts.append(acc / len(tgt))
    return sum(shifts) / len(bitext)


def metric_report_links(bitext, links, label) -> MetricReport:
    """``metric_report`` of one view by walking its pairs and links."""
    if not bitext:
        raise MetricsError(f"view {label!r} is empty")
    uncertainty = translation_uncertainty_links(bitext, links)
    shift = alignment_shift_links(bitext, links)
    repeats = tokens = 0
    for _, tgt in bitext:
        tokens += len(tgt)
        repeats += sum(1 for a, b in zip(tgt, tgt[1:]) if a == b)
    return MetricReport(label=label, uncertainty=uncertainty, shift=shift,
                        repetition_per_mille=1000.0 * repeats / tokens, sentences=len(bitext))


def em_per_pair(bitext, iterations, tension, null_prob, prior):
    """Dense-table EM, one pair at a time in corpus order: gather t(y | x)
    with a row per target position and NULL in column 0, multiply by
    ``prior(|src|, |tgt|, tension, null_prob)``, normalise each row by
    ``w.sum(1)`` and scatter the posteriors with ``np.add.at``.

    Returns (table with the NULL row last, log-likelihood per iteration).
    """
    pairs = [(np.array((-1, *src)), np.array(tgt, dtype=np.intp)) for src, tgt in bitext]
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


def _padded_lattice_per_target(table, pad, frames, targets):
    """Extended labels, skip masks and cell values of B lattices packed
    row-wise in ``table``, built one target at a time, with padded cells
    ``pad`` (see ``nat._padded_lattice``)."""
    rows, vocab = table.shape
    states = np.array([2 * len(target) + 1 for target in targets])
    t_max, s_max = int(frames.max()), int(states.max())
    ext = np.full((len(targets), s_max), vocab, dtype=np.int64)
    skip = np.zeros((len(targets), s_max), dtype=bool)
    for b, target in enumerate(targets):
        lane = np.full(states[b], BLANK, dtype=np.int64)
        lane[1::2] = target
        ext[b, :states[b]] = lane
        skip[b, 3:states[b]:2] = lane[3::2] != lane[1:-2:2]
    lattice = np.full((rows + 1, vocab + 1), pad)
    lattice[:rows, :vocab] = table
    t_index = np.arange(t_max)[:, None]
    frame_rows = np.where(t_index < frames, np.cumsum(frames) - frames + t_index, rows)
    return states, ext, skip, frame_rows, lattice[frame_rows[:, :, None], ext[None, :, :]]


def ctc_per_frame(logp, frames, targets):
    """Packed CTC losses and dL/dlogp with beta and the posteriors taken
    one frame at a time: each frame makes its own exp and bincount."""
    rows, vocab = logp.shape
    states, ext, skip, frame_rows, em_ext = _padded_lattice_per_target(logp, -np.inf, frames, targets)
    t_max, count, s_max = em_ext.shape
    lanes = np.arange(count)
    last = frames - 1
    back_skip = np.zeros_like(skip)
    back_skip[:, :-2] = skip[:, 2:]

    alpha = np.full((t_max, count, s_max), -np.inf)
    alpha[0, :, :2] = em_ext[0, :, :2]
    step = np.full((count, s_max), -np.inf)
    jump = np.full((count, s_max), -np.inf)
    for t in range(1, t_max):
        prev = alpha[t - 1]
        step[:, 1:] = prev[:, :-1]
        jump[:, 2:] = prev[:, :-2]
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), np.where(skip, jump, -np.inf)) + em_ext[t]
    final = alpha[last, lanes]
    losses = -np.logaddexp(final[lanes, states - 1], final[lanes, states - 2])

    terminal = np.full((count, s_max), -np.inf)
    terminal[lanes, states - 1] = 0.0
    terminal[lanes, states - 2] = 0.0
    beta = np.full((count, s_max), -np.inf)
    step = np.full((count, s_max), -np.inf)
    jump = np.full((count, s_max), -np.inf)
    bins = (lanes[:, None] * (vocab + 1) + ext).ravel()
    grad = np.zeros((rows + 1, vocab))
    with np.errstate(invalid="ignore"):
        for t in range(t_max - 1, -1, -1):
            if t < t_max - 1:
                nxt = beta + em_ext[t + 1]
                step[:, :-1] = nxt[:, 1:]
                jump[:, :-2] = nxt[:, 2:]
                beta = np.logaddexp(np.logaddexp(nxt, step), np.where(back_skip, jump, -np.inf))
            ending = last == t
            beta[ending] = terminal[ending]
            gamma = np.exp(alpha[t] + beta + losses[:, None])
            gamma[~np.isfinite(gamma)] = 0.0
            posterior = np.bincount(bins, weights=gamma.ravel(), minlength=count * (vocab + 1))
            grad[frame_rows[t]] = -posterior.reshape(count, vocab + 1)[:, :vocab]
    return losses, grad[:rows]


def ctc_per_frame_probability(logp, frames, targets):
    """``ctc_per_frame`` in probability space, on exp(logp), for lattices
    of normalised rows whose path mass p is not near underflow: the loss
    is -log p, and each frame's posteriors alpha * beta / p make their
    own bincount."""
    rows, vocab = logp.shape
    states, ext, skip, frame_rows, em = _padded_lattice_per_target(np.exp(logp), 0.0, frames, targets)
    t_max, count, s_max = em.shape
    lanes = np.arange(count)
    last = frames - 1
    back_skip = np.zeros_like(skip)
    back_skip[:, :-2] = skip[:, 2:]

    alpha = np.zeros((t_max, count, s_max))
    alpha[0, :, :2] = em[0, :, :2]
    step = np.zeros((count, s_max))
    jump = np.zeros((count, s_max))
    for t in range(1, t_max):
        prev = alpha[t - 1]
        step[:, 1:] = prev[:, :-1]
        jump[:, 2:] = prev[:, :-2]
        alpha[t] = (prev + step + np.where(skip, jump, 0.0)) * em[t]
    final = alpha[last, lanes]
    p = final[lanes, states - 1] + final[lanes, states - 2]

    terminal = np.zeros((count, s_max))
    terminal[lanes, states - 1] = 1.0
    terminal[lanes, states - 2] = 1.0
    beta = np.zeros((count, s_max))
    step = np.zeros((count, s_max))
    jump = np.zeros((count, s_max))
    bins = (lanes[:, None] * (vocab + 1) + ext).ravel()
    grad = np.zeros((rows + 1, vocab))
    for t in range(t_max - 1, -1, -1):
        if t < t_max - 1:
            nxt = beta * em[t + 1]
            step[:, :-1] = nxt[:, 1:]
            jump[:, :-2] = nxt[:, 2:]
            beta = nxt + step + np.where(back_skip, jump, 0.0)
        ending = last == t
        beta[ending] = terminal[ending]
        gamma = alpha[t] * beta / p[:, None]
        posterior = np.bincount(bins, weights=gamma.ravel(), minlength=count * (vocab + 1))
        grad[frame_rows[t]] = -posterior.reshape(count, vocab + 1)[:, :vocab]
    return -np.log(p), grad[:rows]


def viterbi_argmax(logp, frames, targets):
    """Packed Viterbi paths and found flags, choosing each back-pointer by
    ``argmax`` over stacked (jump, step, stay) candidates."""
    states, ext, skip, _, em_ext = _padded_lattice_per_target(logp, -np.inf, frames, targets)
    t_max, count, s_max = em_ext.shape
    lanes = np.arange(count)
    last = frames - 1
    score = np.full((count, s_max), -np.inf)
    score[:, :2] = em_ext[0, :, :2]
    final = np.where((last == 0)[:, None], score, -np.inf)
    back = np.zeros((t_max, count, s_max), dtype=np.int8)
    cands = np.full((3, count, s_max), -np.inf)
    for t in range(1, t_max):
        np.copyto(cands[0, :, 2:], score[:, :-2], where=skip[:, 2:])
        cands[1, :, 1:] = score[:, :-1]
        cands[2] = score
        back[t] = cands.argmax(axis=0)
        np.add(cands.max(axis=0), em_ext[t], out=score)
        ending = last == t
        final[ending] = score[ending]

    state = np.where(final[lanes, states - 2] >= final[lanes, states - 1], states - 2, states - 1)
    found = final[lanes, state] != -np.inf
    path = np.empty((t_max, count), dtype=np.int64)
    for t in range(t_max - 1, 0, -1):
        path[t] = state
        state = np.where(found & (last >= t), state - 2 + back[t, lanes, state], state)
    path[0] = state
    labels = ext[lanes, path].T
    return labels[np.arange(t_max) < frames[:, None]], found


def backprop_add_at(params, window, cache, dlogp):
    """Parameter gradients over the packed rows of ``nat._forward_packed``,
    the embedding gradient scattered by one ``np.add.at`` for the centers
    and one per window offset."""
    probs = np.exp(cache["logp"])
    dlogits = dlogp - probs * dlogp.sum(axis=1, keepdims=True)
    grads = {"w_out": cache["h2"].T @ dlogits, "b_out": dlogits.sum(axis=0)}
    dh2 = dlogits @ params["w_out"].T
    dpre2 = dh2 * (1.0 - cache["h2"] ** 2)
    grads["w2"] = cache["h1"].T @ dpre2
    grads["b2"] = dpre2.sum(axis=0)
    dh1 = dpre2 @ params["w2"].T
    dpre1 = dh1 * (1.0 - cache["h1"] ** 2)
    grads["w1"] = cache["ctx"].T @ dpre1
    grads["b1"] = dpre1.sum(axis=0)
    dctx = dpre1 @ params["w1"].T
    e = params["emb"].shape[1]
    ids, pair, lo, hi = cache["ids"], cache["pair"], cache["lo"], cache["hi"]
    demb = np.zeros_like(params["emb"])
    np.add.at(demb, ids[pair, cache["centers"]], dctx[:, :e])
    davg = dctx[:, e:2 * e] / cache["widths"][:, None]
    for offset in range(2 * window + 1):
        at = lo + offset
        inside = at < hi
        np.add.at(demb, ids[pair[inside], at[inside]], davg[inside])
    grads["emb"] = demb
    return grads


def sentence_loss_and_grads(model, source, target):
    """CTC loss of one pair and its parameter gradients: the package's
    forward and ``ctc_loss_and_grad`` at B = 1, then ``backprop_add_at``."""
    cache = _forward_packed(model, [source], np.array([model.config.upsample * len(source)]))
    loss, dlogp = ctc_loss_and_grad(cache["logp"], target)
    return loss, backprop_add_at(model.params, model.config.window, cache, dlogp)


def ctc_loss(emissions, target) -> float:
    """Negative log-probability that the lattice emits the target: the
    package's ``ctc_loss_and_grad`` without the gradient."""
    return ctc_loss_and_grad(emissions, target)[0]


def frame_path_logprob(emissions, path) -> float:
    """Sum of the log-probabilities a frame path reads."""
    e = np.asarray(emissions, dtype=np.float64)
    return float(sum(e[t, f] for t, f in enumerate(path)))


def validate_emissions(emissions, tol: float = 1e-9) -> None:
    """ValueError unless every entry of the (T, V) lattice is finite and
    every row log-sum-exps to 0 within ``tol``."""
    e = np.asarray(emissions, dtype=np.float64)
    if not np.all(np.isfinite(e)):
        raise ValueError("emission matrix contains non-finite entries")
    top = e.max(axis=1)
    lse = top + np.log(np.exp(e - top[:, None]).sum(axis=1))
    if np.max(np.abs(lse)) > tol:
        raise ValueError(f"emission rows not normalized (max |lse| = {np.max(np.abs(lse))})")


def score_ctc(model, source, reference, normalize_by_reference=False):
    """The ctc score record of one pair: ``score_corpus``'s grouped path
    at B = 1. Infeasible references score 0 and carry a flag."""
    return _score_pairs(model, [(source, reference)], "ctc", normalize_by_reference)[0]


def hamming_distance(a, b) -> int:
    """Mismatch count; each surplus position of the longer side counts."""
    m = min(len(a), len(b))
    d = sum(1 for i in range(m) if a[i] != b[i])
    return d + abs(len(a) - len(b))


def score_plain(reference, decoded) -> float:
    """1 - hamming/|reference|, clamped below at 0."""
    if len(reference) < 1:
        raise ScoringError("reference must be nonempty")
    return max(0.0, 1.0 - hamming_distance(reference, decoded) / len(reference))


# A token is a run of anything but the ASCII whitespace ``str.split()``
# splits on; ``str.split()`` itself would also split on U+00A0, U+3000 etc.
_ASCII_WHITESPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
_TOKEN = re.compile(f"[^{re.escape(_ASCII_WHITESPACE)}]+")


def read_text_lines(path, error):
    """The lines of ``path`` read in text mode, which reads CRLF and CR as
    LF, without their ends; bytes that are not UTF-8 raise ``error``
    naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{lineno}: not valid UTF-8 ({exc})") from exc
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_ids_regex(path, vocab):
    """Each line of ``path`` as a sentence of ids: the file's text lines,
    each line's tokens found by ``_TOKEN``, checked and registered in
    ``vocab`` as the line is read."""
    sentences = []
    for lineno, line in enumerate(read_text_lines(path, CorpusFormatError), start=1):
        tokens = _TOKEN.findall(line)
        if not tokens:
            raise CorpusFormatError(f"{path}:{lineno}: empty line")
        if len(tokens) > MAX_SENTENCE_LEN:
            raise CorpusFormatError(
                f"{path}:{lineno}: sentence has {len(tokens)} tokens, limit is {MAX_SENTENCE_LEN}"
            )
        ids = tuple(map(vocab.add, tokens))
        if min(ids) < len(RESERVED_SURFACES):  # a reserved surface maps to its reserved id
            surface = next(t for t in tokens if t in RESERVED_SURFACES)
            raise CorpusFormatError(f"{path}:{lineno}: reserved surface {surface!r} may not appear in a corpus")
        sentences.append(ids)
    return sentences
