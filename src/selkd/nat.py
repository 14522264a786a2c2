"""Minimal non-autoregressive model trained with a CTC objective.

The model predicts every decoder frame in parallel from the source
alone: frame t of T reads source position c = floor(t*N/T) and a
+-window neighborhood around it, and its feature vector concatenates the
center embedding, the window's embedding average, the frame's phase
(one-hot of t mod upsample) and its normalized position t/(T-1). That
feeds a two-layer tanh perceptron and an output projection over the
target vocabulary plus blank. The extra features matter: a bare window
average is permutation-invariant, so the center token would be
indistinguishable from its neighbors, and without the phase one-hot the
frames inside one neighborhood would collapse to a single distribution
and token order could not be learned at all. There is no length
predictor; the blank symbol absorbs length variation, and the positional
scoring variant simply runs the decoder at exactly the reference length.

All dynamic programming (loss, alignment) runs in log space over the
blank-interleaved extended label sequence, in double precision. The
deliberately tiny architecture keeps a full train/score/select cycle in
seconds while leaving every quantity exact enough for finite-difference
and enumeration checks.

Training runs a batch as a few groups, not pair by pair. The feasible
pairs are stable-sorted by source length and cut into groups. Each group
makes one forward over the frames of all its pairs, packed row-wise (pair
b owns T_b consecutive rows). It then runs CTC over a padded, time-major
(T_max, B, S_max) lattice, where padded frames and states read -inf, and
one backprop over the packed rows. The DP loops cost one numpy step per
frame whatever B is, so a group pays the Python overhead once for all its
pairs. Padding costs memory: a group's padded DP cells B * T_max * S_max
stay within ``_GROUP_CELLS``. Sorting by length keeps that padding small,
and the bound keeps the working set small on long lattices. A lattice's
loss and gradient do not depend on what it is padded with or next to, and
``forward`` and ``ctc_loss_and_grad`` are the same code at B = 1.

Scoring (``scoring.score_corpus``) uses the same groups, cut to at most
``batch_size`` pairs so that no forward outgrows a training step's. A ctc
group runs one packed forward, one greedy argmax over the packed rows and
one Viterbi pass (``_viterbi_packed``) over the same padded lattice. That
pass keeps the scores of one frame, each lane's scores at its own last
frame, and a (T_max, B, S_max) int8 array of back-pointer choices: 0 from
state s-2, 1 from s-1, 2 from s. One backtrace then walks all lanes back
together from their final states, a lane moving only at its real frames.
A plain group runs one packed forward at |reference| frames per pair
(``_positional_packed``). ``viterbi_align`` and ``decode_positional`` are
that code at B = 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import BLANK_ID, Sentence, UNK_ID, Vocabulary
from .rng import Rng

NEG_INF = float("-inf")

PARAM_NAMES = ("emb", "w1", "b1", "w2", "b2", "w_out", "b_out")


class CtcInfeasibleError(ValueError):
    """Target cannot be emitted within the available frames."""


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 16
    hidden_dim: int = 32
    upsample: int = 2
    window: int = 1
    learning_rate: float = 0.15
    epochs: int = 5
    batch_size: int = 32
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.upsample < 2:
            raise ValueError(f"upsample must be >= 2, got {self.upsample}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embed_dim and hidden_dim must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate and clip_norm must be positive")


@dataclass(frozen=True)
class EmissionMatrix:
    """Per-frame log-probabilities over the target vocabulary (incl. blank)."""

    log_probs: np.ndarray  # (T, V) float64, rows log-sum-exp to 0
    source_len: int

    @property
    def frames(self) -> int:
        return self.log_probs.shape[0]

    def validate(self, tol: float = 1e-9) -> None:
        if not np.all(np.isfinite(self.log_probs)):
            raise ValueError("emission matrix contains non-finite entries")
        lse = _logsumexp_rows(self.log_probs)
        if np.max(np.abs(lse)) > tol:
            raise ValueError(f"emission rows not normalized (max |lse| = {np.max(np.abs(lse))})")


def collapse(frames) -> Sentence:
    """CTC collapse: merge adjacent duplicate frames, then drop blanks.

    The order matters: a blank between two equal labels keeps them as a
    genuine repeated token ([a, blank, a] -> [a, a]), while [a, a] merges
    to [a].
    """
    out = []
    prev = None
    for f in frames:
        if f != prev:
            if f != BLANK_ID:
                out.append(f)
            prev = f
    return tuple(out)


@dataclass(frozen=True)
class FramePath:
    frames: tuple[int, ...]

    @property
    def collapsed(self) -> Sentence:
        return collapse(self.frames)


@dataclass(frozen=True)
class GreedyDecode:
    path: FramePath
    output: Sentence
    is_empty: bool


def param_shapes(config: ModelConfig, src_vocab_size: int, tgt_vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in ``PARAM_NAMES`` order."""
    e, h = config.embed_dim, config.hidden_dim
    # center embedding + window average + phase one-hot + position
    feat = 2 * e + config.upsample + 1
    return {
        "emb": (src_vocab_size, e),
        "w1": (feat, h),
        "b1": (h,),
        "w2": (h, h),
        "b2": (h,),
        "w_out": (h, tgt_vocab_size),
        "b_out": (tgt_vocab_size,),
    }


class NatModel:
    """Parameter container; forward passes are pure functions of it."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 src_vocab_size: int, tgt_vocab_size: int,
                 src_vocab_hash: str, tgt_vocab_hash: str):
        self.config = config
        self.params = params
        self.src_vocab_size = src_vocab_size
        self.tgt_vocab_size = tgt_vocab_size
        self.src_vocab_hash = src_vocab_hash
        self.tgt_vocab_hash = tgt_vocab_hash

    @classmethod
    def initialize(cls, config: ModelConfig, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> "NatModel":
        rng = Rng(config.seed)
        vs, vt = len(src_vocab), len(tgt_vocab)
        params = {}
        for name, shape in param_shapes(config, vs, vt).items():
            if name.startswith("b"):
                params[name] = np.zeros(shape, dtype=np.float64)
                continue
            fan_in = shape[0]
            fan_out = shape[1]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            flat = np.array([rng.uniform(-bound, bound) for _ in range(fan_in * fan_out)], dtype=np.float64)
            params[name] = flat.reshape(shape)
        return cls(config, params, vs, vt, src_vocab.content_hash(), tgt_vocab.content_hash())

    def copy(self) -> "NatModel":
        return NatModel(
            self.config,
            {k: v.copy() for k, v in self.params.items()},
            self.src_vocab_size,
            self.tgt_vocab_size,
            self.src_vocab_hash,
            self.tgt_vocab_hash,
        )

def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    mx = m.max(axis=1, keepdims=True)
    return (mx + np.log(np.exp(m - mx).sum(axis=1, keepdims=True))).ravel()


def _forward_packed(model: NatModel, sources: list[Sentence], frames: np.ndarray) -> dict:
    """Decoder forward over the frames of several sources at once.

    Frame rows are packed: pair b owns ``frames[b]`` consecutive rows.
    Source ids are padded to (B, N_max) so that each pair keeps its own
    prefix sum, and each pair's rows hold the numbers its lone forward
    gives.
    """
    cfg = model.config
    p = model.params
    lengths = np.array([len(s) for s in sources], dtype=np.int64)
    ids = np.full((len(sources), lengths.max()), UNK_ID, dtype=np.int64)
    for b, source in enumerate(sources):
        ids[b, :len(source)] = source
    ids[(ids < 0) | (ids >= model.src_vocab_size)] = UNK_ID
    pair = np.repeat(np.arange(len(sources)), frames)
    t = np.arange(len(pair)) - (np.cumsum(frames) - frames)[pair]
    n, t_count = lengths[pair], frames[pair]
    centers = (t * n) // t_count
    lo = np.maximum(centers - cfg.window, 0)
    hi = np.minimum(centers + cfg.window, n - 1) + 1
    widths = (hi - lo).astype(np.float64)
    emb_rows = p["emb"][ids]
    prefix = np.zeros((len(sources), ids.shape[1] + 1, cfg.embed_dim))
    np.cumsum(emb_rows, axis=1, out=prefix[:, 1:])
    avg = (prefix[pair, hi] - prefix[pair, lo]) / widths[:, None]
    phase = np.zeros((len(pair), cfg.upsample))
    phase[np.arange(len(pair)), t % cfg.upsample] = 1.0
    pos = (t / np.maximum(t_count - 1, 1))[:, None]
    ctx = np.hstack([emb_rows[pair, centers], avg, phase, pos])
    h1 = np.tanh(ctx @ p["w1"] + p["b1"])
    h2 = np.tanh(h1 @ p["w2"] + p["b2"])
    logits = h2 @ p["w_out"] + p["b_out"]
    logp = logits - _logsumexp_rows(logits)[:, None]
    return {
        "ids": ids, "pair": pair, "centers": centers, "lo": lo, "hi": hi, "widths": widths,
        "ctx": ctx, "h1": h1, "h2": h2, "logp": logp,
    }


def forward(model: NatModel, source: Sentence, frames: int | None = None) -> EmissionMatrix:
    """Emission lattice for a source sentence; T = upsample * |source|
    unless an explicit frame count is requested."""
    t_frames = model.config.upsample * len(source) if frames is None else frames
    _check_decoder_input(source, t_frames)
    cache = _forward_packed(model, [source], np.array([t_frames]))
    return EmissionMatrix(log_probs=cache["logp"], source_len=len(source))


def _check_decoder_input(source: Sentence, frames: int) -> None:
    """The decoder needs a nonempty source and at least one frame."""
    if len(source) == 0:
        raise ValueError("cannot run the decoder on an empty source")
    if frames < 1:
        raise ValueError(f"frame count must be >= 1, got {frames}")


def _backprop_packed(model: NatModel, cache: dict, dlogp: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. parameters, given dL/dlogp over
    the packed frame rows of ``_forward_packed``."""
    p = model.params
    probs = np.exp(cache["logp"])
    dlogits = dlogp - probs * dlogp.sum(axis=1, keepdims=True)
    grads: dict[str, np.ndarray] = {}
    grads["w_out"] = cache["h2"].T @ dlogits
    grads["b_out"] = dlogits.sum(axis=0)
    dh2 = dlogits @ p["w_out"].T
    dpre2 = dh2 * (1.0 - cache["h2"] ** 2)
    grads["w2"] = cache["h1"].T @ dpre2
    grads["b2"] = dpre2.sum(axis=0)
    dh1 = dpre2 @ p["w2"].T
    dpre1 = dh1 * (1.0 - cache["h1"] ** 2)
    grads["w1"] = cache["ctx"].T @ dpre1
    grads["b1"] = dpre1.sum(axis=0)
    dctx = dpre1 @ p["w1"].T
    e = model.config.embed_dim
    ids, pair, lo, hi = cache["ids"], cache["pair"], cache["lo"], cache["hi"]
    demb = np.zeros_like(p["emb"])
    np.add.at(demb, ids[pair, cache["centers"]], dctx[:, :e])
    # The window average spreads its gradient evenly over the window: one
    # scatter per window offset. Phase/position features are constants.
    davg = dctx[:, e:2 * e] / cache["widths"][:, None]
    for offset in range(2 * model.config.window + 1):
        at = lo + offset
        inside = at < hi
        np.add.at(demb, ids[pair[inside], at[inside]], davg[inside])
    grads["emb"] = demb
    return grads


# ---------------------------------------------------------------------------
# CTC dynamic programming over the extended (blank-interleaved) sequence.
# ---------------------------------------------------------------------------

def extend_with_blanks(target: Sentence) -> np.ndarray:
    ext = np.full(2 * len(target) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = target
    return ext


def min_frames(target: Sentence) -> int:
    """Fewest frames that can emit the target: one per token plus one
    blank between each adjacent repeat."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def _check_feasible(n_frames: int, target: Sentence) -> None:
    if len(target) == 0:
        raise ValueError("CTC target must be nonempty")
    need = min_frames(target)
    if n_frames < need:
        raise CtcInfeasibleError(
            f"target needs at least {need} frames ({len(target)} tokens incl. repeats), lattice has {n_frames}"
        )


def _skip_mask(ext: np.ndarray) -> np.ndarray:
    """States reachable from s-2: label states whose previous label differs."""
    mask = np.zeros(len(ext), dtype=bool)
    mask[3::2] = ext[3::2] != ext[1:-2:2]
    return mask


def _unwrap(emissions) -> np.ndarray:
    return emissions.log_probs if isinstance(emissions, EmissionMatrix) else np.asarray(emissions, dtype=np.float64)


def ctc_loss(emissions, target: Sentence) -> float:
    """Negative log-probability that the lattice emits the target."""
    return ctc_loss_and_grad(emissions, target)[0]


def ctc_loss_and_grad(emissions, target: Sentence) -> tuple[float, np.ndarray]:
    """Forward/backward over the extended sequence.

    Returns the loss -log p(target | emissions) and its gradient with
    respect to each log-probability entry (same shape as the lattice).
    The gradient at (t, v) is minus the posterior probability that frame
    t emits v on a path collapsing to the target.
    """
    e = _unwrap(emissions)
    target = tuple(target)
    _check_feasible(e.shape[0], target)
    losses, grad = _ctc_packed(e, np.array([e.shape[0]]), [target])
    if losses[0] == np.inf:
        raise CtcInfeasibleError("no feasible path despite frame-count check")
    return float(losses[0]), grad


def _padded_lattice(logp: np.ndarray, frames: np.ndarray, targets: list[Sentence]):
    """The padded, time-major view of B lattices packed row-wise in ``logp``.

    Lattice b owns ``frames[b]`` consecutive rows and target b has S_b =
    2|y_b| + 1 extended states. Returns S_b per lattice, the extended
    labels and skip masks (B, S_max), the packed row of each frame
    (T_max, B) and the emissions of each extended state (T_max, B, S_max).
    Padded states carry the label ``vocab`` and padded frames the row
    ``rows``, both all -inf, so no path leads from a padded cell into a
    real one.
    """
    rows, vocab = logp.shape
    states = np.array([2 * len(target) + 1 for target in targets])
    t_max, s_max = int(frames.max()), int(states.max())
    ext = np.full((len(targets), s_max), vocab, dtype=np.int64)
    skip = np.zeros((len(targets), s_max), dtype=bool)
    for b, target in enumerate(targets):
        ext[b, :states[b]] = extend_with_blanks(target)
        skip[b, :states[b]] = _skip_mask(ext[b, :states[b]])
    lattice = np.full((rows + 1, vocab + 1), NEG_INF)
    lattice[:rows, :vocab] = logp
    t_index = np.arange(t_max)[:, None]
    frame_rows = np.where(t_index < frames, np.cumsum(frames) - frames + t_index, rows)
    return states, ext, skip, frame_rows, lattice[frame_rows[:, :, None], ext[None, :, :]]


def _ctc_packed(logp: np.ndarray, frames: np.ndarray, targets: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
    """CTC losses and gradients of B lattices packed row-wise in ``logp``.

    Lattice b owns ``frames[b]`` consecutive rows. The recursions run over
    the padded (T_max, B, S_max) array of ``_padded_lattice``, so every
    lattice gets the numbers it would get alone; the posteriors of padded
    frames and states land in an extra row and label column that are
    dropped. Only alpha is kept for every frame; beta and the posteriors
    live one frame at a time.
    Returns the per-lattice losses (inf where no path exists) and dL/dlogp
    in the packed layout. The caller checks feasibility.
    """
    rows, vocab = logp.shape
    states, ext, skip, frame_rows, em_ext = _padded_lattice(logp, frames, targets)
    t_max, count, s_max = em_ext.shape
    lanes = np.arange(count)
    last = frames - 1
    back_skip = np.zeros_like(skip)  # s -> s+2 allowed
    back_skip[:, :-2] = skip[:, 2:]

    alpha = np.full((t_max, count, s_max), NEG_INF)
    alpha[0, :, :2] = em_ext[0, :, :2]
    step = np.full((count, s_max), NEG_INF)
    jump = np.full((count, s_max), NEG_INF)
    for t in range(1, t_max):
        prev = alpha[t - 1]
        step[:, 1:] = prev[:, :-1]
        jump[:, 2:] = prev[:, :-2]
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), np.where(skip, jump, NEG_INF)) + em_ext[t]
    final = alpha[last, lanes]
    losses = -np.logaddexp(final[lanes, states - 1], final[lanes, states - 2])

    # beta excludes the emission at t, so alpha + beta is the log-mass of
    # all full paths through state s at time t.
    terminal = np.full((count, s_max), NEG_INF)
    terminal[lanes, states - 1] = 0.0
    terminal[lanes, states - 2] = 0.0
    beta = np.full((count, s_max), NEG_INF)
    step = np.full((count, s_max), NEG_INF)
    jump = np.full((count, s_max), NEG_INF)
    # Summing each frame's posteriors per label in state order gives every
    # lattice the same bits as a per-state accumulation.
    bins = (lanes[:, None] * (vocab + 1) + ext).ravel()
    grad = np.zeros((rows + 1, vocab))
    with np.errstate(invalid="ignore"):
        for t in range(t_max - 1, -1, -1):
            if t < t_max - 1:
                nxt = beta + em_ext[t + 1]
                step[:, :-1] = nxt[:, 1:]
                jump[:, :-2] = nxt[:, 2:]
                beta = np.logaddexp(np.logaddexp(nxt, step), np.where(back_skip, jump, NEG_INF))
            ending = last == t
            beta[ending] = terminal[ending]
            gamma = np.exp(alpha[t] + beta + losses[:, None])
            gamma[~np.isfinite(gamma)] = 0.0
            posterior = np.bincount(bins, weights=gamma.ravel(), minlength=count * (vocab + 1))
            grad[frame_rows[t]] = -posterior.reshape(count, vocab + 1)[:, :vocab]
    return losses, grad[:rows]


def _viterbi_packed(logp: np.ndarray, frames: np.ndarray,
                    targets: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
    """Best frame paths of B lattices packed row-wise in ``logp``.

    The max-plus form of ``_ctc_packed``'s alpha recursion over the same
    padded (T_max, B, S_max) lattice. Each cell stores an int8 back-pointer
    choice among its predecessors, 0 = s-2 (jump), 1 = s-1 (step), 2 = s
    (stay), and the first maximum wins. Each lattice ends at its own last
    frame in S_b-2 (the last label) unless S_b-1 (the final blank) scores
    higher, and one backtrace runs over all lanes at once. Returns the
    labels of the best paths, packed like ``logp``'s rows, and whether
    each lattice has a finite path at all (the labels of one without are
    meaningless). The caller checks feasibility.
    """
    states, ext, skip, _, em_ext = _padded_lattice(logp, frames, targets)
    t_max, count, s_max = em_ext.shape
    lanes = np.arange(count)
    last = frames - 1
    score = np.full((count, s_max), NEG_INF)
    score[:, :2] = em_ext[0, :, :2]
    final = np.where((last == 0)[:, None], score, NEG_INF)
    back = np.zeros((t_max, count, s_max), dtype=np.int8)
    cands = np.full((3, count, s_max), NEG_INF)
    for t in range(1, t_max):
        np.copyto(cands[0, :, 2:], score[:, :-2], where=skip[:, 2:])
        cands[1, :, 1:] = score[:, :-1]
        cands[2] = score
        back[t] = cands.argmax(axis=0)
        np.add(cands.max(axis=0), em_ext[t], out=score)
        ending = last == t
        final[ending] = score[ending]

    state = np.where(final[lanes, states - 2] >= final[lanes, states - 1], states - 2, states - 1)
    found = final[lanes, state] != NEG_INF
    path = np.empty((t_max, count), dtype=np.int64)
    for t in range(t_max - 1, 0, -1):
        path[t] = state
        state = np.where(found & (last >= t), state - 2 + back[t, lanes, state], state)
    path[0] = state
    labels = ext[lanes, path].T  # (B, T_max)
    return labels[np.arange(t_max) < frames[:, None]], found


def viterbi_align(emissions, target: Sentence) -> FramePath:
    """Highest-log-probability frame path whose collapse equals the target.

    ``_viterbi_packed`` at B = 1. Ties prefer the smaller extended-state
    index at every choice, which places blanks at the earliest possible
    frames; the rule is deterministic.
    """
    e = _unwrap(emissions)
    target = tuple(target)
    _check_feasible(e.shape[0], target)
    labels, found = _viterbi_packed(e, np.array([e.shape[0]]), [target])
    if not found[0]:
        raise CtcInfeasibleError("no feasible alignment despite frame-count check")
    return FramePath(frames=tuple(labels.tolist()))


def frame_path_logprob(emissions, path: FramePath) -> float:
    e = _unwrap(emissions)
    return float(sum(e[t, f] for t, f in enumerate(path.frames)))


def decode_greedy(emissions) -> GreedyDecode:
    """Per-frame argmax and its collapse; argmax ties go to the lowest id."""
    e = _unwrap(emissions)
    frame_labels = tuple(int(v) for v in np.argmax(e, axis=1))
    out = collapse(frame_labels)
    return GreedyDecode(path=FramePath(frames=frame_labels), output=out, is_empty=len(out) == 0)


def _positional_packed(model: NatModel, sources: list[Sentence], lengths: np.ndarray) -> np.ndarray:
    """Best non-blank token per frame with source b decoded at exactly
    ``lengths[b]`` frames, packed row-wise like ``_forward_packed``."""
    logp = _forward_packed(model, sources, lengths)["logp"]
    logp[:, BLANK_ID] = NEG_INF
    return logp.argmax(axis=1)


def decode_positional(model: NatModel, source: Sentence, length: int) -> Sentence:
    """Positional decode for the plain scoring variant: run the decoder at
    exactly ``length`` frames and take the best non-blank token per frame
    (``_positional_packed`` at B = 1)."""
    _check_decoder_input(source, length)
    return tuple(_positional_packed(model, [source], np.array([length])).tolist())


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainResult:
    model: NatModel
    epoch_losses: tuple[float, ...]
    skipped: int
    updates: int
    snapshot: NatModel | None = None


def sentence_loss_and_grads(model: NatModel, source: Sentence, target: Sentence):
    """CTC loss of one pair plus parameter gradients: the grouped training
    path at B = 1, kept as the per-pair reference."""
    if len(source) == 0:
        raise ValueError("cannot run the decoder on an empty source")
    cache = _forward_packed(model, [source], np.array([model.config.upsample * len(source)]))
    loss, dlogp = ctc_loss_and_grad(cache["logp"], target)
    return loss, _backprop_packed(model, cache, dlogp)


# Padded DP cells (B * T_max * S_max) allowed in one training or scoring
# group. The DP loops cost per frame, not per cell, so bigger groups
# amortize them over more pairs; the bound keeps the (T, B, S) working set
# of long lattices small. A default-size batch of short pairs fits in one.
_GROUP_CELLS = 65_536


def _length_groups(batch: list[tuple[Sentence, Sentence]], indices: list[int],
                   upsample: int) -> list[list[int]]:
    """``indices`` into ``batch``, stable-sorted by source length and cut
    into groups whose padded DP lattice stays within ``_GROUP_CELLS``. A
    pair over the bound on its own gets a group of its own."""
    groups: list[list[int]] = []
    s_max = 0
    for i in sorted(indices, key=lambda i: len(batch[i][0])):
        source, target = batch[i]
        t_max = upsample * len(source)  # sorted, so the group's longest
        states = 2 * len(target) + 1
        if not groups or (len(groups[-1]) + 1) * t_max * max(s_max, states) > _GROUP_CELLS:
            groups.append([])
            s_max = 0
        groups[-1].append(i)
        s_max = max(s_max, states)
    return groups


def batch_step(model: NatModel, batch: list[tuple[Sentence, Sentence]],
               learning_rate: float, clip_norm: float) -> tuple[float | None, int]:
    """One SGD update on the mean loss over the feasible pairs of a batch.

    Returns (mean loss, number of skipped infeasible pairs). When every
    pair is infeasible no update happens and the loss is None. The
    feasible pairs run in length-sorted groups (see ``_length_groups``),
    each through one forward, one CTC pass and one backprop.
    """
    upsample = model.config.upsample
    feasible = []
    for i, (source, target) in enumerate(batch):
        if len(source) == 0:
            raise ValueError("cannot run the decoder on an empty source")
        if len(target) == 0:
            raise ValueError("CTC target must be nonempty")
        if min_frames(target) <= upsample * len(source):
            feasible.append(i)
    losses = np.full(len(batch), np.inf)
    total = {name: np.zeros_like(p) for name, p in model.params.items()}
    for group in _length_groups(batch, feasible, upsample):
        frames = upsample * np.array([len(batch[i][0]) for i in group])
        cache = _forward_packed(model, [batch[i][0] for i in group], frames)
        group_losses, dlogp = _ctc_packed(cache["logp"], frames, [batch[i][1] for i in group])
        losses[group] = group_losses
        grads = _backprop_packed(model, cache, dlogp)
        for name in total:
            total[name] += grads[name]
    kept = losses != np.inf
    counted = int(kept.sum())
    skipped = len(batch) - counted
    if counted == 0:
        return None, skipped
    norm_sq = 0.0
    for name in total:
        total[name] /= counted
        norm_sq += float(np.sum(total[name] ** 2))
    norm = np.sqrt(norm_sq)
    scale = clip_norm / norm if norm > clip_norm else 1.0
    for name, p in model.params.items():
        p -= learning_rate * scale * total[name]
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"parameter {name} became non-finite during an update")
    return float(losses[kept].sum()) / counted, skipped


def train(pairs: list[tuple[Sentence, Sentence]], config: ModelConfig,
          src_vocab: Vocabulary, tgt_vocab: Vocabulary,
          snapshot_at: int | None = None,
          progress=None) -> TrainResult:
    """Mini-batch SGD on the mean CTC loss.

    Batch order per epoch comes from the seeded portable shuffle, so a
    seed fixes the whole trajectory. Pairs whose target cannot fit the
    frame count are skipped and counted. ``snapshot_at`` captures a copy
    of the parameters after that many optimizer updates (for warm-starting
    students).
    """
    if not pairs:
        raise TrainingError("empty training set")
    upsample = config.upsample
    if all(min_frames(t) > upsample * len(s) for s, t in pairs):
        raise TrainingError("every training pair is infeasible for the configured upsample factor")

    model = NatModel.initialize(config, src_vocab, tgt_vocab)
    rng = Rng(config.seed ^ 0x5E1ECD)
    order = list(range(len(pairs)))
    epoch_losses = []
    skipped_total = 0
    updates = 0
    snapshot = None
    for epoch in range(config.epochs):
        rng.shuffle(order)
        loss_sum = 0.0
        counted = 0
        for start in range(0, len(order), config.batch_size):
            batch = [pairs[i] for i in order[start:start + config.batch_size]]
            loss, skipped = batch_step(model, batch, config.learning_rate, config.clip_norm)
            skipped_total += skipped
            if loss is None:
                continue
            loss_sum += loss * (len(batch) - skipped)
            counted += len(batch) - skipped
            updates += 1
            if snapshot_at is not None and updates == snapshot_at:
                snapshot = model.copy()
        epoch_losses.append(loss_sum / counted if counted else float("nan"))
        if progress is not None:
            progress(epoch, epoch_losses[-1])
    if snapshot_at is not None and snapshot is None:
        snapshot = model.copy()  # fewer total updates than requested
    return TrainResult(model=model, epoch_losses=tuple(epoch_losses),
                       skipped=skipped_total, updates=updates, snapshot=snapshot)


# ---------------------------------------------------------------------------
# Checkpoints: versioned text format, exact float round-trip via hex.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "selkd-checkpoint v1"


def serialize_model(model: NatModel) -> str:
    lines = [_CKPT_MAGIC]
    cfg = asdict(model.config)
    lines.append("config\t" + json.dumps(cfg, sort_keys=True))
    lines.append(f"src_vocab\t{model.src_vocab_hash}\t{model.src_vocab_size}")
    lines.append(f"tgt_vocab\t{model.tgt_vocab_hash}\t{model.tgt_vocab_size}")
    for name in PARAM_NAMES:
        arr = model.params[name]
        shape = ",".join(str(d) for d in arr.shape)
        values = " ".join(float(v).hex() for v in arr.ravel())
        lines.append(f"param\t{name}\t{shape}\t{values}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def model_digest(model: NatModel) -> str:
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def save_checkpoint(model: NatModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_model(model))


def load_checkpoint(path: str, src_vocab: Vocabulary | None = None,
                    tgt_vocab: Vocabulary | None = None) -> NatModel:
    """Load a checkpoint; vocabulary hashes and sizes must match when
    vocabularies are supplied, and every parameter must have the shape
    the config and the recorded vocabulary sizes imply."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a {_CKPT_MAGIC!r} file")
    if lines[-1] != "end":
        raise CheckpointError(f"{path}: truncated checkpoint")
    config = None
    hashes: dict[str, tuple[str, int]] = {}
    params: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:-1], start=2):
        kind, _, rest = line.partition("\t")
        if kind not in ("config", "src_vocab", "tgt_vocab", "param"):
            raise CheckpointError(f"{path}: unknown record {kind!r}")
        try:
            if kind == "config":
                config = ModelConfig(**json.loads(rest))
            elif kind == "param":
                name, shape_s, values = rest.split("\t")
                shape = tuple(int(d) for d in shape_s.split(","))
                arr = np.array([float.fromhex(v) for v in values.split(" ")], dtype=np.float64)
                params[name] = arr.reshape(shape)
            else:
                digest, size = rest.split("\t")
                hashes[kind] = (digest, int(size))
        except (ValueError, TypeError) as exc:
            raise CheckpointError(f"{path}:{lineno}: malformed {kind} record: {exc}") from exc
    if config is None or set(params) != set(PARAM_NAMES) or set(hashes) != {"src_vocab", "tgt_vocab"}:
        raise CheckpointError(f"{path}: incomplete checkpoint")
    for kind, side, vocab in (("src_vocab", "source", src_vocab), ("tgt_vocab", "target", tgt_vocab)):
        if vocab is not None and (vocab.content_hash(), len(vocab)) != hashes[kind]:
            raise CheckpointError(f"{path}: {side} vocabulary hash or size mismatch")
    expected = param_shapes(config, hashes["src_vocab"][1], hashes["tgt_vocab"][1])
    for name in PARAM_NAMES:
        if params[name].shape != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {params[name].shape}, but the config "
                f"and vocabulary sizes need {expected[name]}"
            )
    return NatModel(config, params,
                    hashes["src_vocab"][1], hashes["tgt_vocab"][1],
                    hashes["src_vocab"][0], hashes["tgt_vocab"][0])
