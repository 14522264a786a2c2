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

The dynamic programming (loss, alignment) runs over the blank-interleaved
extended label sequence, in double precision: the CTC loss as one
forward-backward pass (``_forward_backward``) in the probability
semiring, falling back to the log semiring for the rare lattice whose
path mass float64 cannot hold (``_ctc_packed``), and Viterbi alignment in
log space. The deliberately tiny architecture keeps a full
train/score/select cycle in seconds while leaving every quantity exact
enough for finite-difference and enumeration checks. Its parameters are
named views into one float64 vector, in ``PARAM_NAMES`` order, so that
an SGD update and its finiteness check are one call each.

Training is one SGD loop, ``sgd``, over a ``PairTable`` built once per
run. A batch runs as a few groups, not pair by pair: its feasible pairs
are stable-sorted by source length and cut into groups. Each group
makes one forward over the frames of all its pairs, packed row-wise (pair
b owns T_b consecutive rows). It then runs CTC over a padded, state-major
(T_max, S_max, B) lattice of emission probabilities, where padded frames
and states read 0, so that each frame of the recursions is a few numpy
steps over contiguous (S, B) rows, and one backprop over the packed rows.
The CTC pass keeps alpha and beta for every frame, beta in the emission
rows it has finished reading, and turns all the group's posteriors into
dL/dlogp with one bincount; the backprop scatters the embedding gradient
with one bincount over (token, column) bins. The DP loops cost a few numpy
steps per frame whatever B is, so a group pays the Python overhead once
for all its pairs. Padding costs memory: a group's padded DP cells
B * T_max * S_max stay within ``_GROUP_CELLS``. Sorting by length keeps
that padding small, and the bound keeps the working set small on long
lattices: at most two (T_max, S_max, B) arrays are live at once, so that
the allocator can reuse their memory from one group to the next instead
of returning it to the system and faulting it back in. A lattice's loss
and gradient do not depend on what it is padded with or next to, and
``forward`` and ``ctc_loss_and_grad`` are the same code at B = 1.

Scoring decodes through ``decode_pairs``. Its groups are sorted over the
whole corpus and carry little padding, so one Viterbi pass
(``_viterbi_packed``, in log-probabilities with padded cells -inf) spans
several consecutive forward groups, as many as its padded
log-probabilities and back-pointers allow (``_viterbi_runs``), and pays
its per-frame numpy calls once for all of them. That pass gathers each
frame's emissions from the padded table inside its loop, and keeps the
scores of one frame, each lane's scores at its own last frame, and a
(T_max, S_max, B) int8 array of back-pointer choices: 0 from state s-2,
1 from s-1, 2 from s, the first maximum picked by two comparisons. One
backtrace then walks all lanes back together from their final states, a
lane moving only at its real frames. ``viterbi_align`` and
``decode_positional`` are that code at B = 1.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .corpus import BLANK_ID, MAX_SENTENCE_LEN, Sentence, UNK_ID, Vocabulary, read_lines, write_lines
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.upsample < 2:
            raise ValueError(f"upsample must be >= 2, got {self.upsample}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embed_dim and hidden_dim must be >= 1")
        if not 0 <= self.window <= MAX_SENTENCE_LEN:  # a wider window reads no more
            raise ValueError(f"window must be in [0, {MAX_SENTENCE_LEN}]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (0 < self.learning_rate < float("inf") and 0 < self.clip_norm < float("inf")):
            raise ValueError("learning_rate and clip_norm must be finite and positive")


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
class GreedyDecode:
    frames: tuple[int, ...]
    output: Sentence


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


@dataclass(frozen=True, eq=False)
class NatModel:
    """Parameter container; forward passes are pure functions of it. Two
    models are equal only if they are the same object. A model copies the
    given ``params`` into a vector of its own, ``flat``, and keeps views."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    src_vocab_size: int
    tgt_vocab_size: int
    src_vocab_hash: str
    tgt_vocab_hash: str
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        flat = np.concatenate([np.ravel(self.params[name]) for name in PARAM_NAMES], dtype=np.float64)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "params", _views(flat, self.params))

    @classmethod
    def initialize(cls, config: ModelConfig, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> "NatModel":
        rng = Rng(config.seed)
        vs, vt = len(src_vocab), len(tgt_vocab)
        zeros = {name: np.zeros(shape) for name, shape in param_shapes(config, vs, vt).items()}
        model = cls(config, zeros, vs, vt, src_vocab.content_hash(), tgt_vocab.content_hash())
        for name, p in model.params.items():
            if not name.startswith("b"):
                bound = np.sqrt(6.0 / (p.shape[0] + p.shape[1]))  # fan in + fan out
                p[...] = np.reshape([rng.uniform(-bound, bound) for _ in range(p.size)], p.shape)
        return model

    def copy(self) -> "NatModel":
        return replace(self)  # with a vector of its own


def _views(flat: np.ndarray, like: dict) -> dict[str, np.ndarray]:
    """Views of ``flat`` shaped like the arrays of ``like``, which it holds
    back to back in ``PARAM_NAMES`` order."""
    parts = np.split(flat, np.cumsum([np.size(like[name]) for name in PARAM_NAMES])[:-1])
    return {name: part.reshape(np.shape(like[name])) for name, part in zip(PARAM_NAMES, parts)}


def _padded(seqs: list[Sentence], lengths: np.ndarray, fill: int) -> np.ndarray:
    """The sequences as rows of a (B, max length) array, padded with ``fill``."""
    out = np.full((len(seqs), int(lengths.max())), fill, dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    return out


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    mx = m.max(axis=1, keepdims=True)
    shifted = m - mx
    np.exp(shifted, out=shifted)
    return (mx + np.log(shifted.sum(axis=1, keepdims=True))).ravel()


def _tanh_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tanh(x @ w + b), computed in the product's buffer."""
    out = x @ w
    out += b
    return np.tanh(out, out=out)


def _forward_packed(model: NatModel, sources: list[Sentence], frames: np.ndarray) -> dict:
    """Decoder forward over the frames of several sources at once.

    Frame rows are packed: pair b owns ``frames[b]`` consecutive rows.
    Source ids are padded to (B, N_max) so that each pair keeps its own
    prefix sum, and each pair's rows hold the numbers its lone forward
    gives. Each feature block is written straight into ctx, and each layer
    and the log-softmax run in place.
    """
    cfg = model.config
    p = model.params
    lengths = np.array([len(s) for s in sources], dtype=np.int64)
    ids = _padded(sources, lengths, UNK_ID)
    ids[(ids < 0) | (ids >= model.src_vocab_size)] = UNK_ID
    pair = np.repeat(np.arange(len(sources)), frames)
    t = np.arange(len(pair)) - (np.cumsum(frames) - frames)[pair]
    n, t_count = lengths[pair], frames[pair]
    centers = (t * n) // t_count
    lo = np.maximum(centers - cfg.window, 0)
    hi = np.minimum(centers + cfg.window, n - 1) + 1
    widths = (hi - lo).astype(np.float64)
    e = cfg.embed_dim
    prefix = np.zeros((len(sources), ids.shape[1] + 1, e))
    np.cumsum(p["emb"][ids], axis=1, out=prefix[:, 1:])
    # [center embedding | window average | phase one-hot | position]
    ctx = np.zeros((len(pair), p["w1"].shape[0]))
    ctx[:, :e] = p["emb"][ids[pair, centers]]
    avg = ctx[:, e:2 * e]
    np.subtract(prefix[pair, hi], prefix[pair, lo], out=avg)
    avg /= widths[:, None]
    ctx[np.arange(len(pair)), 2 * e + t % cfg.upsample] = 1.0
    np.divide(t, np.maximum(t_count - 1, 1), out=ctx[:, -1])
    h1 = _tanh_layer(ctx, p["w1"], p["b1"])
    h2 = _tanh_layer(h1, p["w2"], p["b2"])
    logp = h2 @ p["w_out"]
    logp += p["b_out"]
    logp -= _logsumexp_rows(logp)[:, None]
    return {
        "ids": ids, "pair": pair, "centers": centers, "lo": lo, "hi": hi, "widths": widths,
        "ctx": ctx, "h1": h1, "h2": h2, "logp": logp,
    }


def forward(model: NatModel, source: Sentence) -> np.ndarray:
    """(T, V) log-probabilities over the target vocabulary (incl. blank)
    for a source sentence, T = upsample * |source|; each row log-sum-exps
    to 0."""
    t_frames = model.config.upsample * len(source)
    _check_decoder_input(source, t_frames)
    return _forward_packed(model, [source], np.array([t_frames]))["logp"]


def _tanh_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dout * (1 - out**2) for ``out = tanh(pre)``, in ``dout``'s buffer."""
    slope = np.square(out)
    np.subtract(1.0, slope, out=slope)
    dout *= slope
    return dout


def _check_source(source: Sentence) -> None:
    """The decoder needs a nonempty source."""
    if len(source) == 0:
        raise ValueError("cannot run the decoder on an empty source")


def _check_decoder_input(source: Sentence, frames: int) -> None:
    """The decoder needs a nonempty source and at least one frame."""
    _check_source(source)
    if frames < 1:
        raise ValueError(f"frame count must be >= 1, got {frames}")


def _backprop_packed(model: NatModel, cache: dict, dlogp: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. parameters, given dL/dlogp over
    the packed frame rows of ``_forward_packed``."""
    p = model.params
    dlogits = np.exp(cache["logp"])
    dlogits *= dlogp.sum(axis=1, keepdims=True)
    np.subtract(dlogp, dlogits, out=dlogits)
    grads: dict[str, np.ndarray] = {}
    grads["w_out"] = cache["h2"].T @ dlogits
    grads["b_out"] = dlogits.sum(axis=0)
    dpre2 = _tanh_backward(dlogits @ p["w_out"].T, cache["h2"])
    grads["w2"] = cache["h1"].T @ dpre2
    grads["b2"] = dpre2.sum(axis=0)
    dpre1 = _tanh_backward(dpre2 @ p["w2"].T, cache["h1"])
    grads["w1"] = cache["ctx"].T @ dpre1
    grads["b1"] = dpre1.sum(axis=0)
    dctx = dpre1 @ p["w1"].T
    e = model.config.embed_dim
    ids, pair, lo, hi = cache["ids"], cache["pair"], cache["lo"], cache["hi"]
    # The window average spreads its gradient evenly over the window: the
    # rows of window offset k add to the ids at lo + k. Phase and position
    # features are constants. One bincount over (token, column) bins takes
    # the center rows, then each offset's rows, in packed-row order, so
    # every entry sums its addends in the order of one scatter per block.
    at = lo + np.arange(2 * model.config.window + 1)[:, None]  # (offsets, rows)
    inside = at < hi
    rows = np.nonzero(inside)[1]
    token = np.concatenate([ids[pair, cache["centers"]], ids[pair[rows], at[inside]]])
    addends = np.empty((len(token), e))
    addends[:len(pair)] = dctx[:, :e]
    davg = dctx[:, e:2 * e] / cache["widths"][:, None]
    np.take(davg, rows, axis=0, out=addends[len(pair):])
    bins = (token * e)[:, None] + np.arange(e)
    grads["emb"] = np.bincount(bins.ravel(), weights=addends.ravel(),
                               minlength=p["emb"].size).reshape(p["emb"].shape)
    return grads


# ---------------------------------------------------------------------------
# CTC dynamic programming over the extended (blank-interleaved) sequence.
# ---------------------------------------------------------------------------

def min_frames(target: Sentence) -> int:
    """Fewest frames that can emit the target: one per token plus one
    blank between each adjacent repeat."""
    return len(target) + sum(map(operator.eq, target, target[1:]))


def _check_feasible(n_frames: int, target: Sentence) -> None:
    if len(target) == 0:
        raise ValueError("CTC target must be nonempty")
    need = min_frames(target)
    if n_frames < need:
        raise CtcInfeasibleError(
            f"target needs at least {need} frames ({len(target)} tokens incl. repeats), lattice has {n_frames}"
        )


def _check_values(e: np.ndarray) -> None:
    """ValueError naming the first (frame, label) of a (T, V) lattice that
    is NaN or +inf. -inf (a blocked label) and rows that are not
    normalised are allowed."""
    bad = np.isnan(e) | (e == np.inf)
    if bad.any():
        t, v = np.argwhere(bad)[0]
        raise ValueError(f"lattice value at (frame {t}, label {v}) is {e[t, v]}")


def ctc_loss_and_grad(emissions, target: Sentence) -> tuple[float, np.ndarray]:
    """Forward/backward over the extended sequence of a (T, V) lattice of
    log-probabilities (any array-like).

    Returns the loss -log p(target | emissions) and its gradient with
    respect to each log-probability entry (same shape as the lattice).
    The gradient at (t, v) is minus the posterior probability that frame
    t emits v on a path collapsing to the target. ``_ctc_packed`` at
    B = 1: normalised rows run in probability space; rows that are not
    (probability mass above 1, overflow) or a path mass below
    ``_MIN_PATH_MASS`` run in log space. A lattice holding NaN or +inf is
    rejected with ValueError; -inf blocks a label.
    """
    e = np.asarray(emissions, dtype=np.float64)
    target = tuple(target)
    _check_feasible(e.shape[0], target)
    _check_values(e)
    losses, grad = _ctc_packed(e, np.array([e.shape[0]]), [target])
    if losses[0] == np.inf:
        raise CtcInfeasibleError("no feasible path despite frame-count check")
    return float(losses[0]), grad


def _padded_lattice(table: np.ndarray, pad: float, frames: np.ndarray, targets: list[Sentence]):
    """The padded, state-major view of B lattices packed row-wise in
    ``table``, a (rows, vocab) array of per-frame label values: the layout
    of ``_lattice_layout`` and the value of each cell of the
    (T_max, S_max, B) lattice, gathered from its padded table through
    ``_cells``."""
    states, ext, skip, frame_rows, padded = _lattice_layout(table, pad, frames, targets)
    return states, ext, skip, frame_rows, np.take(padded.ravel(), _cells(frame_rows, ext, table.shape[1]))


def _lattice_layout(table: np.ndarray, pad: float, frames: np.ndarray, targets: list[Sentence]):
    """The layout of B lattices packed row-wise in ``table``, a
    (rows, vocab) array of per-frame label values.

    Lattice b owns ``frames[b]`` consecutive rows and target b has S_b =
    2|y_b| + 1 extended states. Returns S_b per lattice, the extended
    labels (S_max, B), the skip mask (S_max, B) (True at the label states
    s = 3, 5, ... that may be entered from s-2, because their label
    differs from the previous one), the packed row of each frame
    (T_max, B), and ``table`` padded to (rows + 1, vocab + 1). Padded
    states carry the label ``vocab`` and padded frames the row ``rows``,
    and every cell of either reads ``pad``, which the caller picks so that
    no path leads from a padded cell into a real one (-inf for
    log-probabilities, 0 for probabilities).
    """
    rows, vocab = table.shape
    lengths = np.array([len(target) for target in targets])
    states = 2 * lengths + 1
    t_max, s_max = int(frames.max()), int(states.max())
    real = np.arange(s_max)[:, None] < states
    ext = np.where(real, BLANK_ID, vocab)
    ext[1::2] = _padded(targets, lengths, vocab).T
    skip = np.zeros((s_max, len(targets)), dtype=bool)
    skip[3::2] = (ext[3::2] != ext[1:-2:2]) & real[3::2]
    padded = np.full((rows + 1, vocab + 1), pad)
    padded[:rows, :vocab] = table
    t_index = np.arange(t_max)[:, None]
    frame_rows = np.where(t_index < frames, np.cumsum(frames) - frames + t_index, rows)
    return states, ext, skip, frame_rows, padded


def _cells(frame_rows: np.ndarray, ext: np.ndarray, vocab: int) -> np.ndarray:
    """The flat (packed row, label) index into a (rows + 1, vocab + 1) table
    of each cell of the (T_max, S_max, B) lattice."""
    return (frame_rows * (vocab + 1))[:, None, :] + ext


def _lanes_ending(last: np.ndarray) -> dict[int, list[int]]:
    """The lanes whose last frame is t, for each t that ends some lane."""
    ends: dict[int, list[int]] = {}
    for lane, t in enumerate(last.tolist()):
        ends.setdefault(t, []).append(lane)
    return ends


def _posteriors(gamma: np.ndarray, frame_rows: np.ndarray, ext: np.ndarray, rows: int, vocab: int) -> np.ndarray:
    """-dL/dlogp: the (T_max, S_max, B) state posteriors ``gamma`` summed
    into (packed row, label) bins by one bincount in (t, s, b) order. A
    real bin's states all belong to one (t, b), so it adds them in state
    order, as a per-frame accumulation would. Padded frames and states land
    in an extra row and label column that are dropped."""
    posterior = np.bincount(_cells(frame_rows, ext, vocab).ravel(), weights=gamma.ravel(),
                            minlength=(rows + 1) * (vocab + 1))
    return posterior.reshape(rows + 1, vocab + 1)[:rows, :vocab]


# A lattice whose total path probability p is below this goes to the
# log-space kernel. Over rows of probability mass at most 1, alpha and
# beta are at most 1, because distinct state paths emit distinct label
# sequences; so an alpha or beta that underflows (below 2.2e-308, where
# float64 loses relative precision) enters a posterior alpha * beta / p
# below 2.2e-308 / 1e-200 = 2.2e-108. Above the floor, which is a loss of
# at most 460.5 nats, every result is accurate to float64 rounding.
_MIN_PATH_MASS = 1e-200

# How far a row's probability mass may exceed 1 and still count as
# normalised: exp of a log-softmax row sums to 1 within a few ulps per
# label, and (1 + 1e-9) ** T_max keeps alpha and beta within 1 + 1e-3 of
# the bound above for any lattice shorter than a million frames.
_MASS_SLACK = 1e-9


# The (plus, times, zero, one) semirings of ``_forward_backward``: sums and
# products of probabilities, and the same over their logarithms.
_PROBABILITY = (np.add, np.multiply, 0.0, 1.0)
_LOG = (np.logaddexp, np.add, NEG_INF, 0.0)


def _forward_backward(table: np.ndarray, frames: np.ndarray, targets: list[Sentence], semiring):
    """CTC forward-backward of B lattices packed row-wise in ``table``, in
    ``semiring`` (``_PROBABILITY`` over probabilities, ``_LOG`` over
    log-probabilities).

    Lattice b owns ``frames[b]`` consecutive rows. The recursions run over
    the padded (T_max, S_max, B) array of ``_padded_lattice``, gathered
    with padded cells ``zero``, so each frame of alpha and of beta is a few
    contiguous ufunc calls, and every lattice gets the values it would get
    alone. The s-2 term is added at every state from 2 on, times a
    ``one``/``zero`` mask of the states that may take it. beta excludes the
    emission at t, so alpha (x) beta is the mass of all full paths through
    state s at time t. Alpha and beta are both kept for every frame: beta
    at frame t overwrites the emissions of frame t+1 once it has read them,
    so the pass holds two (T_max, S_max, B) arrays, and the emissions are
    freed when it returns.

    Returns each lattice's path mass p (the sum of its final-blank and
    last-label alpha), the state posteriors alpha (x) beta, not yet divided
    by p, and the packed row of each frame and the extended labels that
    ``_posteriors`` needs.
    """
    plus, times, zero, one = semiring
    states, ext, skip, frame_rows, em = _padded_lattice(table, zero, frames, targets)
    t_max, s_max, count = em.shape
    lanes = np.arange(count)
    last = frames - 1
    skip = np.where(skip[2:], one, zero)
    jump = np.empty_like(skip)

    alpha = np.empty((t_max, s_max, count))
    alpha[0] = zero
    alpha[0, :2] = em[0, :2]
    for t in range(1, t_max):
        prev, cur = alpha[t - 1], alpha[t]
        cur[0] = prev[0]
        plus(prev[1:], prev[:-1], cur[1:])
        times(prev[:-2], skip, jump)
        plus(cur[2:], jump, cur[2:])
        times(cur, em[t], cur)
    final = alpha[last, :, lanes]  # (B, S_max)
    mass = plus(final[lanes, states - 1], final[lanes, states - 2])

    # A lattice's beta is zero after its last frame, and at that frame it
    # is one in its final blank and last label. Frame t+1's emissions are
    # read only to step beta from t+1 to t, so beta at t overwrites them:
    # beta needs no (T_max, S_max, B) array of its own, only one for its
    # last frame.
    beta_last = np.full((s_max, count), zero)
    beta = beta_last
    nxt = np.empty_like(beta_last)
    ends = _lanes_ending(last)
    for t in range(t_max - 1, -1, -1):
        if t < t_max - 1:
            times(beta, em[t + 1], nxt)
            beta = em[t + 1]
            beta[-1] = nxt[-1]
            plus(nxt[:-1], nxt[1:], beta[:-1])
            times(nxt[2:], skip, jump)
            plus(beta[:-2], jump, beta[:-2])
        if t in ends:
            b = ends[t]
            beta[states[b] - 1, b] = one
            beta[states[b] - 2, b] = one

    gamma = alpha  # alpha is not needed again
    times(gamma[:-1], em[1:], gamma[:-1])  # beta at frames 0 .. T_max - 2
    times(gamma[-1], beta_last, gamma[-1])
    return mass, gamma, frame_rows, ext


def _ctc_packed(logp: np.ndarray, frames: np.ndarray, targets: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
    """CTC losses and gradients of B lattices packed row-wise in ``logp``.

    ``_forward_backward`` in probability space, on exp(logp): the loss is
    -log p and the posteriors are alpha * beta / p. A lattice whose rows
    are not normalised (a mass above 1, NaN or an overflow) or whose p is
    below ``_MIN_PATH_MASS`` (a loss above 460.5 nats, or no path at all)
    is recomputed alone by ``_ctc_log``, and only that lattice. Returns the
    per-lattice losses (inf where no path exists) and dL/dlogp in the
    packed layout. The caller checks feasibility.
    """
    with np.errstate(over="ignore"):
        prob = np.exp(logp)
    normal = prob.sum(axis=1) <= 1 + _MASS_SLACK  # False for NaN and overflow too
    prob[~normal] = 0.0
    mass, gamma, frame_rows, ext = _forward_backward(prob, frames, targets, _PROBABILITY)
    del prob
    kept = np.logical_and.reduceat(normal, np.cumsum(frames) - frames) & (mass >= _MIN_PATH_MASS)
    mass[~kept] = 1.0  # those lattices are recomputed below
    losses = -np.log(mass)
    gamma /= mass
    grad = -_posteriors(gamma, frame_rows, ext, *logp.shape)
    del gamma
    if not kept.all():
        redo = np.flatnonzero(~kept)
        mine = ~kept[np.repeat(np.arange(len(frames)), frames)]
        losses[redo], grad[mine] = _ctc_log(logp[mine], frames[redo], [targets[b] for b in redo])
    return losses, grad


def _ctc_log(logp: np.ndarray, frames: np.ndarray, targets: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
    """``_ctc_packed`` in log space, for the lattices it cannot represent:
    ``_forward_backward`` on ``logp`` itself, then one exp of the
    posteriors. Returns the losses (inf where no path exists) and dL/dlogp.
    """
    log_mass, gamma, frame_rows, ext = _forward_backward(logp, frames, targets, _LOG)
    losses = -log_mass
    with np.errstate(invalid="ignore"):  # -inf + inf where a lattice has no path
        gamma += losses
    np.exp(gamma, out=gamma)
    gamma[~np.isfinite(gamma)] = 0.0
    return losses, -_posteriors(gamma, frame_rows, ext, *logp.shape)


def _viterbi_packed(logp: np.ndarray, frames: np.ndarray,
                    targets: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
    """Best frame paths of B lattices packed row-wise in ``logp``.

    The max-plus form of ``_forward_backward``'s alpha recursion over the
    same padded (T_max, S_max, B) lattice, whose emissions it gathers one
    frame at a time from the padded table of ``_lattice_layout``: one index
    add and one ``take`` per frame. Each cell stores an int8 back-pointer
    choice among its predecessors, 0 = s-2 (jump), 1 = s-1 (step), 2 = s
    (stay), and the first maximum wins: two comparisons per frame pick it,
    which needs emissions free of NaN. The back-pointers are the pass's
    only (T_max, S_max, B) array. Each lattice ends at its own last frame
    in S_b-2 (the last label) unless S_b-1 (the final blank) scores higher,
    and one backtrace runs over all lanes at once. Returns the labels of
    the best paths, packed like ``logp``'s rows, and whether each lattice
    has a finite path at all (the labels of one without are meaningless).
    The caller checks feasibility.
    """
    states, ext, skip, frame_rows, padded = _lattice_layout(logp, NEG_INF, frames, targets)
    emissions = padded.ravel()
    offsets = frame_rows * padded.shape[1]  # where each frame's row starts in ``emissions``
    (s_max, count), t_max = ext.shape, len(frame_rows)
    lanes = np.arange(count)
    last = frames - 1
    skip = skip[3::2]
    score = np.full((s_max, count), NEG_INF)
    score[:2] = emissions[ext[:2] + offsets[0]]
    final = np.where(last == 0, score, NEG_INF)
    back = np.zeros((t_max, s_max, count), dtype=np.int8)
    jump = np.full((s_max, count), NEG_INF)
    step = np.full((s_max, count), NEG_INF)
    cells = np.empty((s_max, count), dtype=np.int64)
    emitted = np.empty((s_max, count))
    ends = _lanes_ending(last)
    for t in range(1, t_max):
        np.copyto(jump[3::2], score[1:-2:2], where=skip)
        step[1:] = score[:-1]
        # Choice 2 - take_step, or 0 unless jump < best: a tie goes to the
        # earlier candidate, as the first maximum of (jump, step, stay).
        take_step = step >= score
        best = np.maximum(step, score)
        not_jump = jump < best
        np.maximum(jump, best, out=best)
        np.subtract(2, take_step, out=back[t], dtype=np.int8)
        back[t] *= not_jump
        np.add(ext, offsets[t], out=cells)
        np.take(emissions, cells, out=emitted, mode="clip")  # in range: "clip" skips a buffered copy
        np.add(best, emitted, out=score)
        if t in ends:
            final[:, ends[t]] = score[:, ends[t]]

    state = np.where(final[states - 2, lanes] >= final[states - 1, lanes], states - 2, states - 1)
    found = final[state, lanes] != NEG_INF
    path = np.empty((t_max, count), dtype=np.int64)
    for t in range(t_max - 1, 0, -1):
        path[t] = state
        state = np.where(found & (last >= t), state - 2 + back[t, state, lanes], state)
    path[0] = state
    labels = ext[path, lanes].T  # (B, T_max)
    return labels[np.arange(t_max) < frames[:, None]], found


def viterbi_align(emissions, target: Sentence) -> tuple[int, ...]:
    """Labels of the highest-log-probability frame path through a (T, V)
    lattice (any array-like) whose collapse equals the target.

    ``_viterbi_packed`` at B = 1. Ties prefer the smaller extended-state
    index at every choice, which places blanks at the earliest possible
    frames; the rule is deterministic. A lattice holding NaN or +inf is
    rejected with ValueError; -inf blocks a label.
    """
    e = np.asarray(emissions, dtype=np.float64)
    target = tuple(target)
    _check_feasible(e.shape[0], target)
    _check_values(e)
    labels, found = _viterbi_packed(e, np.array([e.shape[0]]), [target])
    if not found[0]:
        raise CtcInfeasibleError("no feasible alignment despite frame-count check")
    return tuple(labels.tolist())


def decode_greedy(emissions: np.ndarray) -> GreedyDecode:
    """Per-frame argmax of a (T, V) lattice and its collapse; argmax ties
    go to the lowest id."""
    frames = tuple(np.argmax(emissions, axis=1).tolist())
    return GreedyDecode(frames=frames, output=collapse(frames))


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
    _check_source(source)
    cache = _forward_packed(model, [source], np.array([model.config.upsample * len(source)]))
    loss, dlogp = ctc_loss_and_grad(cache["logp"], target)
    return loss, _backprop_packed(model, cache, dlogp)


@dataclass(frozen=True)
class PairTable:
    """The (source, target) pairs of one run, with the lattice length,
    extended-state count and feasibility of each computed once. A batch is
    an array of slots into the table. With several targets per source (the
    student's raw and distilled), variant v of pair i is at slot v * n + i."""

    pairs: list[tuple[Sentence, Sentence]]
    frames: np.ndarray  # upsample * |source|
    states: np.ndarray  # 2 * |target| + 1
    feasible: np.ndarray  # min_frames(target) <= frames

    @classmethod
    def of(cls, pairs: list[tuple[Sentence, Sentence]], upsample: int) -> "PairTable":
        """ValueError for an empty source or target."""
        for source, target in pairs:
            _check_source(source)
            if len(target) == 0:
                raise ValueError("target must be nonempty")
        frames = upsample * np.array([len(source) for source, _ in pairs], dtype=np.int64)
        return cls(pairs, frames, 2 * np.array([len(target) for _, target in pairs], dtype=np.int64) + 1,
                   np.array([min_frames(target) for _, target in pairs]) <= frames)


# Padded DP cells (B * T_max * S_max) allowed in one training or scoring
# group. The DP loops cost per frame, not per cell, so bigger groups
# amortize them over more pairs; the bound keeps the (T, S, B) working set
# of long lattices small. A default-size batch of short pairs fits in one.
_GROUP_CELLS = 65_536


def _length_groups(frames: np.ndarray, states: np.ndarray) -> list[np.ndarray]:
    """Positions 0 .. B-1 of pairs with these lattice lengths and state
    counts, stable-sorted by length and cut into groups whose padded DP
    lattice stays within ``_GROUP_CELLS``. A pair over the bound on its own
    gets a group of its own."""
    order = np.argsort(frames, kind="stable")
    cuts: list[int] = []
    start = s_max = 0
    for end, (t_max, s) in enumerate(zip(frames[order].tolist(), states[order].tolist())):
        # sorted, so t_max is the longest lattice of the group it joins
        if end > start and (end - start + 1) * t_max * max(s_max, s) > _GROUP_CELLS:
            cuts.append(end)
            start, s_max = end, 0
        s_max = max(s_max, s)
    return np.split(order, cuts) if len(order) else []


def _viterbi_runs(groups: list[np.ndarray], table: PairTable, vocab: int):
    """Runs of consecutive ``groups`` of ``table``'s pairs, one Viterbi
    pass each: a run grows while its log-probabilities hold at most
    ``_GROUP_CELLS`` values (rows x (vocab + 1), its padded table) and its
    int8 back-pointers at most 8 x ``_GROUP_CELLS`` cells, the bytes of
    one float64 lattice. A group over either bound on its own is a run of
    its own."""
    run: list[np.ndarray] = []
    for group in groups:
        lanes = np.concatenate(run + [group])
        frames, states = table.frames[lanes], table.states[lanes]
        if run and (frames.sum() * (vocab + 1) > _GROUP_CELLS or
                    len(lanes) * frames.max() * states.max() > 8 * _GROUP_CELLS):
            yield run
            run = []
        run.append(group)
    if run:
        yield run


def decode_pairs(model: NatModel, table: PairTable, lanes: np.ndarray, positional: bool):
    """Decode the pairs at slots ``lanes`` of ``table`` in packed passes,
    in the length groups of training cut to at most ``batch_size`` pairs,
    so that no forward outgrows a training step's.

    Yields ``(slots, frames, decoded, wanted, found)`` per pass: each
    pair's frame count, then each frame's decoded and wanted label packed
    row-wise; ``found[b]`` is False for a pair whose lattice holds no path.
    A ``positional`` pass is one group run at |target| frames
    (``_positional_packed``) that wants the target itself; otherwise a
    pass is one run of ``_viterbi_runs``, whose greedy argmax at T frames
    wants the labels of one Viterbi pass over the target.
    """
    size = model.config.batch_size
    groups = [lanes[whole[start:start + size]]
              for whole in _length_groups(table.frames[lanes], table.states[lanes])
              for start in range(0, len(whole), size)]
    runs = [[group] for group in groups] if positional else _viterbi_runs(groups, table, model.tgt_vocab_size)
    for run in runs:
        slots = np.concatenate(run)
        targets = [table.pairs[i][1] for i in slots]
        if positional:
            frames = table.states[slots] // 2  # states = 2 |target| + 1
            decoded = _positional_packed(model, [table.pairs[i][0] for i in slots], frames)
            wanted = np.fromiter(itertools.chain.from_iterable(targets), dtype=np.int64,
                                 count=len(decoded))
            found = np.ones(len(slots), dtype=bool)
        else:
            frames = table.frames[slots]
            logp = np.empty((int(frames.sum()), model.tgt_vocab_size))
            start = 0
            for forward_group in run:  # filled as it runs, so no row is held twice
                part = _forward_packed(model, [table.pairs[i][0] for i in forward_group],
                                       table.frames[forward_group])["logp"]
                logp[start:start + len(part)] = part
                start += len(part)
            wanted, found = _viterbi_packed(logp, frames, targets)
            decoded = logp.argmax(axis=1)
        yield slots, frames, decoded, wanted, found


def batch_step(model: NatModel, slots: np.ndarray, table: PairTable,
               learning_rate: float, clip_norm: float) -> tuple[float | None, int]:
    """One SGD update on the mean loss over the feasible pairs of the batch
    drawn as ``slots`` of ``table``; ``sgd`` makes every training update.

    Returns (mean loss, number of skipped infeasible pairs). When every
    pair is infeasible no update happens and the loss is None (``sgd``
    fails a run in which that holds for every batch). The feasible pairs
    run in length-sorted groups (see ``_length_groups``), each through one
    forward, one CTC pass and one backprop.
    """
    feasible = np.flatnonzero(table.feasible[slots])
    losses = np.full(len(slots), np.inf)
    total = np.zeros_like(model.flat)
    for group in _length_groups(table.frames[slots[feasible]], table.states[slots[feasible]]):
        group = feasible[group]
        picked = slots[group].tolist()
        frames = table.frames[picked]
        cache = _forward_packed(model, [table.pairs[j][0] for j in picked], frames)
        group_losses, dlogp = _ctc_packed(cache["logp"], frames, [table.pairs[j][1] for j in picked])
        losses[group] = group_losses
        grads = _backprop_packed(model, cache, dlogp)
        total += np.concatenate([grads[name].ravel() for name in PARAM_NAMES])
    kept = losses != np.inf
    counted = int(kept.sum())
    skipped = len(slots) - counted
    if counted == 0:
        return None, skipped
    total /= counted
    # summed per parameter in PARAM_NAMES order, so that the clip scale keeps its bits
    norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in _views(total, model.params).values()))
    scale = clip_norm / norm if norm > clip_norm else 1.0
    np.subtract(model.flat, learning_rate * scale * total, out=model.flat)
    if not np.isfinite(model.flat).all():
        name = next(name for name, p in model.params.items() if not np.isfinite(p).all())
        raise TrainingError(f"parameter {name} became non-finite during an update")
    return float(losses[kept].sum()) / counted, skipped


def sgd(model: NatModel, table: PairTable, batches, config: ModelConfig):
    """The SGD loop of the evaluator and the student: one ``batch_step`` on
    each array of ``table`` slots that ``batches`` yields, yielding that
    step's (slots, loss, skipped) as it goes; loss is None where every
    pair of the batch was infeasible and no update happened. Raises
    TrainingError when ``batches`` runs out if no step made an update."""
    updated = False
    for slots in batches:
        loss, skipped = batch_step(model, slots, table, config.learning_rate, config.clip_norm)
        updated |= loss is not None
        yield slots, loss, skipped
    if not updated:
        raise TrainingError("no update happened: every pair drawn was infeasible")


def train(pairs: list[tuple[Sentence, Sentence]], config: ModelConfig,
          src_vocab: Vocabulary, tgt_vocab: Vocabulary,
          snapshot_at: int | None = None,
          progress=None) -> TrainResult:
    """Mini-batch SGD on the mean CTC loss: one ``sgd`` pass per epoch over
    the table of ``pairs``, walked in an order the seeded portable shuffle
    permutes in place each epoch, so a seed fixes the whole trajectory.
    Pairs whose target cannot fit the frame count are skipped and counted.
    Every epoch visits every pair, so a run with no feasible pair stops in
    its first epoch with TrainingError. ``snapshot_at`` captures a copy of
    the parameters after that many optimizer updates (for warm-starting
    students); ``progress(epoch, loss)`` follows each epoch.
    """
    if not pairs:
        raise TrainingError("empty training set")
    model = NatModel.initialize(config, src_vocab, tgt_vocab)
    table = PairTable.of(pairs, config.upsample)
    rng = Rng(config.seed ^ 0x5E1ECD)
    order = list(range(len(pairs)))
    epoch_losses: list[float] = []
    updates = skipped_total = 0
    snapshot = None
    for epoch in range(config.epochs):
        rng.shuffle(order)
        batches = (np.array(order[start:start + config.batch_size])
                   for start in range(0, len(order), config.batch_size))
        loss_sum, counted = 0.0, 0
        for slots, loss, skipped in sgd(model, table, batches, config):
            skipped_total += skipped
            if loss is None:
                continue
            loss_sum += loss * (len(slots) - skipped)
            counted += len(slots) - skipped
            updates += 1
            if updates == snapshot_at:
                snapshot = model.copy()
        epoch_losses.append(loss_sum / counted)  # sgd raised if no step updated
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


def serialize_model(model: NatModel) -> list[str]:
    """The checkpoint's lines, without their ends."""
    lines = [_CKPT_MAGIC]
    cfg = asdict(model.config)
    lines.append("config\t" + json.dumps(cfg, sort_keys=True, allow_nan=False))
    lines.append(f"src_vocab\t{model.src_vocab_hash}\t{model.src_vocab_size}")
    lines.append(f"tgt_vocab\t{model.tgt_vocab_hash}\t{model.tgt_vocab_size}")
    for name, arr in model.params.items():
        shape = ",".join(str(d) for d in arr.shape)
        values = " ".join(v.hex() for v in arr.ravel().tolist())
        lines.append(f"param\t{name}\t{shape}\t{values}")
    lines.append("end")
    return lines


def model_digest(model: NatModel) -> str:
    """sha256 of the bytes ``save_checkpoint`` writes."""
    text = "".join(line + "\n" for line in serialize_model(model))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_checkpoint(model: NatModel, path: str) -> None:
    write_lines(path, serialize_model(model))


def load_checkpoint(path: str, src_vocab: Vocabulary | None = None,
                    tgt_vocab: Vocabulary | None = None) -> NatModel:
    """Load a checkpoint; vocabulary hashes and sizes must match when
    vocabularies are supplied, and every parameter must be finite and have
    the shape the config and the recorded vocabulary sizes imply."""
    lines = read_lines(path, CheckpointError)
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
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
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
        if not np.all(np.isfinite(params[name])):
            raise CheckpointError(f"{path}: parameter {name} holds a non-finite value")
    return NatModel(config, params,
                    hashes["src_vocab"][1], hashes["tgt_vocab"][1],
                    hashes["src_vocab"][0], hashes["tgt_vocab"][0])
