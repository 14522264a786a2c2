"""Hard-to-easy target selection and the student training loop.

At update k a threshold T_k (linear between two endpoints, or fixed)
splits the corpus: examples whose evaluator score is at or above T_k
train on their raw target, the rest on their distilled target. As the
threshold rises the raw share shrinks, so the student sees the hard,
authentic targets early and drifts toward the easy distilled ones.

Thresholds live in [0, 1.01]; 1.01 is the conventional sentinel that
deselects everything, since scores never exceed 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, write_lines
from .nat import ModelConfig, NatModel, PairTable, TrainingError, sgd
from .rng import Rng
from .scoring import ScoreTable, validate_table_covers

MAX_THRESHOLD = 1.01


class ScheduleError(ValueError):
    pass


class SelectionError(ValueError):
    pass


def check_threshold(value: float, name: str) -> float:
    """``value`` if it lies in [0, MAX_THRESHOLD], with -0 read as 0; NaN
    does not lie there."""
    if not 0.0 <= value <= MAX_THRESHOLD:
        raise ScheduleError(f"{name} {value} outside [0, {MAX_THRESHOLD}]")
    return value + 0.0


@dataclass(frozen=True)
class ThresholdSchedule:
    """T_k moves linearly from ``start`` to ``end`` over ``total_updates``
    updates; a fixed threshold has equal endpoints."""

    start: float
    end: float
    total_updates: int

    def __post_init__(self):
        object.__setattr__(self, "start", check_threshold(self.start, "start threshold"))
        object.__setattr__(self, "end", check_threshold(self.end, "end threshold"))
        if self.total_updates < 1:
            raise ScheduleError("total_updates must be >= 1")


def threshold_at(schedule: ThresholdSchedule, k: int) -> float:
    """T_k by linear interpolation between the endpoints."""
    if not 0 <= k <= schedule.total_updates:
        raise ScheduleError(f"update index {k} outside [0, {schedule.total_updates}]")
    return schedule.start + (k / schedule.total_updates) * (schedule.end - schedule.start)


def _scores(table: ScoreTable) -> np.ndarray:
    return np.array([r.score for r in table.records], dtype=np.float64)


def keeps_raw(table: ScoreTable, threshold: float) -> np.ndarray:
    """The selection rule, per record: True where the example keeps its
    raw target at this threshold, i.e. score >= threshold (a tie keeps
    raw); False where its distilled target replaces it."""
    return _scores(table) >= threshold


def raw_ratio(table: ScoreTable, threshold: float) -> float:
    """Fraction of examples whose raw target survives at this threshold."""
    if len(table) == 0:
        raise SelectionError("raw_ratio of an empty score table")
    return int(keeps_raw(table, threshold).sum()) / len(table)


def exposure_period(score: float, schedule: ThresholdSchedule) -> float:
    """Fraction of updates during which this score stays at or above T_k.

    For a rising linear schedule the threshold passes the score at
    k/K = (score - start)/(end - start); clamped to [0, 1]. Fixed (or
    falling) schedules expose either always or never.
    """
    if schedule.end <= schedule.start:
        return 1.0 if score >= schedule.start else 0.0
    frac = (score - schedule.start) / (schedule.end - schedule.start)
    return min(1.0, max(0.0, frac))


@dataclass(frozen=True)
class UpdateLogRow:
    update: int
    threshold: float
    raw_fraction: float
    loss: float


@dataclass(frozen=True)
class StudentResult:
    model: NatModel
    log: tuple[UpdateLogRow, ...]
    skipped: int


def train_student(corpus: Corpus, table: ScoreTable, schedule: ThresholdSchedule,
                  config: ModelConfig, init_model: NatModel | None = None,
                  progress=None) -> StudentResult:
    """Run the per-update selection loop for K = ``schedule.total_updates``
    steps, calling ``progress`` with the log row of every max(1, K // 10)-th
    update and of the last.

    The batch for update k walks round-robin over one seeded shuffle of
    the corpus, and ``nat.sgd`` trains it on a table holding each example's
    raw and distilled pair: raw exactly when the score is >= T_k, which is
    equivalent to materializing the selected dataset every update without
    copying it. Infeasible pairs are skipped and counted; a run with no
    update raises TrainingError.
    """
    validate_table_covers(table, corpus)
    if len(corpus) == 0:
        raise TrainingError("empty corpus")
    if init_model is not None:
        expect = (corpus.src_vocab.content_hash(), corpus.tgt_vocab.content_hash())
        got = (init_model.src_vocab_hash, init_model.tgt_vocab_hash)
        if expect != got:
            raise TrainingError("init checkpoint vocabularies do not match the corpus")
        init_cfg = init_model.config
        arch = ("embed_dim", "hidden_dim", "upsample", "window")
        if any(getattr(init_cfg, f) != getattr(config, f) for f in arch):
            raise TrainingError(
                "init checkpoint architecture differs from the student config "
                f"({ {f: getattr(init_cfg, f) for f in arch} } vs { {f: getattr(config, f) for f in arch} })"
            )
        # The student's settings, not the init checkpoint's, go with its parameters.
        model = replace(init_model.copy(), config=config)
    else:
        model = NatModel.initialize(config, corpus.src_vocab, corpus.tgt_vocab)
    scores = _scores(table)  # compared with T_k batch by batch, as ``keeps_raw`` would
    n, total = len(corpus), schedule.total_updates
    order = list(range(n))
    Rng(config.seed ^ 0x57D).shuffle(order)
    order = np.array(order)
    thresholds = [threshold_at(schedule, k) for k in range(total)]
    drawn = (order[(k * config.batch_size + np.arange(config.batch_size)) % n] for k in range(total))
    batches = (np.where(scores[examples] >= t, examples, examples + n)
               for examples, t in zip(drawn, thresholds))
    pair_table = PairTable.of(corpus.pairs("raw") + corpus.pairs("distilled"), config.upsample)

    log: list[UpdateLogRow] = []
    skipped = 0
    every = max(1, total // 10)
    for k, (slots, loss, step_skipped) in enumerate(sgd(model, pair_table, batches, config)):
        skipped += step_skipped
        row = UpdateLogRow(update=k, threshold=thresholds[k],
                           raw_fraction=int((slots < n).sum()) / config.batch_size,
                           loss=float("nan") if loss is None else loss)
        log.append(row)
        if progress is not None and (k % every == 0 or k == total - 1):
            progress(row)
    return StudentResult(model=model, log=tuple(log), skipped=skipped)


def write_update_log(log, path: str) -> None:
    """TSV: update, threshold, batch raw fraction, loss."""
    write_lines(path, (f"{row.update}\t{row.threshold:.6f}\t{row.raw_fraction:.6f}\t{row.loss:.6f}"
                       for row in log))


def write_decisions_tsv(table: ScoreTable, threshold: float, path: str) -> None:
    """TSV: index, choice (RAW or KD, by ``keeps_raw``), score, threshold."""
    write_lines(path, (f"{r.index}\t{'RAW' if raw else 'KD'}\t{r.score:.6f}\t{threshold:.6f}"
                       for r, raw in zip(table.records, keeps_raw(table, threshold).tolist())))
