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

from dataclasses import dataclass
from enum import Enum

from .corpus import Corpus, Sentence
from .nat import ModelConfig, NatModel, TrainingError, batch_step, min_frames
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


class Choice(str, Enum):
    RAW = "RAW"
    KD = "KD"


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

    @classmethod
    def fixed(cls, threshold: float, total_updates: int = 1) -> "ThresholdSchedule":
        return cls(start=threshold, end=threshold, total_updates=total_updates)


def threshold_at(schedule: ThresholdSchedule, k: int) -> float:
    """T_k by linear interpolation between the endpoints."""
    if not 0 <= k <= schedule.total_updates:
        raise ScheduleError(f"update index {k} outside [0, {schedule.total_updates}]")
    return schedule.start + (k / schedule.total_updates) * (schedule.end - schedule.start)


@dataclass(frozen=True)
class SelectionDecision:
    index: int
    choice: Choice
    score: float
    threshold: float


def select_for_update(table: ScoreTable, corpus: Corpus, threshold: float) -> list[SelectionDecision]:
    """Materialize the per-example choices at one threshold.

    RAW exactly when score >= threshold (ties select raw); the two
    branches partition the corpus, output in corpus order.
    """
    validate_table_covers(table, corpus)
    decisions = []
    for ex in corpus.examples:
        score = table.records[ex.index].score
        choice = Choice.RAW if score >= threshold else Choice.KD
        decisions.append(SelectionDecision(index=ex.index, choice=choice, score=score, threshold=threshold))
    return decisions


def selected_targets(corpus: Corpus, decisions: list[SelectionDecision]) -> list[Sentence]:
    out = []
    for ex, d in zip(corpus.examples, decisions):
        out.append(ex.raw_target if d.choice is Choice.RAW else ex.distilled_target)
    return out


def raw_ratio(table: ScoreTable, threshold: float) -> float:
    """Fraction of examples whose raw target survives at this threshold."""
    if len(table) == 0:
        raise SelectionError("raw_ratio of an empty score table")
    return sum(1 for r in table.records if r.score >= threshold) / len(table)


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
    the corpus; each example's target resolves lazily against T_k, which
    is equivalent to materializing the selected dataset every update
    without copying it. Infeasible pairs are skipped and counted.
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
        model = init_model.copy()
    else:
        model = NatModel.initialize(config, corpus.src_vocab, corpus.tgt_vocab)
    if all(min_frames(ex.raw_target) > config.upsample * len(ex.source)
           and min_frames(ex.distilled_target) > config.upsample * len(ex.source)
           for ex in corpus.examples):
        raise TrainingError("every pair is infeasible for the configured upsample factor")

    order = list(range(len(corpus)))
    Rng(config.seed ^ 0x57D).shuffle(order)
    n = len(order)
    log: list[UpdateLogRow] = []
    skipped_total = 0
    updates = schedule.total_updates
    every = max(1, updates // 10)
    for k in range(updates):
        t_k = threshold_at(schedule, k)
        batch = []
        raw_count = 0
        for i in range(config.batch_size):
            ex = corpus.examples[order[(k * config.batch_size + i) % n]]
            take_raw = table.records[ex.index].score >= t_k
            raw_count += int(take_raw)
            batch.append((ex.source, ex.raw_target if take_raw else ex.distilled_target))
        loss, skipped = batch_step(model, batch, config.learning_rate, config.clip_norm)
        skipped_total += skipped
        row = UpdateLogRow(update=k, threshold=t_k,
                           raw_fraction=raw_count / config.batch_size,
                           loss=float("nan") if loss is None else loss)
        log.append(row)
        if progress is not None and (k % every == 0 or k == updates - 1):
            progress(row)
    return StudentResult(model=model, log=tuple(log), skipped=skipped_total)


def write_update_log(log, path: str) -> None:
    """TSV: update, threshold, batch raw fraction, loss."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in log:
            fh.write(f"{row.update}\t{row.threshold:.6f}\t{row.raw_fraction:.6f}\t{row.loss:.6f}\n")


def write_decisions_tsv(decisions, path: str) -> None:
    """TSV: index, choice, score, threshold."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in decisions:
            fh.write(f"{d.index}\t{d.choice.value}\t{d.score:.6f}\t{d.threshold:.6f}\n")
