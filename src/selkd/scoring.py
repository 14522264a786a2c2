"""Evaluator scores for raw translations.

Each raw target gets a score in [0, 1] measuring how closely the trained
evaluator's decoded output matches it. Both variants decode the source,
compare the decode frame by frame with the labels the reference wants,
and count the mismatched frames as the distance; they differ in what is
decoded, what is wanted and what the distance is divided by:

* plain: the decoder runs at exactly |Y| frames, its best non-blank
  token per frame is compared with the reference token at the same
  position, and the score is 1 - distance/|Y|;
* ctc: the decoder runs at its T = upsample * |X| frames, its greedy
  label per frame is compared with the reference's Viterbi path through
  the frame lattice, which tolerates position shifts, and the score is
  1 - distance/T. A reference longer than the lattice can emit scores 0
  and is flagged infeasible.

Dividing the ctc distance by |Y| instead of T is available behind a
flag; such a score is clamped to [0, 1].

A corpus is scored in the length-sorted groups that training uses (see
``selkd.nat``), each through one packed forward, and a ctc Viterbi pass
spans several consecutive groups; one ``bincount`` counts the mismatched
frames of each pass, so the Python overhead is paid per group, not per
pair. Each score still depends only on its own pair: padding and
neighbors change no bit of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import Bitext, Corpus, Sentence, read_rows, write_lines
from .nat import (
    NatModel,
    PairTable,
    _forward_packed,
    _length_groups,
    _positional_packed,
    _viterbi_packed,
    _viterbi_runs,
    model_digest,
)

VARIANTS = ("plain", "ctc")


class ScoringError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreRecord:
    index: int
    score: float
    distance: int
    ref_len: int
    frame_len: int  # 0 for the plain variant
    infeasible: bool = False


@dataclass(frozen=True)
class ScoreTable:
    records: tuple[ScoreRecord, ...]
    checkpoint_id: str = ""

    def __len__(self) -> int:
        return len(self.records)


def _score_pairs(model: NatModel, pairs: Bitext, variant: str,
                 normalize_by_reference: bool) -> list[ScoreRecord]:
    """Records for (source, reference) ``pairs``, each tagged with its
    position.

    The pairs run in the length-sorted groups of their ``nat.PairTable``,
    as a training batch does, cut to at most one training batch of pairs
    each, so that a group's forward holds no more rows than a training
    step's. Each group makes one packed decode. The ctc variant then runs
    one Viterbi pass over each run of consecutive groups that
    ``_viterbi_runs`` forms, the forwards' log-probabilities stacked in
    order. Each decode is compared frame by frame with the labels the
    pair wants; a pair's distance counts the frames where they differ.
    Each record depends only on its own pair.
    """
    plain = variant == "plain"
    table = PairTable.of(pairs, model.config.upsample)
    ref_lens = table.states // 2  # states = 2 |reference| + 1
    feasible = np.ones(len(pairs), dtype=bool) if plain else table.feasible
    records: list[ScoreRecord | None] = [None] * len(pairs)
    for i in np.flatnonzero(~feasible).tolist():
        records[i] = _infeasible_record(i, pairs[i][1], int(table.frames[i]))
    todo = np.flatnonzero(feasible)
    size = model.config.batch_size
    groups = [todo[whole[start:start + size]]
              for whole in _length_groups(table.frames[todo], table.states[todo])
              for start in range(0, len(whole), size)]
    runs = [[group] for group in groups] if plain else _viterbi_runs(groups, table, model.tgt_vocab_size)
    for run in runs:
        group = np.concatenate(run)
        references = [pairs[i][1] for i in group]
        if plain:  # best non-blank token at |reference| frames against the reference
            frames = ref_lens[group]
            decoded = _positional_packed(model, [pairs[i][0] for i in group], frames)
            wanted = np.fromiter(itertools.chain.from_iterable(references), dtype=np.int64,
                                 count=len(decoded))
            found = np.ones(len(group), dtype=bool)
        else:  # greedy label at each of the T frames against the Viterbi path
            frames = table.frames[group]
            logp = np.empty((int(frames.sum()), model.tgt_vocab_size))
            start = 0
            for forward_group in run:  # filled as it runs, so no row is held twice
                part = _forward_packed(model, [pairs[i][0] for i in forward_group],
                                       table.frames[forward_group])["logp"]
                logp[start:start + len(part)] = part
                start += len(part)
            wanted, found = _viterbi_packed(logp, frames, references)
            decoded = logp.argmax(axis=1)
        lane = np.repeat(np.arange(len(group)), frames)
        distances = np.bincount(lane, weights=decoded != wanted, minlength=len(group)).astype(int)
        denoms = ref_lens[group] if plain or normalize_by_reference else frames
        for i, t_frames, denom, distance, ok in zip(group.tolist(), frames.tolist(), denoms.tolist(),
                                                    distances.tolist(), found.tolist()):
            if not ok:
                records[i] = _infeasible_record(i, pairs[i][1], t_frames)
                continue
            records[i] = ScoreRecord(index=i, score=min(1.0, max(0.0, 1.0 - distance / denom)),
                                     distance=distance, ref_len=len(pairs[i][1]),
                                     frame_len=0 if plain else t_frames)
    return records


def _infeasible_record(index: int, reference: Sentence, frames: int) -> ScoreRecord:
    return ScoreRecord(index=index, score=0.0, distance=frames, ref_len=len(reference),
                       frame_len=frames, infeasible=True)


def score_corpus(model: NatModel, corpus: Corpus, variant: str = "ctc",
                 normalize_by_reference: bool = False) -> ScoreTable:
    """Score every raw target against the evaluator, in length-sorted
    groups (see ``_score_pairs``); each score still depends only on its
    own pair, and the records come back in corpus order."""
    if variant not in VARIANTS:
        raise ScoringError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if model.src_vocab_hash != corpus.src_vocab.content_hash() or \
            model.tgt_vocab_hash != corpus.tgt_vocab.content_hash():
        raise ScoringError("evaluator checkpoint was trained on different vocabularies than this corpus")
    records = _score_pairs(model, corpus.pairs("raw"), variant, normalize_by_reference)
    return ScoreTable(records=tuple(records), checkpoint_id=model_digest(model))


def write_score_tsv(table: ScoreTable, path: str) -> None:
    """Five-column TSV: index, score (6 decimals), distance, ref length,
    frame length (0 for plain records)."""
    write_lines(path, (f"{r.index}\t{r.score:.6f}\t{r.distance}\t{r.ref_len}\t{r.frame_len}"
                       for r in table.records))


def _score(text: str) -> float:
    score = float(text)
    if not 0.0 <= score <= 1.0:  # also rejects nan
        raise ValueError(f"score {text!r} is not a number in [0, 1]")
    return score


def read_score_tsv(path: str) -> ScoreTable:
    """Parse a ``write_score_tsv`` file; every score must be a number in
    [0, 1]. The file does not say which variant made it, nor which
    records were infeasible."""
    rows = read_rows(path, (int, _score, int, int, int), ScoringError)
    return ScoreTable(records=tuple(ScoreRecord(*row) for row in rows))


def validate_table_covers(table: ScoreTable, corpus: Corpus) -> None:
    if len(table) != len(corpus):
        raise ScoringError(f"score table has {len(table)} rows for a corpus of {len(corpus)}")
    for i, rec in enumerate(table.records):
        if rec.index != i:
            raise ScoringError(f"score table row {i} carries index {rec.index}; must be sorted and complete")
