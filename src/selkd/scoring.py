"""Evaluator scores for raw translations.

Each raw target gets a score in [0, 1] measuring how closely the trained
evaluator's decoded output matches it. Two variants:

* plain: the decoder runs at exactly the reference length and the score
  is 1 - hamming/|Y| (positions compared one-for-one);
* ctc: the reference is Viterbi-aligned into the frame lattice and
  compared against the per-frame greedy labeling over all frames, giving
  a score that tolerates position shifts.

The score of the ctc variant normalizes the frame-level distance by the
frame count, which keeps it inside [0, 1]; dividing by the reference
length instead is available behind a flag and is clamped.

A corpus is scored in the length-sorted groups that training uses (see
``selkd.nat``), each through one packed forward, so the Python overhead
is paid per group, not per pair. Each score still depends only on its
own pair: padding and neighbors change no bit of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence
from .nat import (
    NatModel,
    PairTable,
    _forward_packed,
    _length_groups,
    _positional_packed,
    _viterbi_packed,
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
    variant: str
    infeasible: bool = False


@dataclass(frozen=True)
class ScoreTable:
    records: tuple[ScoreRecord, ...]
    variant: str
    checkpoint_id: str = ""

    def __len__(self) -> int:
        return len(self.records)


def hamming_distance(a: Sentence, b: Sentence) -> int:
    """Mismatch count; each surplus position of the longer side counts."""
    m = min(len(a), len(b))
    d = sum(1 for i in range(m) if a[i] != b[i])
    return d + abs(len(a) - len(b))


def score_plain(reference: Sentence, decoded: Sentence) -> float:
    """1 - hamming/|reference|, clamped below at 0."""
    if len(reference) < 1:
        raise ScoringError("reference must be nonempty")
    return max(0.0, 1.0 - hamming_distance(reference, decoded) / len(reference))


def _score_pairs(model: NatModel, pairs: list[tuple[Sentence, Sentence]], indices: list[int],
                 variant: str, normalize_by_reference: bool) -> list[ScoreRecord]:
    """Records for (source, reference) ``pairs``, tagged with ``indices``.

    The pairs run in the length-sorted groups of their ``nat.PairTable``,
    as a training batch does, cut to at most one training batch of pairs
    each, so that a group's forward holds no more rows than a training
    step's. Each record depends only on its own pair.
    """
    table = PairTable.of(pairs, model.config.upsample)
    records: list[ScoreRecord | None] = [None] * len(pairs)
    if variant == "plain":
        todo = np.arange(len(pairs))
    else:
        todo = np.flatnonzero(table.feasible)
        for i in np.flatnonzero(~table.feasible).tolist():
            records[i] = _infeasible_record(indices[i], pairs[i][1], int(table.frames[i]))
    size = model.config.batch_size
    groups = [todo[whole[start:start + size]].tolist()
              for whole in _length_groups(table.frames[todo], table.states[todo])
              for start in range(0, len(whole), size)]
    for group in groups:
        sources = [pairs[i][0] for i in group]
        references = [pairs[i][1] for i in group]
        tags = [indices[i] for i in group]
        if variant == "plain":
            scored = _plain_group(model, sources, references, tags)
        else:
            scored = _ctc_group(model, sources, references, tags, normalize_by_reference)
        for i, record in zip(group, scored):
            records[i] = record
    return records


def _plain_group(model: NatModel, sources: list[Sentence], references: list[Sentence],
                 indices: list[int]) -> list[ScoreRecord]:
    """One packed positional decode at exactly |reference| frames per pair."""
    lengths = np.array([len(reference) for reference in references])
    decoded = np.split(_positional_packed(model, sources, lengths), np.cumsum(lengths)[:-1])
    records = []
    for index, reference, labels in zip(indices, references, decoded):
        labels = tuple(labels.tolist())
        records.append(ScoreRecord(index=index, score=score_plain(reference, labels),
                                   distance=hamming_distance(reference, labels),
                                   ref_len=len(reference), frame_len=0, variant="plain"))
    return records


def _ctc_group(model: NatModel, sources: list[Sentence], references: list[Sentence],
               indices: list[int], normalize_by_reference: bool) -> list[ScoreRecord]:
    """One packed forward, one padded Viterbi pass and one greedy argmax;
    the distance of a pair counts its frames where the two labels differ."""
    frames = model.config.upsample * np.array([len(source) for source in sources])
    logp = _forward_packed(model, sources, frames)["logp"]
    aligned, found = _viterbi_packed(logp, frames, references)
    lane = np.repeat(np.arange(len(sources)), frames)
    distances = np.bincount(lane, weights=aligned != logp.argmax(axis=1), minlength=len(sources))
    records = []
    for index, reference, t_frames, distance, ok in zip(indices, references, frames.tolist(),
                                                        distances.astype(int).tolist(), found):
        if not ok:
            records.append(_infeasible_record(index, reference, t_frames))
            continue
        denom = len(reference) if normalize_by_reference else t_frames
        records.append(ScoreRecord(index=index, score=min(1.0, max(0.0, 1.0 - distance / denom)),
                                   distance=distance, ref_len=len(reference), frame_len=t_frames,
                                   variant="ctc"))
    return records


def _infeasible_record(index: int, reference: Sentence, frames: int) -> ScoreRecord:
    return ScoreRecord(index=index, score=0.0, distance=frames, ref_len=len(reference),
                       frame_len=frames, variant="ctc", infeasible=True)


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
    records = _score_pairs(model, [(ex.source, ex.raw_target) for ex in corpus.examples],
                           [ex.index for ex in corpus.examples], variant, normalize_by_reference)
    return ScoreTable(records=tuple(records), variant=variant, checkpoint_id=model_digest(model))


def write_score_tsv(table: ScoreTable, path: str) -> None:
    """Five-column TSV: index, score (6 decimals), distance, ref length,
    frame length (0 for plain records)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in table.records:
            fh.write(f"{r.index}\t{r.score:.6f}\t{r.distance}\t{r.ref_len}\t{r.frame_len}\n")


def read_score_tsv(path: str, variant: str = "ctc") -> ScoreTable:
    """Parse a ``write_score_tsv`` file; every score must be a number in
    [0, 1]."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 5:
                raise ScoringError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
            idx, score, dist, ref_len, frame_len = parts
            try:
                record = ScoreRecord(index=int(idx), score=float(score), distance=int(dist),
                                     ref_len=int(ref_len), frame_len=int(frame_len),
                                     variant=variant)
            except ValueError as exc:
                raise ScoringError(f"{path}:{lineno}: {exc}") from exc
            if not 0.0 <= record.score <= 1.0:  # also rejects nan
                raise ScoringError(f"{path}:{lineno}: score {score!r} is not a number in [0, 1]")
            records.append(record)
    return ScoreTable(records=tuple(records), variant=variant)


def validate_table_covers(table: ScoreTable, corpus: Corpus) -> None:
    if len(table) != len(corpus):
        raise ScoringError(f"score table has {len(table)} rows for a corpus of {len(corpus)}")
    for i, rec in enumerate(table.records):
        if rec.index != i:
            raise ScoringError(f"score table row {i} carries index {rec.index}; must be sorted and complete")
