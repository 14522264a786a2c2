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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence
from .nat import CtcInfeasibleError, NatModel, decode_positional, forward, model_digest, viterbi_align

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

    def score_of(self, index: int) -> float:
        rec = self.records[index]
        if rec.index != index:
            raise ScoringError(f"score table is not index-aligned at {index}")
        return rec.score

    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.records], dtype=np.float64)


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


def score_ctc(model: NatModel, source: Sentence, reference: Sentence,
              index: int = 0, normalize_by_reference: bool = False) -> ScoreRecord:
    """Frame-level agreement between the aligned reference and the greedy
    frame labeling. Infeasible references score 0 and carry a flag."""
    em = forward(model, source)
    frames = em.frames
    greedy = np.argmax(em.log_probs, axis=1)
    try:
        aligned = viterbi_align(em, reference)
    except CtcInfeasibleError:
        return ScoreRecord(index=index, score=0.0, distance=frames, ref_len=len(reference),
                           frame_len=frames, variant="ctc", infeasible=True)
    distance = int(sum(1 for t in range(frames) if aligned.frames[t] != greedy[t]))
    denom = len(reference) if normalize_by_reference else frames
    score = min(1.0, max(0.0, 1.0 - distance / denom))
    return ScoreRecord(index=index, score=score, distance=distance, ref_len=len(reference),
                       frame_len=frames, variant="ctc")


def _score_one_plain(model: NatModel, source: Sentence, reference: Sentence, index: int) -> ScoreRecord:
    decoded = decode_positional(model, source, len(reference))
    distance = hamming_distance(reference, decoded)
    return ScoreRecord(index=index, score=score_plain(reference, decoded), distance=distance,
                       ref_len=len(reference), frame_len=0, variant="plain")


def score_corpus(model: NatModel, corpus: Corpus, variant: str = "ctc",
                 normalize_by_reference: bool = False) -> ScoreTable:
    """Score every raw target against the evaluator, one pair at a time
    in corpus order; each score depends only on its own pair."""
    if variant not in VARIANTS:
        raise ScoringError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if model.src_vocab_hash != corpus.src_vocab.content_hash() or \
            model.tgt_vocab_hash != corpus.tgt_vocab.content_hash():
        raise ScoringError("evaluator checkpoint was trained on different vocabularies than this corpus")

    def one(ex) -> ScoreRecord:
        if variant == "plain":
            return _score_one_plain(model, ex.source, ex.raw_target, ex.index)
        return score_ctc(model, ex.source, ex.raw_target, ex.index,
                         normalize_by_reference=normalize_by_reference)

    records = tuple(one(ex) for ex in corpus.examples)
    return ScoreTable(records=records, variant=variant, checkpoint_id=model_digest(model))


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
