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
  and is flagged infeasible. A frame whose greedy label is not blank
  never matches a reference that shares no token with the decode, so
  such a reference scores the fraction of frames where both the decode
  and the Viterbi path read blank.

Dividing the ctc distance by |Y| instead of T is available behind a
flag; such a score is clamped to [0, 1].

A corpus is decoded in the packed passes of ``nat.decode_pairs``, and
one ``bincount`` counts the mismatched frames of each pass, so the
Python overhead is paid per pass, not per pair. Each score still depends
only on its own pair: padding and neighbors change no bit of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Bitext, Corpus, ascii_int, read_rows, write_lines
from .nat import NatModel, PairTable, decode_pairs, model_digest

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
    position. Every pair is decoded by ``nat.decode_pairs``; a pair's
    distance counts the frames where its decode differs from the labels it
    wants (all T where a ctc lattice holds no path: an infeasible pair),
    one ``bincount`` per pass. Each record depends only on its own pair.
    """
    plain = variant == "plain"
    table = PairTable.of(pairs, model.config.upsample)
    ref_lens = table.states // 2  # states = 2 |reference| + 1
    records: list[ScoreRecord | None] = [None] * len(pairs)
    for group, frames, decoded, wanted, found in decode_pairs(model, table, np.arange(len(pairs)), plain):
        lane = np.repeat(np.arange(len(group)), frames)
        distances = np.bincount(lane, weights=decoded != wanted, minlength=len(group)).astype(int)
        distances = np.where(found, distances, frames)
        denoms = ref_lens[group] if plain or normalize_by_reference else frames
        for i, t_frames, denom, distance, ok in zip(group.tolist(), frames.tolist(), denoms.tolist(),
                                                    distances.tolist(), found.tolist()):
            records[i] = ScoreRecord(index=i, score=min(1.0, max(0.0, 1.0 - distance / denom)) if ok else 0.0,
                                     distance=distance, ref_len=len(pairs[i][1]),
                                     frame_len=0 if plain else t_frames, infeasible=not ok)
    return records


def score_corpus(model: NatModel, corpus: Corpus, variant: str = "ctc",
                 normalize_by_reference: bool = False) -> ScoreTable:
    """Score every raw target against the evaluator, in packed passes
    (see ``_score_pairs``); each score still depends only on its own
    pair, and the records come back in corpus order."""
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
    # ``float`` would also take an underscore, surrounding whitespace and
    # other scripts' digits.
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"score {text!r} is not an ASCII number")
    score = float(text)
    if not 0.0 <= score <= 1.0:  # also rejects nan
        raise ValueError(f"score {text!r} is not a number in [0, 1]")
    return score + 0.0  # -0 reads as 0


def _ref_len(text: str) -> int:
    value = ascii_int(text)
    if value < 1:
        raise ValueError(f"ref_len {text!r} is below 1")
    return value


def read_score_tsv(path: str) -> ScoreTable:
    """Parse a ``write_score_tsv`` file; every score must be an ASCII
    number in [0, 1] (-0 reads as 0), every integer ASCII digits, the
    reference length at least 1. The file does not say which variant made
    it, nor which records were infeasible."""
    rows = read_rows(path, (ascii_int, _score, ascii_int, _ref_len, ascii_int), ScoringError)
    return ScoreTable(records=tuple(ScoreRecord(*row) for row in rows))


def validate_table_covers(table: ScoreTable, corpus: Corpus) -> None:
    if len(table) != len(corpus):
        raise ScoringError(f"score table has {len(table)} rows for a corpus of {len(corpus)}")
    for i, rec in enumerate(table.records):
        if rec.index != i:
            raise ScoringError(f"score table row {i} carries index {rec.index}; must be sorted and complete")
