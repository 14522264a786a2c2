"""Corpus complexity and quality metrics.

Two complexity measures drive the selected-vs-replaced comparisons:

* translation uncertainty: mean conditional entropy (in nats) of the
  target types aligned to each source type — high when one source word
  translates many ways;
* alignment shift: mean relative positional displacement between aligned
  words — high when word order diverges.

Plus the adjacent-token repetition ratio (per-mille) and a small
corpus-level BLEU-4 for end-to-end quality checks.

The metrics stage reports these over several overlapping views of one
corpus, so ``pair_stats`` reduces each aligned pair to a ``PairStats``
record once, and ``metric_report`` combines a view's records in view
order, with the same bits as a walk over the view's links. ``pair_stats``
makes one pass over a view: one ``align_pair`` call per (|src|, |tgt|)
shape block of ``align.shape_blocks``, whose link array it reduces to the
block's records in the same loop.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import TypeVar

import numpy as np

from .align import NULL_LINK, AlignmentLinks, AlignmentModel, align_pair, shape_blocks
from .corpus import Bitext, Corpus, Sentence
from .curriculum import ThresholdSchedule, exposure_period, keeps_raw
from .scoring import ScoreTable, validate_table_covers

T = TypeVar("T")

LENGTH_BUCKETS = ((0, 10), (10, 20), (20, 30), (30, 40), (40, 50), (50, 60), (60, None))


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class BucketRow:
    lo: int
    hi: int | None  # None = unbounded
    count: int
    mean_score: float
    mean_exposure: float


@dataclass(frozen=True)
class MetricReport:
    label: str
    uncertainty: float
    shift: float
    repetition_per_mille: float
    sentences: int


def _repeats(sent: Sentence) -> int:
    return sum(map(operator.eq, sent, sent[1:]))


@dataclass(frozen=True, slots=True)
class PairStats:
    """What the metrics need of one aligned pair. The metrics stage computes
    it once per distinct pair; a view only combines the records of its
    pairs."""

    links: AlignmentLinks  # argmax link per target position (``align_pair``)
    type_links: tuple[tuple[int, int], ...]  # (source type, target type) per non-NULL link
    shift: float  # mean |i/|X| - j/|Y|| over the links, 1-based; NULL links count 0
    repeats: int  # target tokens equal to their predecessor
    tokens: int  # target length


def pair_stats(bitext: Bitext, model: AlignmentModel) -> list[PairStats]:
    """One ``PairStats`` per pair, in bitext order, from one ``align_pair``
    call per (|src|, |tgt|) shape block."""
    out: list = [None] * len(bitext)
    for members, src, tgt in shape_blocks(bitext):
        for k, stats in zip(members, _block_stats(bitext, members, tgt, align_pair(model, src, tgt))):
            out[k] = stats
    return out


def _block_stats(bitext: Bitext, members: list[int], tgt_ids: np.ndarray,
                 links: np.ndarray) -> list[PairStats]:
    """The records of one shape block: the pairs ``members`` of ``bitext``,
    their (B, |tgt|) target ids and links.

    A pair's shift terms are summed left to right over its target
    positions, as a walk over its links would sum them, then divided by
    |Y|."""
    tgt = [bitext[k][1] for k in members]
    m = len(tgt[0])
    # link i is source position i - 1; column 0 stands in for NULL_LINK.
    # An object array gathers the corpus's own ints, which the views'
    # link Counters then compare by identity.
    src = np.array([(NULL_LINK, *bitext[k][0]) for k in members], dtype=object)
    linked = links != NULL_LINK
    terms = np.abs(links / (src.shape[1] - 1) - np.arange(1, m + 1) / m)
    terms[~linked] = 0.0
    shifts = (np.cumsum(terms, axis=1)[:, -1] / m).tolist()
    repeats = np.count_nonzero(tgt_ids[:, 1:] == tgt_ids[:, :-1], axis=1).tolist()
    types = np.take_along_axis(src, links, axis=1).tolist()
    return [PairStats(tuple(row_links), tuple(compress(zip(row_types, row_tgt), row_linked)),
                      shift, rep, m)
            for row_links, row_types, row_tgt, row_linked, shift, rep in zip(
                links.tolist(), types, tgt, linked.tolist(), shifts, repeats)]


def _uncertainty(stats: Sequence[PairStats]) -> float:
    """Translation uncertainty of one view's records: the mean entropy of
    aligned target types per source type, in nats. Source types that never
    receive a non-NULL link are left out of the mean rather than counted
    as zero-entropy evidence. Source types are visited in the order of
    their first link in the view, and each one's counts in the order of
    their first (source, target) link: the order the entropy sums are
    taken in."""
    by_source: dict[int, list[int]] = {}
    for (s, _), count in Counter(chain.from_iterable(p.type_links for p in stats)).items():
        by_source.setdefault(s, []).append(count)
    if not by_source:
        raise MetricsError("no aligned tokens at all; cannot compute uncertainty")
    total = 0.0
    for counts in by_source.values():
        total += -sum(map(_plogp, counts, repeat(sum(counts))))
    return total / len(by_source)


@lru_cache(maxsize=4096)
def _plogp(count: int, total: int) -> float:
    """One entropy term, p log p with p = count / total; a view repeats few
    (count, total) pairs, so each is computed once."""
    return (count / total) * math.log(count / total)


def _mean_shift(stats: Sequence[PairStats]) -> float:
    return sum(p.shift for p in stats) / len(stats)  # summed in view order


def _per_mille(repeats: int, tokens: int) -> float:
    if tokens == 0:
        raise MetricsError("sentence list contains no tokens")
    return 1000.0 * repeats / tokens


def repetition_ratio(sentences: list[Sentence]) -> float:
    """Tokens equal to their immediate predecessor, per-mille of all
    tokens, of sentences with no alignment (the tests score decoded
    hypotheses with it)."""
    if not sentences:
        raise MetricsError("empty sentence list")
    return _per_mille(sum(map(_repeats, sentences)), sum(map(len, sentences)))


def _ngrams(sent: Sentence, n: int) -> Counter:
    return Counter(tuple(sent[i:i + n]) for i in range(len(sent) - n + 1))


def corpus_bleu(hypotheses: list[Sentence], references: list[Sentence]) -> float:
    """Corpus-level BLEU-4 in [0, 100].

    Geometric mean of clipped n-gram precisions (n = 1..4) times the
    brevity penalty. Zero precisions for n >= 2 are smoothed add-one
    ((m+1)/(t+1)); a zero unigram precision keeps BLEU at exactly 0.
    """
    if not hypotheses:
        raise MetricsError("empty hypothesis set")
    if len(hypotheses) != len(references):
        raise MetricsError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        return 0.0
    log_precisions = []
    for n in range(1, 5):
        matches = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            total += sum(hyp_counts.values())
            matches += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        if n == 1:
            if matches == 0:
                return 0.0
            log_precisions.append(math.log(matches / total))
        elif matches == 0:
            log_precisions.append(math.log((matches + 1) / (total + 1)))
        else:
            log_precisions.append(math.log(matches / total))
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(sum(log_precisions) / 4.0)


# ---------------------------------------------------------------------------
# Corpus views and the consolidated report
# ---------------------------------------------------------------------------

def threshold_views(corpus: Corpus, table: ScoreTable, threshold: float,
                    raw: Sequence[T], distilled: Sequence[T]) -> list[tuple[str, list[T]]]:
    """(label, items) of the selected, replaced and mix views at one
    threshold, each pair's item picked by index from ``raw`` and
    ``distilled``, which hold one item per corpus pair of that view (the
    metrics stage passes ``pair_stats`` records).

    A pair is selected when its score is >= threshold (``keeps_raw``).
    Selected holds the raw pairs selection keeps, replaced the raw pairs it
    rejects (their raw side, before replacement), and mix what the student
    actually sees: the selected raw pairs and the distilled replacements,
    in corpus order.
    """
    validate_table_covers(table, corpus)
    rows = list(zip(keeps_raw(table, threshold).tolist(), raw, distilled, strict=True))
    return [("selected", [r for keep, r, _ in rows if keep]),
            ("replaced", [r for keep, r, _ in rows if not keep]),
            ("mix", [r if keep else d for keep, r, d in rows])]


def length_buckets(table: ScoreTable, schedule: ThresholdSchedule) -> tuple[BucketRow, ...]:
    rows = []
    for lo, hi in LENGTH_BUCKETS:
        recs = [r for r in table.records if r.ref_len >= lo and (hi is None or r.ref_len < hi)]
        if not recs:
            rows.append(BucketRow(lo=lo, hi=hi, count=0, mean_score=float("nan"),
                                  mean_exposure=float("nan")))
            continue
        mean_score = sum(r.score for r in recs) / len(recs)
        mean_exp = sum(exposure_period(r.score, schedule) for r in recs) / len(recs)
        rows.append(BucketRow(lo=lo, hi=hi, count=len(recs), mean_score=mean_score,
                              mean_exposure=mean_exp))
    return tuple(rows)


def bucket_table(table: ScoreTable, schedule: ThresholdSchedule) -> list[str]:
    """The lines of ``buckets.tsv``: a header, then one row per length
    bucket; a mean over an empty bucket is ``-``."""
    lines = ["bucket\tcount\tmean_score\tmean_exposure"]
    for b in length_buckets(table, schedule):
        means = ["-" if math.isnan(x) else f"{x:.6f}" for x in (b.mean_score, b.mean_exposure)]
        hi = "inf" if b.hi is None else b.hi
        lines.append("\t".join([f"[{b.lo},{hi})", str(b.count), *means]))
    return lines


def metric_report(stats: Sequence[PairStats], label: str) -> MetricReport:
    """All metrics for one corpus view from the records of its pairs, in
    view order; errors on an empty view (there is nothing meaningful to
    report)."""
    if not stats:
        raise MetricsError(f"view {label!r} is empty")
    return MetricReport(
        label=label,
        uncertainty=_uncertainty(stats),
        shift=_mean_shift(stats),
        repetition_per_mille=_per_mille(sum(p.repeats for p in stats), sum(p.tokens for p in stats)),
        sentences=len(stats),
    )
