"""Corpus complexity and quality metrics.

Two complexity measures drive the selected-vs-replaced comparisons:

* translation uncertainty: mean conditional entropy (in nats) of the
  target types aligned to each source type — high when one source word
  translates many ways;
* alignment shift: mean relative positional displacement between aligned
  words — high when word order diverges.

Plus the adjacent-token repetition ratio (per-mille) and a small
corpus-level BLEU-4 for end-to-end quality checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .align import NULL_LINK, AlignmentLinks, AlignmentModel, align_pair
from .corpus import Corpus, Sentence
from .curriculum import ThresholdSchedule, exposure_period
from .scoring import ScoreTable, validate_table_covers

Bitext = list[tuple[Sentence, Sentence]]

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


def align_bitext(bitext: Bitext, model: AlignmentModel) -> list[AlignmentLinks]:
    """Argmax links of every pair, in bitext order."""
    return [align_pair(model, src, tgt) for src, tgt in bitext]


def translation_uncertainty(bitext: Bitext, links: list[AlignmentLinks]) -> float:
    """Mean entropy of aligned target types per source type, in nats.

    Source types that never receive a non-NULL link are left out of the
    mean rather than counted as zero-entropy evidence.
    """
    by_source: dict[int, Counter] = {}
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


def alignment_shift_pair(src: Sentence, tgt: Sentence, links: AlignmentLinks) -> float:
    """Mean relative distance |i/|X| - j/|Y|| over linked words, 1-based;
    NULL links contribute 0."""
    if len(links) != len(tgt):
        raise MetricsError(f"links cover {len(links)} positions for a target of {len(tgt)}")
    n, m = len(src), len(tgt)
    acc = 0.0
    for j, i in enumerate(links, start=1):
        if i != NULL_LINK:
            acc += abs(i / n - j / m)
    return acc / m


def alignment_shift(bitext: Bitext, links: list[AlignmentLinks]) -> float:
    """Corpus mean of the per-pair alignment shift."""
    if not bitext:
        raise MetricsError("empty bitext")
    pairs = zip(bitext, links, strict=True)
    return sum(alignment_shift_pair(s, t, l) for (s, t), l in pairs) / len(bitext)


def repetition_ratio(sentences: list[Sentence]) -> float:
    """Tokens equal to their immediate predecessor, per-mille of all tokens."""
    if not sentences:
        raise MetricsError("empty sentence list")
    repeats = 0
    tokens = 0
    for sent in sentences:
        tokens += len(sent)
        repeats += sum(1 for a, b in zip(sent, sent[1:]) if a == b)
    if tokens == 0:
        raise MetricsError("sentence list contains no tokens")
    return 1000.0 * repeats / tokens


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

def view_raw(corpus: Corpus) -> Bitext:
    return [(ex.source, ex.raw_target) for ex in corpus.examples]


def view_distilled(corpus: Corpus) -> Bitext:
    return [(ex.source, ex.distilled_target) for ex in corpus.examples]


def threshold_views(corpus: Corpus, table: ScoreTable, threshold: float,
                    raw_links: list[AlignmentLinks], distilled_links: list[AlignmentLinks]
                    ) -> list[tuple[str, Bitext, list[AlignmentLinks]]]:
    """(label, view, links) of the selected, replaced and mix views at one
    threshold, each pair's links picked by index from those of the raw and
    distilled views, as aligned by ``align_bitext``.

    A pair is selected when its score is >= threshold. Selected holds the
    raw pairs selection keeps, replaced the raw pairs it rejects (their raw
    side, before replacement), and mix what the student actually sees: the
    selected raw pairs and the distilled replacements, in corpus order.
    """
    validate_table_covers(table, corpus)
    keep = [record.score >= threshold for record in table.records]
    raw = list(zip(view_raw(corpus), raw_links, strict=True))
    distilled = list(zip(view_distilled(corpus), distilled_links, strict=True))
    picked = (("selected", [r for r, k in zip(raw, keep) if k]),
              ("replaced", [r for r, k in zip(raw, keep) if not k]),
              ("mix", [r if k else d for r, d, k in zip(raw, distilled, keep)]))
    return [(label, [pair for pair, _ in items], [links for _, links in items])
            for label, items in picked]


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


def metric_report(bitext: Bitext, links: list[AlignmentLinks], label: str) -> MetricReport:
    """All metrics for one corpus view and its links (one entry per pair);
    errors on an empty view (there is nothing meaningful to report)."""
    if not bitext:
        raise MetricsError(f"view {label!r} is empty")
    return MetricReport(
        label=label,
        uncertainty=translation_uncertainty(bitext, links),
        shift=alignment_shift(bitext, links),
        repetition_per_mille=repetition_ratio([tgt for _, tgt in bitext]),
        sentences=len(bitext),
    )
