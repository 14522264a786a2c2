"""Spans around the calls into selkd's public functions, and the per-layer
metrics derived from them.

The tracer wraps each function in ``TRACED`` under every name a selkd module
binds it to, so a call through ``selkd.curriculum.batch_step`` is recorded as
well as one through ``selkd.nat.batch_step``. A function that no longer
exists is skipped, and every metric derived from it is left out of the
report instead of failing the run.

Spans are kept in memory as ``(name, start, end, parent, run_id)`` and
written out by the caller when the benchmark ends. The parent is the span
open on the call stack when the call began; selkd runs single-threaded here
(the benchmark never passes ``--threads``), so a span's children run one
after another and its self time is its duration minus their sum.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Module -> public functions traced in it, grouped by the layer they belong to.
TRACED = {
    "cli": ("main", "run_full", "run_synth", "run_train_evaluator", "run_score",
            "run_select", "run_train_student", "run_metrics", "run_report"),
    "nat": ("train", "batch_step", "sentence_loss_and_grads", "ctc_loss_and_grad",
            "forward", "viterbi_align", "decode_positional",
            "save_checkpoint", "load_checkpoint", "model_digest"),
    "scoring": ("score_corpus", "write_score_tsv", "read_score_tsv"),
    "curriculum": ("train_student",),
    "align": ("em_train", "align_pair"),
    "metrics": ("metric_report",),
    "corpus": ("load_corpus", "write_bitext", "write_sentences"),
    "synth": ("generate",),
}

# Per-layer metrics that are counts: they repeat exactly for one seed and code.
DETERMINISTIC = (
    "nat.batch_step.calls", "nat.batch_step.feasible_ratio", "nat.ctc_loss_and_grad.calls",
    "nat.ctc.dp_cells", "nat.viterbi_align.calls", "nat.viterbi.dp_cells",
    "scoring.infeasible_ratio", "curriculum.raw_fraction_mean", "align.align_pair.calls",
    "align.unseen_fallbacks", "metrics.align_calls_per_pair",
)

STAGES = ("synth", "train-evaluator", "score", "select", "train-student", "metrics", "report")


def _frames(emissions) -> int:
    return len(getattr(emissions, "log_probs", emissions))


# Deterministic counts taken from a traced call's arguments and result.
# Each returns {counter: increment}; the signatures mirror the library's.

def _count_batch_step(result, model, batch, *_, **__):
    _, skipped = result
    return {"batch_pairs": len(batch), "batch_feasible": len(batch) - skipped}


def _count_ctc(result, emissions, target, *_, **__):
    return {"ctc_cells": _frames(emissions) * (2 * len(target) + 1)}


def _count_viterbi(result, emissions, target, *_, **__):
    return {"viterbi_cells": _frames(emissions) * (2 * len(target) + 1)}


def _count_score_corpus(result, *_, **__):
    return {"scored": len(result.records),
            "score_infeasible": sum(1 for r in result.records if r.infeasible)}


def _count_train_student(result, *_, **__):
    return {"raw_fraction_sum": sum(row.raw_fraction for row in result.log),
            "student_updates": len(result.log)}


def _count_em_train(result, bitext, iterations, *_, **__):
    return {"em_iterations": iterations}


def _count_metric_report(result, bitext, *_, **__):
    return {"report_pairs": len(bitext)}


COUNTERS = {
    "nat.batch_step": _count_batch_step,
    "nat.ctc_loss_and_grad": _count_ctc,
    "nat.viterbi_align": _count_viterbi,
    "scoring.score_corpus": _count_score_corpus,
    "curriculum.train_student": _count_train_student,
    "align.em_train": _count_em_train,
    "metrics.metric_report": _count_metric_report,
}


class Tracer:
    """Install with ``with tracer:``; spans carry the current ``run_id``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.broken_counters: set[str] = set()
        self.wrapped: set[str] = set()
        self.alignment_models: dict[int, list] = defaultdict(list)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.run_id)
            if counter is not None and name not in self.broken_counters:
                self._count(name, counter, result, args, kwargs)
            if name == "align.em_train":
                self.alignment_models[self.run_id].append(result)
            return result

        return traced

    def _count(self, name, counter, result, args, kwargs) -> None:
        try:
            increments = counter(result, *args, **kwargs)
        except (TypeError, AttributeError, ValueError) as exc:
            # The library changed the function's signature or result; drop the
            # counts derived from it rather than fail the run.
            self.broken_counters.add(name)
            print(f"perfbench: counts from {name} disabled: {exc!r}", file=sys.stderr)
            return
        bucket = self.counts[self.run_id]
        for key, value in increments.items():
            bucket[key] += value

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.startswith("selkd.") and m is not None]
        for short, names in TRACED.items():
            home = sys.modules.get(f"selkd.{short}")
            for fn_name in names:
                fn = getattr(home, fn_name, None)
                if fn is None:
                    continue
                span_name = f"{short}.{fn_name}"
                wrapper = self._wrap(span_name, fn)
                self.wrapped.add(span_name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _run_metrics(spans, counts, models, wrapped, broken) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; 0 where the layer did not run."""
    seconds: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    by_index = dict(spans)
    for index, (name, start, end, parent, _) in spans:
        child_s[parent] += end - start
    under_report = 0
    for index, (name, start, end, parent, _) in spans:
        duration = end - start
        seconds[name] += duration
        self_s[name] += duration - child_s[index]
        calls[name] += 1
        durations[name].append(duration)
        if name == "align.align_pair":
            ancestor = parent
            while ancestor != -1 and by_index[ancestor][0] != "metrics.metric_report":
                ancestor = by_index[ancestor][3]
            under_report += ancestor != -1

    out: dict[str, tuple[float, str]] = {}

    def put(name, unit, needs, value, counted=()):
        if all(f in wrapped for f in needs) and not broken.intersection(counted):
            out[name] = (value(), unit)

    bs = "nat.batch_step"
    put("nat.train.s", "s", ["nat.train"], lambda: seconds["nat.train"])
    put(f"{bs}.calls", "count", [bs], lambda: calls[bs])
    put(f"{bs}.s", "s", [bs], lambda: seconds[bs])
    put(f"{bs}.ms_p50", "ms", [bs], lambda: 1e3 * _percentile(durations[bs], 0.5) if calls[bs] else 0.0)
    put(f"{bs}.ms_p99", "ms", [bs], lambda: 1e3 * _percentile(durations[bs], 0.99) if calls[bs] else 0.0)
    put(f"{bs}.feasible_ratio", "ratio", [bs],
        lambda: _ratio(counts["batch_feasible"], counts["batch_pairs"]), [bs])
    ctc = "nat.ctc_loss_and_grad"
    put(f"{ctc}.calls", "count", [ctc], lambda: calls[ctc])
    put(f"{ctc}.s", "s", [ctc], lambda: seconds[ctc])
    put("nat.ctc.dp_cells", "count", [ctc], lambda: counts["ctc_cells"], [ctc])
    put("nat.sentence_loss_and_grads.self_s", "s", ["nat.sentence_loss_and_grads", ctc],
        lambda: self_s["nat.sentence_loss_and_grads"])
    put("nat.forward.s", "s", ["nat.forward"], lambda: seconds["nat.forward"])
    vit = "nat.viterbi_align"
    put(f"{vit}.calls", "count", [vit], lambda: calls[vit])
    put(f"{vit}.s", "s", [vit], lambda: seconds[vit])
    put("nat.viterbi.dp_cells", "count", [vit], lambda: counts["viterbi_cells"], [vit])
    put("nat.decode_positional.s", "s", ["nat.decode_positional"],
        lambda: seconds["nat.decode_positional"])
    ckpt = ["nat.save_checkpoint", "nat.load_checkpoint", "nat.model_digest"]
    put("nat.checkpoint.s", "s", ckpt, lambda: sum(seconds[n] for n in ckpt))

    sc = "scoring.score_corpus"
    put(f"{sc}.s", "s", [sc], lambda: seconds[sc])
    put(f"{sc}.self_s", "s", [sc], lambda: self_s[sc])
    put("scoring.infeasible_ratio", "ratio", [sc],
        lambda: _ratio(counts["score_infeasible"], counts["scored"]), [sc])
    tsv = ["scoring.write_score_tsv", "scoring.read_score_tsv"]
    put("scoring.tsv.s", "s", tsv, lambda: sum(seconds[n] for n in tsv))

    ts = "curriculum.train_student"
    put(f"{ts}.s", "s", [ts], lambda: seconds[ts])
    put(f"{ts}.self_s", "s", [ts], lambda: self_s[ts])
    put("curriculum.raw_fraction_mean", "ratio", [ts],
        lambda: _ratio(counts["raw_fraction_sum"], counts["student_updates"]), [ts])

    em, ap = "align.em_train", "align.align_pair"
    put(f"{em}.s", "s", [em], lambda: seconds[em])
    put(f"{em}.s_per_iter", "s", [em], lambda: _ratio(seconds[em], counts["em_iterations"]), [em])
    put(f"{ap}.calls", "count", [ap], lambda: calls[ap])
    put(f"{ap}.s", "s", [ap], lambda: seconds[ap])
    if all(hasattr(m, "unseen_fallbacks") for m in models):
        put("align.unseen_fallbacks", "count", [em, ap],
            lambda: sum(m.unseen_fallbacks for m in models))

    mr = "metrics.metric_report"
    put(f"{mr}.s", "s", [mr], lambda: seconds[mr])
    put(f"{mr}.self_s", "s", [mr], lambda: self_s[mr])
    put("metrics.align_calls_per_pair", "calls/pair", [mr, ap],
        lambda: _ratio(under_report, counts["report_pairs"]), [mr])

    for stage in STAGES:
        fn = "cli.run_" + stage.replace("-", "_")
        put(f"cli.stage.{stage}.s", "s", [fn], lambda fn=fn: seconds[fn])
    # Stage throughputs; traced stage times include the tracing overhead.
    train = ["cli.run_train_evaluator", "cli.run_train_student"]
    put("cli.train_pairs_per_s", "pairs/s", train + [bs],
        lambda: _ratio(counts["batch_pairs"], sum(seconds[n] for n in train)), [bs])
    put("cli.score_pairs_per_s", "pairs/s", ["cli.run_score", sc],
        lambda: _ratio(counts["scored"], seconds["cli.run_score"]), [sc])
    put("cli.metrics_pairs_per_s", "pairs/s", ["cli.run_metrics", mr],
        lambda: _ratio(counts["report_pairs"], seconds["cli.run_metrics"]), [mr])
    cli_fns = [n for n in wrapped if n.startswith("cli.")]
    put("cli.self_s", "s", ["cli.main"], lambda: sum(self_s[n] for n in cli_fns))
    put("corpus.load_corpus.s", "s", ["corpus.load_corpus"], lambda: seconds["corpus.load_corpus"])
    writes = ["corpus.write_bitext", "corpus.write_sentences"]
    put("corpus.write.s", "s", writes, lambda: sum(seconds[n] for n in writes))
    put("synth.generate.s", "s", ["synth.generate"], lambda: seconds["synth.generate"])
    return out


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Median over the traced runs of each per-layer metric."""
    by_run: dict[int, list] = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        by_run[span[4]].append((index, span))
    per_run = [
        _run_metrics(spans, tracer.counts[run_id], tracer.alignment_models[run_id],
                     tracer.wrapped, tracer.broken_counters)
        for run_id, spans in sorted(by_run.items())
    ]
    if not per_run:
        return {}
    return {name: {"value": statistics.median(run[name][0] for run in per_run), "unit": unit}
            for name, (_, unit) in per_run[0].items() if all(name in run for run in per_run)}
