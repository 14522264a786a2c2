"""Pipeline command-line interface.

Stages hand artifacts to each other through files, so any stage can be
replaced by external data (a real distilled corpus, an externally
trained checkpoint). Every stage writes a ``manifest.json`` capturing
the resolved configuration plus sha256 checksums of its inputs and
outputs; reruns with the same manifest produce byte-identical artifacts,
and consuming a file that no longer matches the manifest that produced
it is an error. ``Stage`` owns the manifest: a stage names each file it
reads through ``Stage.input`` and each file it writes through
``Stage.path``, and ``Stage.finish`` records exactly those. Exit codes
are listed in ``EXIT_CODE_DOC``, which ``selkd --help`` prints.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import sys

from . import __version__
from . import align as align_mod
from . import corpus as corpus_mod
from . import curriculum as cur
from . import metrics as metrics_mod
from . import nat
from . import scoring
from . import synth as synth_mod

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_CHECKSUM = 4
EXIT_FORMAT = 5
EXIT_TRAINING = 6

EXIT_CODE_DOC = """exit codes:
  0  success
  1  unexpected internal error
  2  invalid flags or configuration
  3  missing input file
  4  input checksum mismatch against a prior manifest
  5  corpus/score/checkpoint/manifest format error
  6  training or numeric failure
"""


class StageError(RuntimeError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _default_out(subcommand: str) -> str:
    root = os.environ.get("SELKD_OUTPUT_ROOT", "selkd-runs")
    return os.path.join(root, subcommand)


def _read_manifest(path: str) -> dict:
    """Parse a stage manifest: a JSON object whose ``outputs``, if
    present, maps file names to sha256 digests."""
    try:
        manifest = json.loads(corpus_mod.read_utf8(path, ValueError))
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested for the parser
        raise StageError(f"unreadable manifest {path}: {exc}", EXIT_FORMAT) from exc
    outputs = manifest.get("outputs", {}) if isinstance(manifest, dict) else None
    if not isinstance(outputs, dict) or not all(isinstance(d, str) for d in outputs.values()):
        raise StageError(f"malformed manifest {path}: expected a JSON object whose "
                         "\"outputs\" maps file names to digests", EXIT_FORMAT)
    try:  # a JSON escape such as "\ud800" reads as a lone surrogate, which UTF-8 cannot hold
        json.dumps(outputs, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise StageError(f"malformed manifest {path}: {exc}", EXIT_FORMAT) from exc
    return manifest


class Stage:
    """One run of a stage and the manifest it writes. ``input`` checks,
    hashes and records each file the stage reads, ``path`` names each
    file it writes, and ``finish`` writes ``manifest.json`` from both
    lists, so every file is named once, where it is used, and each input
    is hashed once, when it is read. Used as a context manager: any
    exception inside the block, an interrupt included, removes anything the
    stage created, leaves an INCOMPLETE marker instead, and propagates."""

    def __init__(self, out_dir: str, subcommand: str):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.inputs: dict[str, str] = {}  # each file read, with its digest when read
        self.outputs: list[str] = []
        os.makedirs(out_dir, exist_ok=True)
        marker = os.path.join(out_dir, "INCOMPLETE")
        if os.path.exists(marker):
            os.remove(marker)

    def __enter__(self) -> "Stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is None:
            return
        for p in [*self.outputs, os.path.join(self.out_dir, "manifest.json")]:
            if os.path.exists(p):
                os.remove(p)
        marker = os.path.join(self.out_dir, "INCOMPLETE")
        corpus_mod.write_lines(marker, [f"{self.subcommand} failed: {exc}"])

    def input(self, *paths: str | None) -> None:
        """Record each file the stage reads and its digest, skipping
        ``None`` and a file already recorded. The file must exist, and if a
        sibling manifest lists it as an output, its checksum must still
        match."""
        for p in paths:
            if p is None or p in self.inputs:
                continue
            if not os.path.exists(p):
                raise StageError(f"missing input file: {p}", EXIT_MISSING_INPUT)
            digest = _sha256(p)
            manifest = os.path.join(os.path.dirname(os.path.abspath(p)), "manifest.json")
            if os.path.exists(manifest):
                recorded = _read_manifest(manifest).get("outputs", {}).get(os.path.basename(p))
                if recorded is not None and recorded != digest:
                    raise StageError(
                        f"{p} no longer matches the checksum recorded in {manifest}", EXIT_CHECKSUM
                    )
            self.inputs[p] = digest

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.outputs.append(p)
        return p

    def finish(self, config: dict) -> None:
        manifest = {
            "tool": "selkd",
            "version": __version__,
            "subcommand": self.subcommand,
            "config": config,
            "inputs": self.inputs,
            "outputs": {os.path.basename(p): _sha256(p) for p in self.outputs},
        }
        text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False)
        corpus_mod.write_lines(os.path.join(self.out_dir, "manifest.json"), text.split("\n"))


def _load_corpus_args(stage: Stage, args) -> corpus_mod.Corpus:
    stage.input(args.src, args.raw, args.kd)
    return corpus_mod.load_corpus(args.src, args.raw, args.kd)


# Each model flag and the ``nat.ModelConfig`` field it sets; the field's
# default is the flag's.
_MODEL_FLAGS = {"--embed-dim": "embed_dim", "--hidden-dim": "hidden_dim", "--upsample": "upsample",
                "--window": "window", "--lr": "learning_rate", "--epochs": "epochs",
                "--batch-size": "batch_size", "--clip-norm": "clip_norm", "--seed": "seed"}


def _model_config(args) -> nat.ModelConfig:
    """The config the model flags set; a field whose flag the subcommand
    lacks (``train-student`` has no ``--epochs``) keeps its default."""
    return nat.ModelConfig(**{field: getattr(args, dest) for flag, field in _MODEL_FLAGS.items()
                              if hasattr(args, dest := flag[2:].replace("-", "_"))})


def _schedule(args) -> cur.ThresholdSchedule:
    return cur.ThresholdSchedule(start=args.t0, end=args.t1, total_updates=args.updates)


def _synth_spec(args) -> synth_mod.SynthTaskSpec:
    if args.mode_probs:
        probs = tuple(float(x) for x in args.mode_probs.split(","))
    else:
        probs = tuple(1.0 / args.modes for _ in range(args.modes))
        probs = (1.0 - sum(probs[1:]),) + probs[1:]  # absorb rounding into mode 0
    return synth_mod.SynthTaskSpec(
        source_vocab_size=args.source_vocab, target_vocab_size=args.target_vocab,
        len_min=args.len_min, len_max=args.len_max, num_modes=args.modes,
        mode_probs=probs, mistake_rate=args.mistake_rate, mistake_kind=args.mistake_kind,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def run_synth(args) -> int:
    with Stage(args.out, "synth") as stage:
        spec = _synth_spec(args)
        sc = synth_mod.generate(spec, args.n)
        corpus_mod.write_bitext(sc.corpus, "source", stage.path("src.txt"))
        corpus_mod.write_bitext(sc.corpus, "raw", stage.path("raw.txt"))
        corpus_mod.write_bitext(sc.corpus, "distilled", stage.path("kd.txt"))
        synth_mod.write_sidecar(sc, stage.path("modes.tsv"))
        stage.finish(config={"n": args.n, "spec": spec.__dict__ | {"mode_probs": list(spec.mode_probs)}})
        return EXIT_OK


def run_train_evaluator(args) -> int:
    if args.snapshot_updates is not None and args.snapshot_updates < 1:
        raise StageError(f"--snapshot-updates must be >= 1, got {args.snapshot_updates}", EXIT_CONFIG)
    with Stage(args.out, "train-evaluator") as stage:
        corpus = _load_corpus_args(stage, args)
        config = _model_config(args)
        result = nat.train(corpus.pairs(args.target_side), config, corpus.src_vocab, corpus.tgt_vocab,
                           snapshot_at=args.snapshot_updates,
                           progress=lambda epoch, loss: print(f"epoch {epoch}: mean loss {loss:.6f}",
                                                              file=sys.stderr))
        nat.save_checkpoint(result.model, stage.path("checkpoint.txt"))
        if args.snapshot_updates is not None:
            nat.save_checkpoint(result.snapshot, stage.path("snapshot.txt"))
        corpus_mod.write_lines(stage.path("train_log.tsv"),
                               (f"{epoch}\t{loss:.6f}" for epoch, loss in enumerate(result.epoch_losses)))
        stage.finish(config={"model": config.__dict__, "target_side": args.target_side,
                             "snapshot_updates": args.snapshot_updates,
                             "skipped_pairs": result.skipped, "updates": result.updates})
        return EXIT_OK


def run_score(args) -> int:
    if args.normalize_by_reference and args.variant == "plain":
        raise StageError("--normalize-by-reference is for ctc: plain divides by it already", EXIT_CONFIG)
    with Stage(args.out, "score") as stage:
        stage.input(args.checkpoint)
        corpus = _load_corpus_args(stage, args)
        model = nat.load_checkpoint(args.checkpoint, corpus.src_vocab, corpus.tgt_vocab)
        table = scoring.score_corpus(model, corpus, variant=args.variant,
                                     normalize_by_reference=args.normalize_by_reference)
        scoring.write_score_tsv(table, stage.path("scores.tsv"))
        stage.finish(config={"variant": args.variant,
                             "normalize_by_reference": args.normalize_by_reference,
                             "checkpoint_id": table.checkpoint_id})
        return EXIT_OK


def run_select(args) -> int:
    threshold = cur.check_threshold(args.threshold, "--threshold")
    with Stage(args.out, "select") as stage:
        corpus = _load_corpus_args(stage, args)
        stage.input(args.scores)
        table = scoring.read_score_tsv(args.scores)
        scoring.validate_table_covers(table, corpus)
        keep = cur.keeps_raw(table, threshold).tolist()
        targets = [ex.raw_target if raw else ex.distilled_target
                   for ex, raw in zip(corpus.examples, keep)]
        corpus_mod.write_bitext(corpus, "source", stage.path("selected_source.txt"))
        corpus_mod.write_sentences(targets, corpus.tgt_vocab, stage.path("selected_target.txt"))
        cur.write_decisions_tsv(table, threshold, stage.path("decisions.tsv"))
        raw_share = cur.raw_ratio(table, threshold) if keep else 0.0
        stage.finish(config={"threshold": threshold, "raw_ratio": raw_share})
        return EXIT_OK


def run_train_student(args) -> int:
    schedule = _schedule(args)
    with Stage(args.out, "train-student") as stage:
        corpus = _load_corpus_args(stage, args)
        stage.input(args.scores, args.init_checkpoint)
        table = scoring.read_score_tsv(args.scores)
        config = _model_config(args)
        init_model = None
        if args.init_checkpoint is not None:
            init_model = nat.load_checkpoint(args.init_checkpoint, corpus.src_vocab, corpus.tgt_vocab)

        def progress(row):
            print(f"update {row.update}: T={row.threshold:.4f} raw={row.raw_fraction:.3f} "
                  f"loss={row.loss:.4f}", file=sys.stderr)

        result = cur.train_student(corpus, table, schedule, config,
                                   init_model=init_model, progress=progress)
        nat.save_checkpoint(result.model, stage.path("checkpoint.txt"))
        cur.write_update_log(result.log, stage.path("train_log.tsv"))
        stage.finish(config={"model": config.__dict__, "schedule": schedule.__dict__,
                             "init_checkpoint": args.init_checkpoint,
                             "skipped_pairs": result.skipped})
        return EXIT_OK


def _report_row(label: str, threshold, ratio, report) -> str:
    t = f"{threshold:.6f}" if threshold is not None else "-"
    r = f"{ratio:.6f}" if ratio is not None else "-"
    if report is None:
        return f"{label}\t{t}\t{r}\t0\t-\t-\t-"
    return (f"{label}\t{t}\t{r}\t{report.sentences}\t{report.uncertainty:.6f}"
            f"\t{report.shift:.6f}\t{report.repetition_per_mille:.6f}")


def _check_metrics_flags(args) -> list[float]:
    """Reject flag combinations ``run_metrics`` would otherwise ignore and
    thresholds outside [0, 1.01], before the stage creates its directory;
    return the ``--thresholds`` sweep."""
    if args.tgt:
        ignored = [flag for flag, value in (("--raw", args.raw), ("--kd", args.kd),
                                            ("--scores", args.scores),
                                            ("--thresholds", args.thresholds)) if value]
        if ignored:
            raise StageError(f"--tgt cannot be combined with {', '.join(ignored)}", EXIT_CONFIG)
    elif not (args.raw and args.kd):
        raise StageError("--raw and --kd are required without --tgt", EXIT_CONFIG)
    elif args.thresholds and not args.scores:
        raise StageError("--thresholds needs --scores", EXIT_CONFIG)
    cur.check_threshold(args.t0, "--t0")
    cur.check_threshold(args.t1, "--t1")
    return [cur.check_threshold(float(x), "--thresholds value")
            for x in args.thresholds.split(",")] if args.thresholds else []


def run_metrics(args) -> int:
    thresholds = _check_metrics_flags(args)
    with Stage(args.out, "metrics") as stage:
        if args.tgt:  # single-bitext mode: the bitext is both target sides and the one view
            args.raw = args.kd = args.tgt
        corpus = _load_corpus_args(stage, args)
        table = None
        if args.scores:
            stage.input(args.scores)
            table = scoring.read_score_tsv(args.scores)
            scoring.validate_table_covers(table, corpus)
            # buckets.tsv buckets each record by its ref_len.
            for rec, ex in zip(table.records, corpus.examples):
                if rec.ref_len != len(ex.raw_target):
                    raise scoring.ScoringError(
                        f"{args.scores}:{rec.index + 1}: ref_len {rec.ref_len} is not the "
                        f"length {len(ex.raw_target)} of raw target {rec.index}")

        raw = corpus.pairs("raw")
        model = align_mod.em_train(raw, iterations=args.align_iterations,
                                   tension=args.tension, null_prob=args.null_prob)
        # Every view is a subset of the raw or the distilled pairs, so each
        # distinct pair is aligned and reduced to its record once, and the
        # views pick their records.
        raw_links = metrics_mod.align_bitext(raw, model)
        raw_stats = metrics_mod.pair_stats(raw, raw_links)
        if args.tgt:
            views = [("bitext", raw_stats)]
        else:
            distilled = corpus.pairs("distilled")
            distilled_stats = metrics_mod.pair_stats(distilled,
                                                     metrics_mod.align_bitext(distilled, model))
            views = [("raw", raw_stats), ("distilled", distilled_stats)]

        rows = ["view\tthreshold\traw_ratio\tsentences\tuncertainty\tshift\trepetition_per_mille"]
        for label, stats in views:
            rows.append(_report_row(label, None, None, metrics_mod.metric_report(stats, label)))
        for t in thresholds:
            ratio = cur.raw_ratio(table, t)
            for label, stats in metrics_mod.threshold_views(corpus, table, t, raw_stats,
                                                            distilled_stats):
                try:
                    rep = metrics_mod.metric_report(stats, label)
                except metrics_mod.MetricsError:
                    rep = None  # not enough data at this threshold; report a hole
                rows.append(_report_row(label, t, ratio, rep))
        corpus_mod.write_lines(stage.path("report.tsv"), rows)

        if table is not None:
            # Exposure depends on the endpoints only, so one update suffices.
            schedule = cur.ThresholdSchedule(start=args.t0, end=args.t1, total_updates=1)
            corpus_mod.write_lines(stage.path("buckets.tsv"), metrics_mod.bucket_table(table, schedule))

        if args.dump_links:
            align_mod.write_pharaoh(raw_links, stage.path("links.txt"))

        stage.finish(config={"thresholds": thresholds, "t0": args.t0, "t1": args.t1,
                             "align_iterations": args.align_iterations,
                             "tension": args.tension, "null_prob": args.null_prob})
        return EXIT_OK


def _quantiles(values: list[float]) -> list[tuple[int, float]]:
    vs = sorted(values)
    out = []
    for q in range(0, 101, 10):
        pos = (len(vs) - 1) * q / 100
        lo, hi = int(math.floor(pos)), int(math.ceil(pos))
        v = vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)
        out.append((q, v))
    return out


# The run graph of ``selkd full`` in run order: each stage's directory, its subcommand, and the
# earlier stages' files it reads, as paths under the run keyed by flag (the report reads under --run).
RunStage = collections.namedtuple("RunStage", "dir command files")
_CORPUS = {"src": "synth/src.txt", "raw": "synth/raw.txt", "kd": "synth/kd.txt"}
_SCORED = _CORPUS | {"scores": "scores/scores.tsv"}
RUN_GRAPH = (
    RunStage("synth", "synth", {}),
    RunStage("evaluator", "train-evaluator", _CORPUS),
    RunStage("scores", "score", _CORPUS | {"checkpoint": "evaluator/checkpoint.txt"}),
    RunStage("select", "select", _SCORED),
    RunStage("student", "train-student", _SCORED | {"init_checkpoint": "evaluator/snapshot.txt"}),
    RunStage("metrics", "metrics", _SCORED),
    RunStage("report", "report", {"scores": _SCORED["scores"], "metrics_report": "metrics/report.tsv"}),
)


def run_report(args) -> int:
    with Stage(args.out, "report") as stage:
        run_dir = args.run
        if not os.path.isdir(run_dir):
            raise StageError(f"missing run directory: {run_dir}", EXIT_MISSING_INPUT)
        lines = [f"selkd run summary: {os.path.basename(os.path.normpath(run_dir))}", ""]
        for sub, _, _ in RUN_GRAPH[:-1]:
            subdir = os.path.join(run_dir, sub)
            manifest = os.path.join(subdir, "manifest.json")
            if not os.path.exists(manifest):
                status = "absent" if not os.path.isdir(subdir) else "INCOMPLETE"
                lines.append(f"[{sub}] {status}")
                continue
            stage.input(manifest)
            outputs = _read_manifest(manifest).get("outputs", {})
            lines.append(f"[{sub}] ok ({len(outputs)} artifacts)")
            for name, digest in sorted(outputs.items()):
                lines.append(f"  {name}  sha256:{digest[:16]}")
        score_path = os.path.join(run_dir, RUN_GRAPH[-1].files["scores"])
        if os.path.exists(score_path):
            stage.input(score_path)
            table = scoring.read_score_tsv(score_path)
            if table.records:
                lines.append("")
                lines.append("score quantiles (for choosing a starting threshold):")
                for q, v in _quantiles([r.score for r in table.records]):
                    lines.append(f"  p{q:<3d} {v:.6f}")
        report_path = os.path.join(run_dir, RUN_GRAPH[-1].files["metrics_report"])
        if os.path.exists(report_path):
            stage.input(report_path)
            lines.append("")
            lines.append("metrics report:")
            lines.extend("  " + ln for ln in corpus_mod.read_lines(report_path, metrics_mod.MetricsError))
        corpus_mod.write_lines(stage.path("summary.txt"), lines)
        stage.finish(config={"run": run_dir})
        return EXIT_OK


def _runner(command: str):
    """``run_<command>``, looked up at each call so that a wrapper put on this module sees it."""
    return globals()["run_" + command.replace("-", "_")]


def run_full(args) -> int:
    """Chain every stage under one output directory. The aligner flags, the
    model config and the schedule are checked first, so bad ones fail
    before any stage runs."""
    align_mod.check_em_params(args.align_iterations, args.tension, args.null_prob)
    _model_config(args)
    # The sweep brackets the schedule the student ran: T0, its midpoint and T1, once each.
    sweep = dict.fromkeys((args.t0, (args.t0 + args.t1) / 2, args.t1))
    settings = vars(args) | dict(
        target_side="distilled", snapshot_updates=max(1, math.ceil(args.updates / 12)),
        threshold=cur.threshold_at(_schedule(args), args.updates // 2), thresholds=",".join(map(str, sweep)),
        normalize_by_reference=False, tgt=None, dump_links=False, run=args.out)
    for row in RUN_GRAPH:
        paths = {flag: os.path.join(args.out, path) for flag, path in {"out": row.dir, **row.files}.items()}
        _runner(row.command)(argparse.Namespace(**settings | paths))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--src", required=True, help="source bitext file")
    p.add_argument("--raw", required=True, help="raw target bitext file")
    p.add_argument("--kd", required=True, help="distilled target bitext file")


def _add_model_flags(p: argparse.ArgumentParser, without: tuple[str, ...] = ()) -> None:
    defaults = nat.ModelConfig()
    for flag, field in _MODEL_FLAGS.items():
        default = getattr(defaults, field)
        if flag not in without:
            p.add_argument(flag, type=type(default), default=default)


def _add_align_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--align-iterations", type=int, default=5)
    p.add_argument("--tension", type=float, default=align_mod.DEFAULT_TENSION)
    p.add_argument("--null-prob", type=float, default=align_mod.DEFAULT_NULL_PROB)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t0", type=float, default=0.4, help="starting threshold")
    p.add_argument("--t1", type=float, default=1.0, help="final threshold")
    p.add_argument("--updates", type=int, default=2000, help="total updates K")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--source-vocab", type=int, default=12)
    p.add_argument("--target-vocab", type=int, default=16)
    p.add_argument("--len-min", type=int, default=3)
    p.add_argument("--len-max", type=int, default=8)
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--mode-probs", default="", help="comma-separated mode probabilities (default uniform)")
    p.add_argument("--mistake-rate", type=float, default=0.1)
    p.add_argument("--mistake-kind", choices=synth_mod.MISTAKE_KINDS, default="repeat-token")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selkd",
        description="Selective knowledge distillation pipeline for parallel-decoding translation models.",
        epilog=EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"selkd {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text):
        # No abbreviations: a prefix of a flag (``--k`` for ``--kd``) is not that flag.
        p = subs.add_parser(name, help=help_text, epilog=EXIT_CODE_DOC, allow_abbrev=False,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--out", default=_default_out(name),
                       help="output directory (default $SELKD_OUTPUT_ROOT/%(prog)s)")
        return p

    p = sub("synth", "generate a synthetic multimodal corpus")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub("train-evaluator", "train the scoring model on one target side")
    _add_corpus_flags(p)
    _add_model_flags(p)
    p.add_argument("--target-side", choices=("distilled", "raw"), default="distilled")
    p.add_argument("--snapshot-updates", type=int, default=None,
                   help="also save a parameter snapshot after this many updates")

    p = sub("score", "score every raw target with a trained evaluator")
    _add_corpus_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", choices=scoring.VARIANTS, default="ctc")
    p.add_argument("--normalize-by-reference", action="store_true",
                   help="divide the frame distance by the reference length instead of the frame count")

    p = sub("select", "materialize the raw/distilled choice at one threshold")
    _add_corpus_flags(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="keep the raw target of every example scoring at or above this")

    p = sub("train-student", "train a student under the threshold curriculum")
    _add_corpus_flags(p)
    p.add_argument("--scores", required=True)
    _add_schedule_flags(p)
    _add_model_flags(p, without=("--epochs",))  # the student trains for --updates
    p.add_argument("--init-checkpoint", help="warm-start from this checkpoint")

    p = sub("metrics", "complexity/quality report over corpus views")
    p.add_argument("--src", required=True)
    p.add_argument("--raw", help="raw target file (three-file mode)")
    p.add_argument("--kd", help="distilled target file (three-file mode)")
    p.add_argument("--tgt", help="single-bitext mode: report on (src, tgt) alone")
    p.add_argument("--scores", default="", help="score TSV enabling selected/replaced/mix views")
    p.add_argument("--thresholds", default="", help="comma-separated thresholds for the sweep")
    p.add_argument("--t0", type=float, default=0.4)
    p.add_argument("--t1", type=float, default=1.0)
    _add_align_flags(p)
    p.add_argument("--dump-links", action="store_true", help="dump argmax links in i-j format")

    p = sub("report", "consolidated summary of a full-run directory")
    p.add_argument("--run", required=True, help="directory produced by `selkd full`")

    p = sub("full", "run synth, evaluator, scoring, selection, student and metrics in one go")
    _add_synth_flags(p)
    _add_model_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--variant", choices=scoring.VARIANTS, default="ctc")
    _add_align_flags(p)

    return parser


_ERROR_CODES = (
    (StageError, None),
    (FileNotFoundError, EXIT_MISSING_INPUT),
    ((nat.TrainingError, nat.CtcInfeasibleError), EXIT_TRAINING),
    ((synth_mod.SynthConfigError, cur.ScheduleError, align_mod.AlignmentConfigError), EXIT_CONFIG),
    ((corpus_mod.CorpusFormatError, corpus_mod.VocabularyMismatchError,
      scoring.ScoringError, cur.SelectionError, align_mod.AlignmentError,
      metrics_mod.MetricsError, nat.CheckpointError), EXIT_FORMAT),
    (ValueError, EXIT_CONFIG),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _runner(args.command)(args)
    except Exception as exc:  # noqa: BLE001 - translated to exit codes
        for types, code in _ERROR_CODES:
            if isinstance(exc, types):
                print(f"selkd {args.command}: error: {exc}", file=sys.stderr)
                return exc.code if isinstance(exc, StageError) else code
        print(f"selkd {args.command}: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
