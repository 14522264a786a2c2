"""The benchmark's workloads: their inputs, the selkd CLI calls they time,
the checks on every output, and the quality result each one reports.

Every path handed to the CLI is relative to the repository root, so stage
manifests (which record input paths) are byte-identical from one run to the
next and from one checkout to another.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from selkd import cli, corpus, metrics, nat, synth

# The CLI defaults the pipeline workload relies on (selkd full --help).
BATCH_SIZE = 32
EVALUATOR_EPOCHS = 5
MODES = 4

# Workload seed never used while the benchmark was written; kept back so a
# later change can confirm a claimed gain on inputs it was not tuned on.
CONFIRM_SEED = 9091


@dataclass(frozen=True)
class StageDir:
    """One stage directory a CLI call must leave behind."""

    path: str
    pairs: int  # training pairs attempted, pairs scored or view pairs reported
    scored: int = 0  # rows scores.tsv must hold (0: the stage writes no scores)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    outputs: tuple[StageDir, ...]


def _spec(seed: int, mistake_rate: float = 0.1) -> synth.SynthTaskSpec:
    """The README default task (``selkd synth`` defaults)."""
    return synth.SynthTaskSpec(source_vocab_size=12, target_vocab_size=16, len_min=3, len_max=8,
                               num_modes=MODES, mode_probs=(1.0 / MODES,) * MODES,
                               mistake_rate=mistake_rate, seed=seed)


def _f1(predicted: list[bool], gold: list[bool]) -> float:
    tp = sum(p and g for p, g in zip(predicted, gold))
    fp = sum(p and not g for p, g in zip(predicted, gold))
    fn = sum(g and not p for p, g in zip(predicted, gold))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def should_select(modes_path: str) -> list[bool]:
    """``synth.oracle_report``'s rule: non-reversing modes should stay raw."""
    modes, _ = synth.read_sidecar(modes_path)
    spec = _spec(0)
    return [not spec.is_reversing_mode(m) for m in modes]


def selection_f1(scores_path: str, modes_path: str, threshold: float) -> float:
    """F1 of the RAW choices (score >= threshold) against the oracle rule."""
    with open(scores_path, encoding="utf-8") as fh:
        chosen = [float(line.split("\t")[1]) >= threshold for line in fh]
    return _f1(chosen, should_select(modes_path))


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.inputs = os.path.join(work_dir, "inputs")
        self.run = os.path.join(work_dir, "run")

    def setup(self) -> None:
        """Generate the input files (and anything else the quality needs)."""

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def quality(self) -> float:
        """The workload's quality result, in percent; computed after timing."""
        raise NotImplementedError

    def pairs(self) -> int:
        return sum(out.pairs for call in self.calls() for out in call.outputs)

    def _corpus_flags(self, synth_dir: str) -> tuple[str, ...]:
        return ("--src", f"{synth_dir}/src.txt", "--raw", f"{synth_dir}/raw.txt",
                "--kd", f"{synth_dir}/kd.txt")


class Pipeline(Workload):
    """``selkd full`` on the README default task; quality is the student's
    corpus BLEU on a held-out set drawn without teacher mistakes."""

    name = "pipeline"

    def __init__(self, seed: int, work_dir: str, n: int = 300, updates: int = 120,
                 heldout: int = 300):
        super().__init__(seed, work_dir)
        self.n, self.updates, self.heldout_n = n, updates, heldout
        self.heldout_seed = seed + 1_000_003
        self.heldout = None

    def setup(self) -> None:
        self.heldout = synth.generate(_spec(self.heldout_seed, mistake_rate=0.0), self.heldout_n)

    def calls(self) -> list[Call]:
        n, k, run = self.n, self.updates, self.run
        # full's metrics stage reports raw and distilled, then selected,
        # replaced and mix at three thresholds: 2n + 3 * 2n view pairs.
        outputs = (
            StageDir(f"{run}/synth", 0),
            StageDir(f"{run}/evaluator", EVALUATOR_EPOCHS * n),
            StageDir(f"{run}/scores", n, scored=n),
            StageDir(f"{run}/select", 0),
            StageDir(f"{run}/student", k * BATCH_SIZE),
            StageDir(f"{run}/metrics", 8 * n),
            StageDir(f"{run}/report", 0),
        )
        argv = ("full", "--out", run, "--seed", str(self.seed), "--n", str(n),
                "--updates", str(k))
        return [Call(argv, outputs)]

    def quality(self) -> float:
        d = f"{self.run}/synth"
        trained = corpus.load_corpus(f"{d}/src.txt", f"{d}/raw.txt", f"{d}/kd.txt")
        model = nat.load_checkpoint(f"{self.run}/student/checkpoint.txt",
                                    trained.src_vocab, trained.tgt_vocab)
        held = self.heldout.corpus
        hyps, refs = [], []
        for ex in held.examples:
            source = trained.src_vocab.encode(held.src_vocab.decode(ex.source))
            hyps.append(nat.decode_greedy(nat.forward(model, source)).output)
            refs.append(trained.tgt_vocab.encode(held.tgt_vocab.decode(ex.distilled_target)))
        return metrics.corpus_bleu(hyps, refs)


class LongLattice(Workload):
    """Long sentences through synth, train-evaluator and both score variants;
    quality is the selection F1 of the ctc scores at a fixed threshold."""

    name = "long-lattice"
    THRESHOLD = 0.7

    def __init__(self, seed: int, work_dir: str, n: int = 1600, epochs: int = 1):
        super().__init__(seed, work_dir)
        self.n, self.epochs = n, epochs

    def calls(self) -> list[Call]:
        n, run = self.n, self.run
        data = self._corpus_flags(f"{run}/synth")
        ckpt = f"{run}/evaluator/checkpoint.txt"
        return [
            Call(("synth", "--out", f"{run}/synth", "--seed", str(self.seed), "--n", str(n),
                  "--len-min", "8", "--len-max", "48"),
                 (StageDir(f"{run}/synth", 0),)),
            Call(("train-evaluator", "--out", f"{run}/evaluator", "--epochs", str(self.epochs))
                 + data, (StageDir(f"{run}/evaluator", self.epochs * n),)),
            Call(("score", "--out", f"{run}/ctc", "--checkpoint", ckpt, "--variant", "ctc") + data,
                 (StageDir(f"{run}/ctc", n, scored=n),)),
            Call(("score", "--out", f"{run}/plain", "--checkpoint", ckpt, "--variant", "plain")
                 + data, (StageDir(f"{run}/plain", n, scored=n),)),
        ]

    def quality(self) -> float:
        return 100.0 * selection_f1(f"{self.run}/ctc/scores.tsv", f"{self.run}/synth/modes.tsv",
                                    self.THRESHOLD)


class AlignLargeVocab(Workload):
    """``selkd metrics`` on a 400/800-type corpus with generated scores, a
    three-threshold sweep and a link dump; quality is the F1 of the dumped
    links against the generator's word correspondence."""

    name = "align-large-vocab"
    THRESHOLDS = "0.4,0.7,0.9"

    def __init__(self, seed: int, work_dir: str, n: int = 600):
        super().__init__(seed, work_dir)
        self.n = n

    def setup(self) -> None:
        code = cli.main(["synth", "--out", f"{self.inputs}/synth", "--seed", str(self.seed),
                         "--n", str(self.n), "--len-min", "4", "--len-max", "24",
                         "--source-vocab", "400", "--target-vocab", "800"])
        if code != 0:
            raise RuntimeError(f"selkd synth exited {code} while generating inputs")
        # Scores as an evaluator would give them: distance d of T = 2|src|
        # frames, low for non-reversing modes and high for reversing ones.
        rng = random.Random(self.seed)
        keep = should_select(f"{self.inputs}/synth/modes.tsv")
        with open(f"{self.inputs}/synth/src.txt", encoding="utf-8") as fh:
            lengths = [len(line.split()) for line in fh]
        with open(f"{self.inputs}/scores.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for i, (length, good) in enumerate(zip(lengths, keep)):
                frames = 2 * length
                d = rng.randint(0, frames // 2) if good else rng.randint(2 * frames // 5, frames)
                fh.write(f"{i}\t{1 - d / frames:.6f}\t{d}\t{length}\t{frames}\n")

    def calls(self) -> list[Call]:
        n = self.n
        return [Call(("metrics", "--out", f"{self.run}/metrics",
                      "--scores", f"{self.inputs}/scores.tsv", "--thresholds", self.THRESHOLDS,
                      "--dump-links") + self._corpus_flags(f"{self.inputs}/synth"),
                     (StageDir(f"{self.run}/metrics", 8 * n),))]

    def quality(self) -> float:
        """Raw target j translates source j, or source |src|-1-j in a
        reversing mode; links.txt holds the raw view's argmax links."""
        keep = should_select(f"{self.inputs}/synth/modes.tsv")
        with open(f"{self.inputs}/synth/src.txt", encoding="utf-8") as fh:
            lengths = [len(line.split()) for line in fh]
        with open(f"{self.run}/metrics/links.txt", encoding="utf-8") as fh:
            dumped = [line.split() for line in fh]
        tp = predicted = gold = 0
        for length, straight, links in zip(lengths, keep, dumped):
            truth = {f"{j if straight else length - 1 - j}-{j}" for j in range(length)}
            tp += len(truth.intersection(links))
            predicted += len(links)
            gold += length
        return 100.0 * 2 * tp / (predicted + gold)


WORKLOADS = {w.name: w for w in (Pipeline, LongLattice, AlignLargeVocab)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def snapshot(directory: str) -> dict[str, str]:
    """sha256 of every file under a stage directory, by relative path."""
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, directory)] = sha256(path)
    return dict(sorted(out.items()))


def check_stage(stage: StageDir) -> list[str]:
    """Problems with a finished stage directory; empty when it passes."""
    manifest_path = os.path.join(stage.path, "manifest.json")
    if not os.path.exists(manifest_path):
        return [f"{stage.path}: no manifest"]
    with open(manifest_path, encoding="utf-8") as fh:
        outputs = json.load(fh).get("outputs", {})
    if not outputs:
        return [f"{stage.path}: manifest lists no outputs"]
    problems = []
    for name, digest in outputs.items():
        path = os.path.join(stage.path, name)
        if not os.path.exists(path) or sha256(path) != digest:
            problems.append(f"{path}: does not match its manifest checksum")
    if stage.scored:
        problems += _check_scores(os.path.join(stage.path, "scores.tsv"), stage.scored)
    return problems


def _check_scores(path: str, n: int) -> list[str]:
    if not os.path.exists(path):
        return [f"{path}: missing"]
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if len(rows) != n:
        return [f"{path}: {len(rows)} rows for a corpus of {n}"]
    for i, row in enumerate(rows):
        try:
            index, score = int(row[0]), float(row[1])
        except (IndexError, ValueError):
            return [f"{path}:{i + 1}: malformed row"]
        if index != i or not 0.0 <= score <= 1.0:
            return [f"{path}:{i + 1}: index {index} score {score} out of place or range"]
    return []
