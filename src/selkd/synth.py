"""Synthetic multimodal translation tasks with controllable teacher mistakes.

Each source token has one canonical translation plus mode-specific
synonyms, so a single source sentence admits several valid targets:

* mode 0 applies the canonical token map;
* lower modes >= 1 substitute a mode-specific synonym per token (minor
  wording change, same structure);
* upper modes additionally reverse the sentence (dramatic structure
  change).

The distilled target is always the canonical mapping, optionally
corrupted with a configurable "teacher mistake" (an adjacent repeated
token, or a synonym swap). The known mode labels and mistake flags are
the ground truth against which selection quality can be measured.

All randomness flows through the portable generator in
:mod:`selkd.rng`, and the per-example draw order is fixed (length,
tokens, mode, mistake flag, mistake detail), so a given (spec, n, seed)
reproduces byte-identical corpora on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import (MAX_SENTENCE_LEN, Corpus, CorpusFormatError, Sentence, TriExample, Vocabulary, ascii_int,
                     read_rows, write_lines)
from .rng import Rng

MISTAKE_KINDS = ("repeat-token", "synonym-swap")


class SynthConfigError(ValueError):
    """Invalid synthetic task specification."""


@dataclass(frozen=True)
class SynthTaskSpec:
    source_vocab_size: int
    target_vocab_size: int
    len_min: int
    len_max: int
    num_modes: int
    mode_probs: tuple[float, ...]
    mistake_rate: float
    mistake_kind: str = "repeat-token"
    seed: int = 0

    def __post_init__(self):
        if self.num_modes < 1:
            raise SynthConfigError("num_modes must be >= 1")
        if len(self.mode_probs) != self.num_modes:
            raise SynthConfigError(f"mode_probs has {len(self.mode_probs)} entries for {self.num_modes} modes")
        if not all(0 <= p < math.inf for p in self.mode_probs):  # also rejects nan
            raise SynthConfigError(f"mode_probs must be finite and nonnegative, got {list(self.mode_probs)}")
        if abs(sum(self.mode_probs) - 1.0) > 1e-12:
            raise SynthConfigError(f"mode_probs sum to {sum(self.mode_probs)!r}, expected 1")
        if self.len_min < 1 or self.len_max < self.len_min:
            raise SynthConfigError(f"invalid length range [{self.len_min}, {self.len_max}]")
        if self.target_vocab_size < 2 * self.num_modes:
            raise SynthConfigError(
                f"target_vocab_size {self.target_vocab_size} leaves no room for "
                f"{self.num_modes} synonym sets (need >= {2 * self.num_modes})"
            )
        if self.source_vocab_size < 1:
            raise SynthConfigError("source_vocab_size must be >= 1")
        if not 0.0 <= self.mistake_rate <= 1.0:
            raise SynthConfigError(f"mistake_rate {self.mistake_rate} outside [0, 1]")
        if self.mistake_kind not in MISTAKE_KINDS:
            raise SynthConfigError(f"mistake_kind {self.mistake_kind!r} not in {MISTAKE_KINDS}")
        if self.mistake_kind == "synonym-swap" and self.mistake_rate > 0 and self.num_modes < 2:
            raise SynthConfigError("synonym-swap mistakes need num_modes >= 2")
        longest = self.len_max + (self.mistake_kind == "repeat-token" and self.mistake_rate > 0)
        if longest > MAX_SENTENCE_LEN:  # a repeat-token mistake adds one token
            raise SynthConfigError(f"sentences of up to {longest} tokens exceed the limit of {MAX_SENTENCE_LEN}")

    @property
    def synonym_groups(self) -> int:
        """Number of distinct meanings on the target side."""
        return self.target_vocab_size // self.num_modes

    def first_reversing_mode(self) -> int:
        """Modes at or above this index reverse the sentence."""
        return max(1, (self.num_modes + 1) // 2)

    def is_reversing_mode(self, mode: int) -> bool:
        return mode >= self.first_reversing_mode()


@dataclass(frozen=True)
class SynthCorpus:
    spec: SynthTaskSpec
    corpus: Corpus
    modes: tuple[int, ...]
    mistakes: tuple[bool, ...]


@dataclass(frozen=True)
class SynthReport:
    mode_counts: tuple[int, ...]
    mistake_count: int
    should_select: tuple[bool, ...]
    selectable_fraction: float


def _build_vocabs(spec: SynthTaskSpec) -> tuple[Vocabulary, Vocabulary]:
    src, tgt = Vocabulary(), Vocabulary()
    for i in range(spec.source_vocab_size):
        src.add(f"s{i}")
    for j in range(spec.target_vocab_size):
        tgt.add(f"t{j}")
    return src, tgt


def _map_token(spec: SynthTaskSpec, src_index: int, mode: int) -> int:
    # Synonyms of one meaning occupy consecutive target indices; slot m of
    # group g is the mode-m wording of that meaning.
    group = src_index % spec.synonym_groups
    return group * spec.num_modes + mode


def canonical_target_indices(spec: SynthTaskSpec, src_indices: list[int]) -> list[int]:
    """Mode-0 translation of raw source token indices (not vocab ids)."""
    return [_map_token(spec, i, 0) for i in src_indices]


def generate(spec: SynthTaskSpec, n: int) -> SynthCorpus:
    """Generate n examples from the stream seeded by ``spec.seed``."""
    if n < 1:
        raise SynthConfigError(f"n must be >= 1, got {n}")
    rng = Rng(spec.seed)
    src_vocab, tgt_vocab = _build_vocabs(spec)

    examples: list[TriExample] = []
    modes: list[int] = []
    mistakes: list[bool] = []
    span = spec.len_max - spec.len_min + 1
    for _ in range(n):
        length = spec.len_min + rng.randint(span)
        src_idx = [rng.randint(spec.source_vocab_size) for _ in range(length)]
        mode = rng.categorical(spec.mode_probs)
        raw_idx = [_map_token(spec, i, mode) for i in src_idx]
        if spec.is_reversing_mode(mode):
            raw_idx.reverse()
        kd_idx = canonical_target_indices(spec, src_idx)
        corrupted = rng.random() < spec.mistake_rate
        if corrupted:
            if spec.mistake_kind == "repeat-token":
                pos = rng.randint(len(kd_idx))
                kd_idx = kd_idx[: pos + 1] + kd_idx[pos:]
            else:  # synonym-swap
                pos = rng.randint(len(kd_idx))
                other_mode = 1 + rng.randint(spec.num_modes - 1)
                group = kd_idx[pos] // spec.num_modes
                kd_idx = list(kd_idx)
                kd_idx[pos] = group * spec.num_modes + other_mode

        # Raw indices become vocab ids by skipping the two reserved slots.
        source: Sentence = tuple(i + 2 for i in src_idx)
        raw: Sentence = tuple(j + 2 for j in raw_idx)
        kd: Sentence = tuple(j + 2 for j in kd_idx)
        examples.append(TriExample(source=source, raw_target=raw, distilled_target=kd))
        modes.append(mode)
        mistakes.append(corrupted)

    corpus = Corpus(examples=tuple(examples), src_vocab=src_vocab, tgt_vocab=tgt_vocab)
    return SynthCorpus(spec=spec, corpus=corpus, modes=tuple(modes), mistakes=tuple(mistakes))


def oracle_report(sc: SynthCorpus) -> SynthReport:
    """Ground-truth summary for measuring selection precision/recall.

    An example "should be selected" when its raw target keeps the
    canonical structure: mode 0 or a synonym-only mode. Reversing modes
    should be replaced by their distilled version.
    """
    counts = [0] * sc.spec.num_modes
    for m in sc.modes:
        counts[m] += 1
    should = tuple(not sc.spec.is_reversing_mode(m) for m in sc.modes)
    return SynthReport(
        mode_counts=tuple(counts),
        mistake_count=sum(sc.mistakes),
        should_select=should,
        selectable_fraction=sum(should) / len(should),
    )


def write_sidecar(sc: SynthCorpus, path: str) -> None:
    """TSV sidecar: index, mode label, mistake flag."""
    write_lines(path, (f"{index}\t{mode}\t{int(mistake)}"
                       for index, (mode, mistake) in enumerate(zip(sc.modes, sc.mistakes))))


def read_sidecar(path: str) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Parse a ``write_sidecar`` file; a line without three fields of
    ASCII digits, or bytes that are not UTF-8, raise ``CorpusFormatError``
    naming ``path:line``."""
    rows = read_rows(path, (ascii_int, ascii_int, ascii_int), CorpusFormatError)
    return tuple(mode for _, mode, _ in rows), tuple(bool(mistake) for _, _, mistake in rows)
