"""Tokenized parallel corpora with raw and distilled target sides.

File format: UTF-8 text, LF line endings, one sentence per line, tokens
separated by single spaces. A training unit joins one line from each of
three parallel files: source, raw target, distilled target. Tokens are
opaque strings; any upstream segmentation (words, subwords) passes
through unchanged.

Corpora are immutable after construction and safe to share across
threads without coordination.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

BLANK_ID = 0
UNK_ID = 1
RESERVED_SURFACES = ("<blank>", "<unk>")

# Longer lines are rejected at load time; silent truncation would corrupt
# downstream scores.
MAX_SENTENCE_LEN = 1024

Sentence = tuple[int, ...]


class CorpusFormatError(ValueError):
    """Structural problem in a bitext file (counts, empty lines, length)."""


class VocabularyMismatchError(ValueError):
    """Token ids and vocabulary disagree."""


class Vocabulary:
    """Bijective surface/id map with two reserved ids.

    Id 0 is the CTC blank, id 1 the unknown token; real surfaces start at
    id 2 and are assigned in first-occurrence order, which makes loads
    reproducible.
    """

    __slots__ = ("_surfaces", "_ids")

    def __init__(self):
        self._surfaces: list[str] = list(RESERVED_SURFACES)
        self._ids: dict[str, int] = {s: i for i, s in enumerate(self._surfaces)}

    def __len__(self) -> int:
        return len(self._surfaces)

    def add(self, surface: str) -> int:
        """Register a surface (idempotent) and return its id."""
        tid = self._ids.get(surface)
        if tid is None:
            tid = len(self._surfaces)
            self._ids[surface] = tid
            self._surfaces.append(surface)
        return tid

    def id_of(self, surface: str) -> int:
        """Id for a surface, UNK_ID when unseen."""
        return self._ids.get(surface, UNK_ID)

    def surface_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._surfaces):
            raise VocabularyMismatchError(f"token id {token_id} outside vocabulary of size {len(self._surfaces)}")
        return self._surfaces[token_id]

    def encode(self, tokens: list[str]) -> Sentence:
        return tuple(self.id_of(t) for t in tokens)

    def decode(self, sentence: Sentence) -> list[str]:
        return [self.surface_of(t) for t in sentence]

    def content_hash(self) -> str:
        """sha256 over the id-ordered surface list; identifies the vocabulary."""
        payload = "\n".join(self._surfaces).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class TriExample:
    """One training unit: source, raw target, distilled target."""

    index: int
    source: Sentence
    raw_target: Sentence
    distilled_target: Sentence


@dataclass(frozen=True)
class Corpus:
    examples: tuple[TriExample, ...]
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary

    def __len__(self) -> int:
        return len(self.examples)

    def side(self, selector: str) -> list[Sentence]:
        if selector == "source":
            return [ex.source for ex in self.examples]
        if selector == "raw":
            return [ex.raw_target for ex in self.examples]
        if selector == "distilled":
            return [ex.distilled_target for ex in self.examples]
        raise ValueError(f"unknown side selector {selector!r}; expected source/raw/distilled")


def _read_token_lines(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().split("\n")
    # A trailing newline produces one final empty chunk; drop it.
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    out = []
    for lineno, line in enumerate(raw_lines, start=1):
        tokens = line.split()
        if not tokens:
            raise CorpusFormatError(f"{path}:{lineno}: empty line")
        if len(tokens) > MAX_SENTENCE_LEN:
            raise CorpusFormatError(
                f"{path}:{lineno}: sentence has {len(tokens)} tokens, limit is {MAX_SENTENCE_LEN}"
            )
        for t in tokens:
            if t in RESERVED_SURFACES:
                raise CorpusFormatError(f"{path}:{lineno}: reserved surface {t!r} may not appear in a corpus")
        out.append(tokens)
    return out


def load_corpus(src_path: str, raw_path: str, kd_path: str) -> Corpus:
    """Load three parallel files into a Corpus.

    Vocabularies are built from the files in reading order (source file,
    then raw target file, then distilled target file), so id assignment is
    reproducible.
    """
    src_lines = _read_token_lines(src_path)
    raw_lines = _read_token_lines(raw_path)
    kd_lines = _read_token_lines(kd_path)
    counts = {src_path: len(src_lines), raw_path: len(raw_lines), kd_path: len(kd_lines)}
    if len(set(counts.values())) != 1:
        detail = ", ".join(f"{p}: {n} lines" for p, n in counts.items())
        raise CorpusFormatError(f"line-count mismatch across parallel files ({detail})")

    src_vocab = Vocabulary()
    tgt_vocab = Vocabulary()
    for tokens in src_lines:
        for t in tokens:
            src_vocab.add(t)
    for tokens in raw_lines:
        for t in tokens:
            tgt_vocab.add(t)
    for tokens in kd_lines:
        for t in tokens:
            tgt_vocab.add(t)

    examples = tuple(
        TriExample(
            index=i,
            source=tuple(src_vocab.id_of(t) for t in src_lines[i]),
            raw_target=tuple(tgt_vocab.id_of(t) for t in raw_lines[i]),
            distilled_target=tuple(tgt_vocab.id_of(t) for t in kd_lines[i]),
        )
        for i in range(len(src_lines))
    )
    return Corpus(examples=examples, src_vocab=src_vocab, tgt_vocab=tgt_vocab)


def write_bitext(corpus: Corpus, side: str, path: str) -> None:
    """Write one side of the corpus, one sentence per line, LF endings."""
    vocab = corpus.src_vocab if side == "source" else corpus.tgt_vocab
    sentences = corpus.side(side)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sent in sentences:
            fh.write(" ".join(vocab.decode(sent)))
            fh.write("\n")


def write_sentences(sentences: list[Sentence], vocab: Vocabulary, path: str) -> None:
    """Write arbitrary sentences (e.g. a selected target side) as bitext."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sent in sentences:
            fh.write(" ".join(vocab.decode(sent)))
            fh.write("\n")
