"""Tokenized parallel corpora, and the one text-file layout of every
selkd artifact: ``write_lines``, ``read_lines`` and ``read_rows`` (or
``read_utf8`` for a manifest) write and read UTF-8, one record per line,
each ended by LF. On reading, CR and CRLF also end a line, and bytes
that are not UTF-8 raise the caller's error naming ``path:line``.

Bitext format: one sentence per line, tokens separated by single
spaces. A training unit joins one line from each of three parallel
files: source, raw target, distilled target. Tokens are opaque strings;
any upstream segmentation (words, subwords) passes through unchanged.
On reading, the file's bytes are split, so only the ASCII whitespace
``str.split()`` uses separates tokens, and a U+00A0 or other Unicode
space stays inside its token.

``load_corpus`` reads the source file, then the raw target file, then
the distilled target file, and turns each line into ids as it reads it:
the file must be valid UTF-8, every line is checked (not empty, at most
``MAX_SENTENCE_LEN`` tokens, no reserved surface), and its tokens get
their ids in the same step, through a dict from token bytes to ids, so
only a surface new to the file is decoded and registered in the side's
vocabulary. So only one file's bytes and lines and the ids are held at
a time, never every token string of the corpus.

Corpora are immutable after construction and safe to share across
threads without coordination.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

BLANK_ID = 0
UNK_ID = 1
RESERVED_SURFACES = ("<blank>", "<unk>")

# Longer lines are rejected at load time; silent truncation would corrupt
# downstream scores.
MAX_SENTENCE_LEN = 1024

# A token is a run of anything but the ASCII whitespace ``str.split()``
# splits on; ``str.split()`` itself would also split on U+00A0, U+3000 etc.
# ``bytes.split()`` splits on that ASCII whitespace but for \x1c-\x1f,
# which this table turns into spaces first. No byte of a multibyte UTF-8
# character is ASCII, so a split of the bytes is a split of the text.
_SEPARATORS = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")

Sentence = tuple[int, ...]
Bitext = list[tuple[Sentence, Sentence]]


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

    def pairs(self, side: str) -> Bitext:
        """(source, target) of every example, in corpus order, the target
        taken from ``side`` ("raw" or "distilled")."""
        return list(zip(self.side("source"), self.side(side)))


def _decode_utf8(path: str, data: bytes, error: type[ValueError]) -> str:
    """``data``, the bytes of ``path``, decoded; bytes that are not UTF-8
    raise ``error`` naming ``path:line``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not valid UTF-8 ({exc})") from exc


def read_utf8(path: str, error: type[ValueError]) -> str:
    """The whole text of ``path``, CRLF and CR read as LF; bytes that are
    not UTF-8 raise ``error`` naming ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode_utf8(path, data, error).replace("\r\n", "\n").replace("\r", "\n")


def read_lines(path: str, error: type[ValueError]) -> list[str]:
    """The lines of ``path`` without their ends; bytes that are not UTF-8
    raise ``error`` naming ``path:line``."""
    lines = read_utf8(path, error).split("\n")
    # A trailing newline produces one final empty chunk; drop it.
    if lines[-1] == "":
        lines.pop()
    return lines


def ascii_int(text: str) -> int:
    """``text`` as a nonnegative integer if it holds ASCII digits only;
    ``int`` would also take a sign, an underscore, surrounding whitespace
    and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a nonnegative integer in ASCII digits")
    return int(text)


def read_rows(path: str, types: tuple, error: type[ValueError]) -> list[tuple]:
    """Each line of ``path`` as exactly ``len(types)`` tab-separated fields,
    each converted by its type; a wrong field count or a ``ValueError``
    from a conversion raises ``error`` naming ``path:line``."""
    rows = []
    for lineno, line in enumerate(read_lines(path, error), start=1):
        fields = line.split("\t")
        if len(fields) != len(types):
            raise error(f"{path}:{lineno}: expected {len(types)} columns, got {len(fields)}")
        try:
            rows.append(tuple(convert(field) for convert, field in zip(types, fields)))
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_lines(path: str, lines) -> None:
    """Write each of ``lines`` followed by LF, in UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _read_ids(path: str, vocab: Vocabulary) -> list[Sentence]:
    """Each line of ``path`` as a sentence of ids, in one pass over the
    file's bytes: a line's tokens are checked and turned into ids as it
    is read, through a dict from token bytes to id, so only a surface new
    to this file is decoded and registered in ``vocab``."""
    with open(path, "rb") as fh:
        data = fh.read()
    _decode_utf8(path, data, CorpusFormatError)  # the whole file must be UTF-8
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").translate(_SEPARATORS).split(b"\n")
    # A trailing newline produces one final empty chunk; drop it.
    if lines[-1] == b"":
        lines.pop()
    ids_of: dict[bytes, int] = {}
    new = itertools.repeat(-1)  # the id ``ids_of`` gives a surface it does not hold yet
    sentences = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise CorpusFormatError(f"{path}:{lineno}: empty line")
        if len(tokens) > MAX_SENTENCE_LEN:
            raise CorpusFormatError(
                f"{path}:{lineno}: sentence has {len(tokens)} tokens, limit is {MAX_SENTENCE_LEN}"
            )
        ids = tuple(map(ids_of.get, tokens, new))
        if min(ids) < len(RESERVED_SURFACES):  # a new surface, or a reserved one
            for token in tokens:
                if token not in ids_of:
                    ids_of[token] = vocab.add(token.decode("utf-8"))
            ids = tuple(map(ids_of.__getitem__, tokens))
            if min(ids) < len(RESERVED_SURFACES):  # a reserved surface maps to its reserved id
                surface = next(t for t, i in zip(tokens, ids) if i < len(RESERVED_SURFACES)).decode()
                raise CorpusFormatError(f"{path}:{lineno}: reserved surface {surface!r} may not appear in a corpus")
        sentences.append(ids)
    return sentences


def load_corpus(src_path: str, raw_path: str, kd_path: str) -> Corpus:
    """Load three parallel files into a Corpus.

    The files are read in order (source, raw target, distilled target),
    each line turned into ids as it is read, so ids are assigned in
    first-occurrence order over that reading order and are reproducible.
    """
    src_vocab = Vocabulary()
    tgt_vocab = Vocabulary()
    sources = _read_ids(src_path, src_vocab)
    raws = _read_ids(raw_path, tgt_vocab)
    kds = _read_ids(kd_path, tgt_vocab)
    counts = {src_path: len(sources), raw_path: len(raws), kd_path: len(kds)}
    if len(set(counts.values())) != 1:
        detail = ", ".join(f"{p}: {n} lines" for p, n in counts.items())
        raise CorpusFormatError(f"line-count mismatch across parallel files ({detail})")
    examples = tuple(map(TriExample, sources, raws, kds))
    return Corpus(examples=examples, src_vocab=src_vocab, tgt_vocab=tgt_vocab)


def write_bitext(corpus: Corpus, side: str, path: str) -> None:
    """Write one side of the corpus, one sentence per line."""
    vocab = corpus.src_vocab if side == "source" else corpus.tgt_vocab
    write_lines(path, (" ".join(vocab.decode(sent)) for sent in corpus.side(side)))


def write_sentences(sentences: list[Sentence], vocab: Vocabulary, path: str) -> None:
    """Write arbitrary sentences (e.g. a selected target side) as bitext."""
    write_lines(path, (" ".join(vocab.decode(sent)) for sent in sentences))
