import os
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selkd import synth
from selkd.corpus import (
    BLANK_ID,
    MAX_SENTENCE_LEN,
    UNK_ID,
    CorpusFormatError,
    Vocabulary,
    load_corpus,
    write_bitext,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def corpus_files(tmp_path, src, raw, kd):
    return (
        write(tmp_path / "src.txt", src),
        write(tmp_path / "raw.txt", raw),
        write(tmp_path / "kd.txt", kd),
    )


def test_single_line_identical_targets(tmp_path):
    c = load_corpus(*corpus_files(tmp_path, "a b\n", "c d\n", "c d\n"))
    assert len(c) == 1
    ex = c.examples[0]
    assert ex.raw_target == ex.distilled_target
    assert c.pairs("raw") == c.pairs("distilled") == [(ex.source, ex.raw_target)]


def test_line_count_mismatch_names_files(tmp_path):
    paths = corpus_files(tmp_path, "a\nb\n", "x\ny\nz\n", "x\ny\nz\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(*paths)
    msg = str(err.value)
    assert "src.txt" in msg and "raw.txt" in msg
    assert "2" in msg and "3" in msg


def test_empty_line_reports_line_number(tmp_path):
    paths = corpus_files(tmp_path, "a\n\nb\n", "x\ny\nz\n", "x\ny\nz\n")
    with pytest.raises(CorpusFormatError, match=":2"):
        load_corpus(*paths)
    # in the raw or the distilled file, the error names that file
    for bad in (1, 2):
        texts = ["a\nb\nc\n", "x\ny\nz\n", "x\ny\nz\n"]
        texts[bad] = "x\ny\n\n"
        paths = corpus_files(tmp_path, *texts)
        with pytest.raises(CorpusFormatError, match=re.escape(f"{paths[bad]}:3: empty line")):
            load_corpus(*paths)


def test_overlong_line_rejected(tmp_path):
    long_line = " ".join(["tok"] * (MAX_SENTENCE_LEN + 1)) + "\n"
    paths = corpus_files(tmp_path, long_line, "x\n", "x\n")
    with pytest.raises(CorpusFormatError, match="1024"):
        load_corpus(*paths)


def test_reserved_surface_rejected(tmp_path):
    paths = corpus_files(tmp_path, "a <blank>\n", "x\n", "x\n")
    with pytest.raises(CorpusFormatError, match="<blank>"):
        load_corpus(*paths)
    # in the raw or the distilled file, the error names that file and line
    for bad in (1, 2):
        texts = ["a\nb\n", "x\ny\n", "x\ny\n"]
        texts[bad] = "x\ny <unk> z\n"
        paths = corpus_files(tmp_path, *texts)
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{paths[bad]}:2: reserved surface '<unk>'")):
            load_corpus(*paths)


def test_target_ids_follow_file_order(tmp_path):
    # The raw file is read before the distilled one: "k", first seen in
    # the distilled file, gets its id after "z", which the raw file only
    # shows on its second line, and "x" and "y" keep their raw ids.
    c = load_corpus(*corpus_files(tmp_path, "s t\ns\n", "x y\nz\n", "k y\nx k\n"))
    assert [c.tgt_vocab.id_of(t) for t in ("x", "y", "z", "k")] == [2, 3, 4, 5]
    assert [ex.raw_target for ex in c.examples] == [(2, 3), (4,)]
    assert [ex.distilled_target for ex in c.examples] == [(5, 3), (2, 5)]
    assert [ex.source for ex in c.examples] == [(2, 3), (2,)]


def test_only_ascii_whitespace_separates_tokens(tmp_path):
    # Every ASCII character str.split() splits on separates tokens, also in
    # a file that holds other characters; Unicode spaces stay in their token.
    src = "a\tb\x0bc\x0cd\x1ce\x1df\x1eg\x1fh  i\r\n"
    raw = "x\u00a0y\tz\u3000w\u2028v\x1fq\n"
    c = load_corpus(*corpus_files(tmp_path, src, raw, "q\n"))
    assert c.src_vocab.decode(c.examples[0].source) == list("abcdefghi")
    assert c.tgt_vocab.decode(c.examples[0].raw_target) == ["x\u00a0y", "z\u3000w\u2028v", "q"]


def test_round_trip_is_byte_identical(tmp_path):
    src = "a b c\nd e\nf a\n"
    raw = "x y\nz z q\nw 10\u00a0000\n"  # a no-break space stays inside its token
    kd = "x y\nz q q\nw\n"
    c = load_corpus(*corpus_files(tmp_path, src, raw, kd))
    out_src = tmp_path / "out_src.txt"
    out_raw = tmp_path / "out_raw.txt"
    out_kd = tmp_path / "out_kd.txt"
    write_bitext(c, "source", str(out_src))
    write_bitext(c, "raw", str(out_raw))
    write_bitext(c, "distilled", str(out_kd))
    assert out_src.read_text(encoding="utf-8") == src
    assert out_raw.read_text(encoding="utf-8") == raw
    assert out_kd.read_text(encoding="utf-8") == kd
    # reload reproduces the structure exactly
    c2 = load_corpus(str(out_src), str(out_raw), str(out_kd))
    assert [e.source for e in c2.examples] == [e.source for e in c.examples]
    assert [e.raw_target for e in c2.examples] == [e.raw_target for e in c.examples]


def test_load_holds_one_file_text_beyond_what_it_returns(tmp_path):
    """Loading keeps at most one file's text beyond the corpus it
    returns: each line becomes ids as it is read, so the token strings of
    the three files are never held at once."""
    spec = synth.SynthTaskSpec(source_vocab_size=12, target_vocab_size=16, len_min=8, len_max=48,
                               num_modes=4, mode_probs=(0.25,) * 4, mistake_rate=0.1, seed=7)
    generated = synth.generate(spec, n=1600).corpus
    paths = [str(tmp_path / f"{side}.txt") for side in ("source", "raw", "distilled")]
    for side, path in zip(("source", "raw", "distilled"), paths):
        write_bitext(generated, side, path)
    text_bytes = max(os.path.getsize(p) for p in paths)
    tracemalloc.start()
    try:
        c = load_corpus(*paths)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(c) == len(generated)
    # A file's text is held twice while it is read, as one string and as
    # its lines; a third copy covers the per-line object headers.
    assert peak < returned + 3 * text_bytes


def test_write_source_side(tmp_path):
    c = load_corpus(*corpus_files(tmp_path, "a b\n", "c\n", "c\n"))
    out = tmp_path / "side.txt"
    write_bitext(c, "source", str(out))
    assert out.read_text() == "a b\n"


def test_empty_corpus_round_trips(tmp_path):
    c = load_corpus(*corpus_files(tmp_path, "", "", ""))
    assert len(c) == 0
    out = tmp_path / "empty.txt"
    write_bitext(c, "raw", str(out))
    assert out.read_text() == ""


def test_unknown_side_selector(tmp_path):
    c = load_corpus(*corpus_files(tmp_path, "a\n", "b\n", "b\n"))
    with pytest.raises(ValueError, match="side selector"):
        c.side("nonsense")


def test_vocab_reserved_ids():
    v = Vocabulary()
    assert v.surface_of(BLANK_ID) == "<blank>"
    assert v.surface_of(UNK_ID) == "<unk>"
    assert v.add("cat") == 2
    assert v.add("cat") == 2
    assert v.id_of("never-seen") == UNK_ID


token = st.text(alphabet="abcdefg", min_size=1, max_size=4)


@given(st.lists(token, min_size=1, max_size=30, unique=True))
def test_vocab_bijective_over_added_surfaces(surfaces):
    v = Vocabulary()
    ids = [v.add(s) for s in surfaces]
    assert len(set(ids)) == len(ids)
    for s, i in zip(surfaces, ids):
        assert v.id_of(s) == i
        assert v.surface_of(i) == s
        assert v.id_of(v.surface_of(i)) == i


@given(st.lists(token, min_size=1, max_size=20))
def test_vocab_first_occurrence_order(surfaces):
    v1, v2 = Vocabulary(), Vocabulary()
    for s in surfaces:
        v1.add(s)
    for s in surfaces:
        v2.add(s)
    assert v1.content_hash() == v2.content_hash()
