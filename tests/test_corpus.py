import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert ex.index == 0


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


def test_overlong_line_rejected(tmp_path):
    long_line = " ".join(["tok"] * (MAX_SENTENCE_LEN + 1)) + "\n"
    paths = corpus_files(tmp_path, long_line, "x\n", "x\n")
    with pytest.raises(CorpusFormatError, match="1024"):
        load_corpus(*paths)


def test_reserved_surface_rejected(tmp_path):
    paths = corpus_files(tmp_path, "a <blank>\n", "x\n", "x\n")
    with pytest.raises(CorpusFormatError, match="<blank>"):
        load_corpus(*paths)


def test_round_trip_is_byte_identical(tmp_path):
    src = "a b c\nd e\nf a\n"
    raw = "x y\nz z q\nw\n"
    kd = "x y\nz q q\nw\n"
    c = load_corpus(*corpus_files(tmp_path, src, raw, kd))
    out_src = tmp_path / "out_src.txt"
    out_raw = tmp_path / "out_raw.txt"
    out_kd = tmp_path / "out_kd.txt"
    write_bitext(c, "source", str(out_src))
    write_bitext(c, "raw", str(out_raw))
    write_bitext(c, "distilled", str(out_kd))
    assert out_src.read_text() == src
    assert out_raw.read_text() == raw
    assert out_kd.read_text() == kd
    # reload reproduces the structure exactly
    c2 = load_corpus(str(out_src), str(out_raw), str(out_kd))
    assert [e.source for e in c2.examples] == [e.source for e in c.examples]
    assert [e.raw_target for e in c2.examples] == [e.raw_target for e in c.examples]


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
