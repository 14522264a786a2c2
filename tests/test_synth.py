import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selkd.cli import _ERROR_CODES, EXIT_FORMAT
from selkd.corpus import MAX_SENTENCE_LEN, CorpusFormatError
from selkd.rng import Rng
from selkd.synth import SynthConfigError, SynthTaskSpec, generate, oracle_report, read_sidecar, write_sidecar


def spec(**overrides):
    base = dict(
        source_vocab_size=8, target_vocab_size=12, len_min=3, len_max=6,
        num_modes=2, mode_probs=(0.5, 0.5), mistake_rate=0.0, seed=11,
    )
    base.update(overrides)
    return SynthTaskSpec(**base)


def test_rng_stream_is_stable():
    # Pin the portable generator so a refactor cannot silently change
    # every seeded corpus. Values re-derived independently from the
    # published splitmix64/xorshift64* constants.
    r = Rng(1)
    assert [r.next_u64() for _ in range(3)] == [
        5424204624148110235,
        15555979849632202484,
        6851360858507811590,
    ]
    r2 = Rng(1)
    assert 0.0 <= r2.random() < 1.0
    assert Rng(0).next_u64() != Rng(1).next_u64()


def test_rng_shuffle_and_randint_deterministic():
    r = Rng(5)
    xs = list(range(10))
    r.shuffle(xs)
    r2 = Rng(5)
    ys = list(range(10))
    r2.shuffle(ys)
    assert xs == ys
    assert sorted(xs) == list(range(10))
    assert all(0 <= Rng(9).randint(7) < 7 for _ in range(5))


def test_single_mode_no_noise_targets_match():
    sc = generate(spec(num_modes=1, mode_probs=(1.0,)), n=50)
    for ex in sc.corpus.examples:
        assert ex.raw_target == ex.distilled_target
    assert all(m == 0 for m in sc.modes)
    assert not any(sc.mistakes)


def test_same_seed_reproduces_exactly():
    a = generate(spec(mistake_rate=0.3), n=40)
    b = generate(spec(mistake_rate=0.3), n=40)
    assert a.corpus.examples == b.corpus.examples
    assert a.modes == b.modes and a.mistakes == b.mistakes
    c = generate(dataclasses.replace(spec(mistake_rate=0.3), seed=999), n=40)
    assert c.corpus.examples != a.corpus.examples


def test_mode_fraction_follows_distribution():
    sc = generate(spec(), n=10000)
    frac0 = sum(1 for m in sc.modes if m == 0) / len(sc.modes)
    assert abs(frac0 - 0.5) <= 0.02


def test_uniform_four_modes_binomial_bound():
    n = 8000
    sc = generate(spec(num_modes=4, mode_probs=(0.25,) * 4, target_vocab_size=16), n=n)
    report = oracle_report(sc)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for count in report.mode_counts:
        assert abs(count - n / 4) <= 3 * sigma


def test_repeat_token_mistakes_always_applied():
    sc = generate(spec(mistake_rate=1.0, mistake_kind="repeat-token"), n=60)
    for ex, mode in zip(sc.corpus.examples, sc.modes):
        assert len(ex.distilled_target) == len(ex.source) + 1
        assert any(a == b for a, b in zip(ex.distilled_target, ex.distilled_target[1:]))
    assert all(sc.mistakes)


@pytest.mark.parametrize("length,mistake_rate,kind,fits", [
    (MAX_SENTENCE_LEN, 1.0, "repeat-token", False),
    (MAX_SENTENCE_LEN + 1, 0.0, "repeat-token", False),
    (MAX_SENTENCE_LEN + 1, 0.5, "synonym-swap", False),
    (MAX_SENTENCE_LEN - 1, 1.0, "repeat-token", True),
    (MAX_SENTENCE_LEN, 0.0, "repeat-token", True),
    (MAX_SENTENCE_LEN, 1.0, "synonym-swap", True),
])
def test_spec_rejects_sentences_over_the_corpus_limit(length, mistake_rate, kind, fits):
    # every later stage rejects a line over the limit, so synth must not write one
    config = dict(len_min=length, len_max=length, mistake_rate=mistake_rate, mistake_kind=kind)
    if not fits:
        with pytest.raises(SynthConfigError, match=f"limit of {MAX_SENTENCE_LEN}"):
            spec(**config)
        return
    longest = max(len(s) for ex in generate(spec(**config), n=2).corpus.examples
                  for s in (ex.source, ex.raw_target, ex.distilled_target))
    assert longest == MAX_SENTENCE_LEN


def test_mistake_count_binomial_bound():
    sc = generate(spec(mistake_rate=0.1), n=1000)
    assert abs(oracle_report(sc).mistake_count - 100) <= 30


def test_synonym_swap_changes_one_token_within_group():
    sc = generate(spec(mistake_rate=1.0, mistake_kind="synonym-swap"), n=40)
    m = sc.spec.num_modes
    for ex in sc.corpus.examples:
        canonical = [((t - 2) % sc.spec.synonym_groups) * m + 2 for t in ex.source]
        assert len(ex.distilled_target) == len(ex.source)
        diffs = [j for j, (a, b) in enumerate(zip(canonical, ex.distilled_target)) if a != b]
        assert len(diffs) == 1
        j = diffs[0]
        # swapped token stays in the same synonym group
        assert (ex.distilled_target[j] - 2) // m == (canonical[j] - 2) // m


def test_reversing_modes_reverse():
    sc = generate(spec(num_modes=4, mode_probs=(0.25,) * 4, target_vocab_size=16, len_min=4, len_max=4), n=300)
    m = sc.spec.num_modes
    for ex, mode in zip(sc.corpus.examples, sc.modes):
        mapped = tuple((((t - 2) % sc.spec.synonym_groups) * m + mode) + 2 for t in ex.source)
        if sc.spec.is_reversing_mode(mode):
            assert ex.raw_target == tuple(reversed(mapped))
        else:
            assert ex.raw_target == mapped
    assert {m for m in sc.modes if sc.spec.is_reversing_mode(m)} == {2, 3}


def test_oracle_report_all_mode_zero():
    sc = generate(spec(num_modes=1, mode_probs=(1.0,)), n=20)
    report = oracle_report(sc)
    assert report.selectable_fraction == 1.0
    assert all(report.should_select)


def test_oracle_report_marks_reversing_unselectable():
    sc = generate(spec(num_modes=2), n=200)
    report = oracle_report(sc)
    for flag, mode in zip(report.should_select, sc.modes):
        assert flag == (mode == 0)


def test_sidecar_round_trip(tmp_path):
    sc = generate(spec(mistake_rate=0.5), n=25)
    path = tmp_path / "modes.tsv"
    write_sidecar(sc, str(path))
    modes, mistakes = read_sidecar(str(path))
    assert modes == sc.modes
    assert mistakes == sc.mistakes


@pytest.mark.parametrize("body,lineno", [
    (b"0\t1\t0\n1\t0\n", 2),
    (b"0\tx\t0\n", 1),
    (b"0\t1\t0\n1\t0\t0.5\n", 2),
    (b"0\t1\t0\n1\t\xff\t0\n", 2),
    (b"0\t+1\t0\n", 1),
    (b"0\t1\t0\n1\t\xd9\xa1\t0\n", 2),
    (b"0\t1\t0\n1_0\t1\t0\n", 2),
], ids=["two-columns", "non-integer-mode", "non-integer-mistake", "not-utf8", "signed-mode",
        "arabic-indic-mode", "underscore-index"])
def test_read_sidecar_rejects_malformed_line(tmp_path, body, lineno):
    path = tmp_path / "modes.tsv"
    path.write_bytes(body)
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:{lineno}: ") as info:
        read_sidecar(str(path))
    # the CLI reports it as a format error (exit 5)
    assert next(code for types, code in _ERROR_CODES if isinstance(info.value, types)) == EXIT_FORMAT


# Random bytes, or rows of random tab-separated fields: integers, signs,
# underscores, spaces, other scripts' digits, floats and any text.
_SIDECAR_FIELDS = st.one_of(st.integers(-3, 12).map(str), st.integers(10**30).map(str),
                            st.sampled_from(["", " 1", "+1", "1_0", "\u0663", "1.0", "0x1", "1e3"]),
                            st.text(max_size=3))
_SIDECAR_BYTES = st.binary(max_size=40) | st.lists(
    st.lists(_SIDECAR_FIELDS, max_size=4).map("\t".join), max_size=5).map(
    lambda lines: "".join(line + "\n" for line in lines).encode())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(body=_SIDECAR_BYTES)
def test_read_sidecar_raises_only_corpus_format_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("sidecar") / "modes.tsv"
    path.write_bytes(body)
    try:
        modes, mistakes = read_sidecar(str(path))
    except CorpusFormatError:
        return
    assert len(modes) == len(mistakes) and min(modes, default=0) >= 0


def test_spec_validation():
    with pytest.raises(SynthConfigError):
        spec(mode_probs=(0.7, 0.7))
    # NaN passes the sum check (``abs(nan - 1) > 1e-12`` is false) and the sign check
    with pytest.raises(SynthConfigError, match="finite"):
        spec(num_modes=4, mode_probs=(float("nan"), 0.5, 0.25, 0.25))
    with pytest.raises(SynthConfigError):
        spec(target_vocab_size=3)
    with pytest.raises(SynthConfigError):
        spec(len_min=0)
    with pytest.raises(SynthConfigError):
        spec(num_modes=1, mode_probs=(1.0,), mistake_kind="synonym-swap", mistake_rate=0.5)
    with pytest.raises(SynthConfigError):
        generate(spec(), n=0)
