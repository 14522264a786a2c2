import numpy as np
import pytest

from selkd import synth
from selkd.align import shape_blocks
from selkd.corpus import Corpus, TriExample, Vocabulary
from selkd.metrics import _block_stats
from selkd.nat import PARAM_NAMES, ModelConfig, train


def random_lattice(rng: np.random.Generator, n_frames: int, vocab: int) -> np.ndarray:
    """Row-normalized random log-probability lattice."""
    m = rng.normal(size=(n_frames, vocab))
    return m - np.log(np.exp(m).sum(axis=1, keepdims=True))


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240811)


def make_corpus(rows: list[tuple[str, str, str]]) -> Corpus:
    """Corpus from (source, raw, distilled) whitespace strings."""
    src_vocab, tgt_vocab = Vocabulary(), Vocabulary()
    examples = []
    for s, r, k in rows:
        src = tuple(src_vocab.add(t) for t in s.split())
        raw = tuple(tgt_vocab.add(t) for t in r.split())
        kd = tuple(tgt_vocab.add(t) for t in k.split())
        examples.append(TriExample(source=src, raw_target=raw, distilled_target=kd))
    return Corpus(examples=tuple(examples), src_vocab=src_vocab, tgt_vocab=tgt_vocab)


def assert_flat_layout(model) -> None:
    """Each of the model's parameters is a view into ``model.flat``, and
    the views tile that float64 vector in ``PARAM_NAMES`` order."""
    flat = model.flat
    assert flat.dtype == np.float64 and flat.flags.owndata
    assert list(model.params) == list(PARAM_NAMES)
    offset = 0
    for name, p in model.params.items():
        assert p.base is flat and p.flags.c_contiguous and np.shares_memory(p, flat), name
        assert p.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
        offset += p.size
    assert offset == flat.size


def stats_of_links(bitext: list, links: list) -> list:
    """The ``PairStats`` records of ``bitext`` under hand-made ``links``, one
    tuple per pair: each ``shape_blocks`` block's links, stacked, go through
    the record builder that ``metrics.pair_stats`` runs on aligned blocks."""
    out = [None] * len(bitext)
    for members, _, tgt in shape_blocks(bitext):
        block = np.array([links[k] for k in members], dtype=np.intp)
        for k, stats in zip(members, _block_stats(bitext, members, tgt, block)):
            out[k] = stats
    return out


def unzip_view(items: list) -> tuple[list, list]:
    """The pairs and the links of a ``threshold_views`` view whose items
    are (pair, links) tuples."""
    return [pair for pair, _ in items], [links for _, links in items]


SINGLE_MODE_SPEC = synth.SynthTaskSpec(
    source_vocab_size=6, target_vocab_size=8, len_min=3, len_max=5,
    num_modes=1, mode_probs=(1.0,), mistake_rate=0.0, seed=7,
)


@pytest.fixture(scope="session")
def memorized_setup():
    """A tiny single-mode corpus and a model trained to memorize it.

    Session-scoped: several scoring/selection tests reuse it. window=0
    keeps the token map trivially learnable so memorization is total.
    """
    sc = synth.generate(SINGLE_MODE_SPEC, n=24)
    corpus = sc.corpus
    config = ModelConfig(embed_dim=12, hidden_dim=24, upsample=2, window=0,
                         learning_rate=0.4, epochs=120, batch_size=8, clip_norm=5.0, seed=3)
    pairs = [(ex.source, ex.distilled_target) for ex in corpus.examples]
    result = train(pairs, config, corpus.src_vocab, corpus.tgt_vocab)
    return corpus, result
