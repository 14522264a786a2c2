import numpy as np
import pytest

from selkd import synth
from selkd.corpus import Corpus, TriExample, Vocabulary
from selkd.nat import ModelConfig, train


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
