#!/usr/bin/env python3
"""Sweep selection thresholds on a synthetic corpus and print, per
threshold, the raw ratio and the complexity (uncertainty / shift) of the
selected-raw, replaced-raw and mixed training views.

Trains a fresh evaluator; with the defaults it takes 5-6 s on a 2-core
x86 machine.

    python scripts/threshold_sweep.py [seed] [n]
"""

import sys

from selkd import synth
from selkd.align import em_train
from selkd.curriculum import raw_ratio
from selkd.metrics import (
    MetricsError,
    metric_report,
    view_raw,
    view_replaced_raw,
    view_selected_raw,
    view_training_mix,
)
from selkd.nat import ModelConfig, train
from selkd.scoring import score_corpus

THRESHOLDS = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.01]


def main(seed: int = 7, n: int = 4000) -> None:
    spec = synth.SynthTaskSpec(
        source_vocab_size=12, target_vocab_size=16, len_min=3, len_max=8,
        num_modes=4, mode_probs=(0.5, 0.17, 0.17, 0.16),
        mistake_rate=0.1, mistake_kind="repeat-token", seed=seed,
    )
    sc = synth.generate(spec, n=n)
    corpus = sc.corpus
    config = ModelConfig(embed_dim=16, hidden_dim=32, upsample=2, window=0,
                         learning_rate=0.25, epochs=3, batch_size=64, seed=seed)
    pairs = [(ex.source, ex.distilled_target) for ex in corpus.examples]
    print(f"training evaluator on {n} distilled pairs ...", file=sys.stderr)
    evaluator = train(pairs, config, corpus.src_vocab, corpus.tgt_vocab).model
    table = score_corpus(evaluator, corpus, variant="ctc")
    align_model = em_train(view_raw(corpus), iterations=5)

    print("threshold\traw_ratio\tview\tsentences\tuncertainty\tshift")
    for t in THRESHOLDS:
        ratio = raw_ratio(table, t)
        for label, view in (("selected", view_selected_raw(corpus, table, t)),
                            ("replaced", view_replaced_raw(corpus, table, t)),
                            ("mix", view_training_mix(corpus, table, t))):
            try:
                rep = metric_report(view, align_model, label)
                print(f"{t:.2f}\t{ratio:.3f}\t{label}\t{rep.sentences}"
                      f"\t{rep.uncertainty:.4f}\t{rep.shift:.4f}")
            except MetricsError:
                print(f"{t:.2f}\t{ratio:.3f}\t{label}\t0\t-\t-")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
