import numpy as np
import pytest

from selkd.corpus import BLANK_ID, Vocabulary
from selkd.nat import (
    CheckpointError,
    EmissionMatrix,
    ModelConfig,
    NatModel,
    TrainingError,
    batch_step,
    ctc_loss,
    decode_greedy,
    decode_positional,
    forward,
    load_checkpoint,
    min_frames,
    model_digest,
    save_checkpoint,
    sentence_loss_and_grads,
    serialize_model,
    train,
)

from conftest import random_lattice


def vocab_of(surfaces):
    v = Vocabulary()
    for s in surfaces:
        v.add(s)
    return v


@pytest.fixture
def tiny_model():
    src = vocab_of([f"s{i}" for i in range(6)])
    tgt = vocab_of([f"t{i}" for i in range(5)])
    cfg = ModelConfig(embed_dim=8, hidden_dim=12, upsample=2, window=1, seed=13)
    return NatModel.initialize(cfg, src, tgt), src, tgt


def test_forward_shape_and_normalization(tiny_model):
    model, _, tgt = tiny_model
    em = forward(model, (2, 3, 4))
    assert em.frames == 6
    assert em.log_probs.shape == (6, len(tgt))
    em.validate(tol=1e-9)


def test_forward_respects_custom_frame_count(tiny_model):
    model, _, _ = tiny_model
    em = forward(model, (2, 3, 4), frames=5)
    assert em.frames == 5
    em.validate()


def test_forward_is_deterministic(tiny_model):
    model, _, _ = tiny_model
    a = forward(model, (2, 3, 4, 5)).log_probs
    b = forward(model, (2, 3, 4, 5)).log_probs
    np.testing.assert_array_equal(a, b)


def test_frames_outside_window_ignore_distant_tokens(tiny_model):
    # Frame 0 with window 1 reads source positions {0, 1}; editing
    # positions >= 2 must leave its row bit-identical.
    model, _, _ = tiny_model
    x1 = (2, 3, 4, 5, 6, 7)
    x2 = (2, 3, 7, 6, 5, 4)
    a = forward(model, x1).log_probs
    b = forward(model, x2).log_probs
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])  # frame 1 also reads {0, 1}


def test_unknown_source_ids_fall_back_to_unk(tiny_model):
    model, _, _ = tiny_model
    a = forward(model, (2, 999)).log_probs
    b = forward(model, (2, 1)).log_probs
    np.testing.assert_array_equal(a, b)


def test_decode_greedy_collapse_rule():
    a, b = 1, 2
    rows = np.full((4, 3), -10.0)
    for t, tok in enumerate((a, a, BLANK_ID, b)):
        rows[t, tok] = 0.0
    res = decode_greedy(rows)
    assert res.path.frames == (a, a, BLANK_ID, b)
    assert res.output == (a, b)
    assert not res.is_empty


def test_decode_greedy_all_blank_flags_empty():
    rows = np.full((3, 3), -10.0)
    rows[:, BLANK_ID] = 0.0
    res = decode_greedy(rows)
    assert res.output == ()
    assert res.is_empty


def test_decode_greedy_matches_recomputed_argmax(np_rng):
    e = random_lattice(np_rng, 9, 5)
    res = decode_greedy(e)
    expect = tuple(int(np.argmax(e[t])) for t in range(9))
    assert res.path.frames == expect
    from selkd.nat import collapse

    assert res.output == collapse(expect)


def test_decode_positional_never_emits_blank(tiny_model):
    model, _, _ = tiny_model
    out = decode_positional(model, (2, 3, 4), 3)
    assert len(out) == 3
    assert BLANK_ID not in out


def test_train_memorizes_single_pair():
    src = vocab_of(["s0", "s1"])
    tgt = vocab_of(["t0", "t1"])
    cfg = ModelConfig(embed_dim=8, hidden_dim=16, upsample=2, window=1,
                      learning_rate=0.5, epochs=200, batch_size=1, seed=1)
    pairs = [((2, 3, 2), (3, 2))]
    result = train(pairs, cfg, src, tgt)
    assert result.epoch_losses[-1] < 0.01
    out = decode_greedy(forward(result.model, pairs[0][0]))
    assert out.output == pairs[0][1]


def test_train_is_bit_deterministic():
    src = vocab_of([f"s{i}" for i in range(4)])
    tgt = vocab_of([f"t{i}" for i in range(4)])
    pairs = [((2, 3), (2, 3)), ((3, 2), (3, 2)), ((4, 5), (4, 5))]
    cfg = ModelConfig(embed_dim=6, hidden_dim=8, epochs=4, batch_size=2, seed=42)
    r1 = train(pairs, cfg, src, tgt)
    r2 = train(pairs, cfg, src, tgt)
    for name in r1.model.params:
        np.testing.assert_array_equal(r1.model.params[name], r2.model.params[name])
    assert r1.epoch_losses == r2.epoch_losses


def test_train_skips_infeasible_pairs_and_counts():
    src = vocab_of(["s0"])
    tgt = vocab_of(["t0", "t1", "t2", "t3"])
    # one feasible pair, one whose target needs more frames than 2*|X|
    pairs = [((2,), (2,)), ((2,), (2, 3, 4, 5))]
    cfg = ModelConfig(embed_dim=4, hidden_dim=4, epochs=2, batch_size=2, seed=0)
    result = train(pairs, cfg, src, tgt)
    assert result.skipped == 2  # once per epoch


def test_train_all_infeasible_raises():
    src = vocab_of(["s0"])
    tgt = vocab_of(["t0", "t1", "t2"])
    pairs = [((2,), (2, 3, 4))]
    cfg = ModelConfig(embed_dim=4, hidden_dim=4, epochs=1, batch_size=1, seed=0)
    with pytest.raises(TrainingError):
        train(pairs, cfg, src, tgt)


def test_train_snapshot_taken_at_requested_update():
    src = vocab_of([f"s{i}" for i in range(4)])
    tgt = vocab_of([f"t{i}" for i in range(4)])
    pairs = [((2, 3), (2, 3)), ((3, 2), (3, 2))]
    cfg = ModelConfig(embed_dim=6, hidden_dim=8, epochs=6, batch_size=1, seed=1)
    result = train(pairs, cfg, src, tgt, snapshot_at=2)
    assert result.snapshot is not None
    assert any(
        not np.array_equal(result.snapshot.params[n], result.model.params[n])
        for n in result.model.params
    )


def test_batch_step_update_matches_finite_differences():
    # One update at learning rate 1 with clipping off moves every parameter
    # by minus the gradient of the mean CTC loss over the feasible pairs.
    src = vocab_of([f"s{i}" for i in range(4)])
    tgt = vocab_of([f"t{i}" for i in range(4)])
    cfg = ModelConfig(embed_dim=3, hidden_dim=4, upsample=2, window=1, seed=5)
    model = NatModel.initialize(cfg, src, tgt)
    batch = [
        ((2, 2, 3), (2, 3, 3)),  # repeated source token, repeated target token
        ((4,), (2, 3, 4)),  # infeasible: 3 tokens on 2 frames
        ((5, 99, 2, 3), (4, 5, 2)),  # 99 is out of vocabulary
        ((3, 4), (5,)),
    ]
    feasible = [(s, t) for s, t in batch if min_frames(t) <= cfg.upsample * len(s)]
    assert len(feasible) == 3

    def mean_loss():
        return sum(ctc_loss(forward(model, s), t) for s, t in feasible) / len(feasible)

    updated = model.copy()
    loss, skipped = batch_step(updated, batch, learning_rate=1.0, clip_norm=np.inf)
    assert skipped == 1
    assert loss == pytest.approx(mean_loss(), rel=1e-12)
    # The grouped update sums the same terms as a per-pair loop, in
    # another order.
    per_pair = [sentence_loss_and_grads(model, s, t)[1] for s, t in feasible]
    for name, value in model.params.items():
        reference = sum(g[name] for g in per_pair) / len(feasible)
        np.testing.assert_allclose(value - updated.params[name], reference, rtol=1e-12, atol=1e-14,
                                   err_msg=name)
    step = 1e-6
    for name, value in model.params.items():
        fd = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            orig = value[idx]
            value[idx] = orig + step
            plus = mean_loss()
            value[idx] = orig - step
            minus = mean_loss()
            value[idx] = orig
            fd[idx] = (plus - minus) / (2 * step)
        np.testing.assert_allclose(value - updated.params[name], fd, rtol=1e-5, atol=1e-8,
                                   err_msg=name)


def test_checkpoint_round_trip(tiny_model, tmp_path):
    model, src, tgt = tiny_model
    path = tmp_path / "ckpt.txt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path), src, tgt)
    assert loaded.config == model.config
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    assert serialize_model(loaded) == serialize_model(model)
    assert model_digest(loaded) == model_digest(model)


def test_checkpoint_rejects_vocab_mismatch(tiny_model, tmp_path):
    model, src, tgt = tiny_model
    path = tmp_path / "ckpt.txt"
    save_checkpoint(model, str(path))
    other = vocab_of(["completely", "different"])
    with pytest.raises(CheckpointError, match="vocabulary"):
        load_checkpoint(str(path), other, tgt)
    with pytest.raises(CheckpointError, match="vocabulary"):
        load_checkpoint(str(path), src, other)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_parameter(tiny_model, tmp_path, value):
    # A NaN emission would break the Viterbi pass's first-maximum rule.
    model, src, tgt = tiny_model
    broken = model.copy()
    broken.params["w_out"][0, 0] = value
    path = tmp_path / "ckpt.txt"
    save_checkpoint(broken, str(path))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(str(path), src, tgt)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_emission_matrix_validate_catches_bad_rows():
    bad = EmissionMatrix(log_probs=np.zeros((2, 3)), source_len=1)
    with pytest.raises(ValueError):
        bad.validate()


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(upsample=1)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(learning_rate=0.0)
