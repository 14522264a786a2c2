import hashlib

import numpy as np
import pytest

from selkd import nat, synth
from selkd.corpus import BLANK_ID, Vocabulary
from selkd.nat import (
    CheckpointError,
    ModelConfig,
    NatModel,
    PairTable,
    TrainingError,
    batch_step,
    decode_greedy,
    decode_positional,
    forward,
    load_checkpoint,
    min_frames,
    model_digest,
    save_checkpoint,
    serialize_model,
    train,
)

from conftest import random_lattice
from oracles import ctc_loss, sentence_loss_and_grads, validate_emissions


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
    assert em.shape == (6, len(tgt))
    validate_emissions(em, tol=1e-9)


def test_forward_is_deterministic(tiny_model):
    model, _, _ = tiny_model
    a = forward(model, (2, 3, 4, 5))
    b = forward(model, (2, 3, 4, 5))
    np.testing.assert_array_equal(a, b)


def test_frames_outside_window_ignore_distant_tokens(tiny_model):
    # Frame 0 with window 1 reads source positions {0, 1}; editing
    # positions >= 2 must leave its row bit-identical.
    model, _, _ = tiny_model
    x1 = (2, 3, 4, 5, 6, 7)
    x2 = (2, 3, 7, 6, 5, 4)
    a = forward(model, x1)
    b = forward(model, x2)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])  # frame 1 also reads {0, 1}


def test_unknown_source_ids_fall_back_to_unk(tiny_model):
    model, _, _ = tiny_model
    a = forward(model, (2, 999))
    b = forward(model, (2, 1))
    np.testing.assert_array_equal(a, b)


def test_decode_greedy_collapse_rule():
    a, b = 1, 2
    rows = np.full((4, 3), -10.0)
    for t, tok in enumerate((a, a, BLANK_ID, b)):
        rows[t, tok] = 0.0
    res = decode_greedy(rows)
    assert res.frames == (a, a, BLANK_ID, b)
    assert res.output == (a, b)


def test_decode_greedy_all_blank_flags_empty():
    rows = np.full((3, 3), -10.0)
    rows[:, BLANK_ID] = 0.0
    res = decode_greedy(rows)
    assert res.frames == (BLANK_ID,) * 3
    assert res.output == ()


def test_decode_greedy_matches_recomputed_argmax(np_rng):
    e = random_lattice(np_rng, 9, 5)
    res = decode_greedy(e)
    expect = tuple(int(np.argmax(e[t])) for t in range(9))
    assert res.frames == expect
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


def test_pair_table_rejects_empty_source_and_target():
    with pytest.raises(ValueError, match="empty source"):
        PairTable.of([((2,), (2,)), ((), (2,))], 2)
    with pytest.raises(ValueError, match="target must be nonempty"):
        PairTable.of([((2,), (2,)), ((2,), ())], 2)


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


def record_steps(monkeypatch) -> list:
    """Make ``nat.batch_step`` append (slots, loss, skipped, parameters
    after the step) to the returned list for every step it runs."""
    steps = []
    real = nat.batch_step

    def recording(model, slots, table, learning_rate, clip_norm):
        loss, skipped = real(model, slots, table, learning_rate, clip_norm)
        steps.append((slots.copy(), loss, skipped, {n: p.copy() for n, p in model.params.items()}))
        return loss, skipped

    monkeypatch.setattr(nat, "batch_step", recording)
    return steps


def test_train_bookkeeping_follows_the_steps(monkeypatch):
    # Three of seven pairs are infeasible, so some steps skip pairs and
    # some skip their whole batch.
    src = vocab_of([f"s{i}" for i in range(4)])
    tgt = vocab_of([f"t{i}" for i in range(4)])
    pairs = [((2, 3), (2, 3)), ((2,), (2, 3, 4)), ((3, 2), (3, 2)), ((3,), (4, 5, 3)),
             ((4, 5), (4, 5)), ((5,), (2, 2)), ((4,), (5,))]
    cfg = ModelConfig(embed_dim=6, hidden_dim=8, epochs=3, batch_size=2, seed=3)
    steps = record_steps(monkeypatch)
    result = train(pairs, cfg, src, tgt, snapshot_at=2)
    per_epoch = -(-len(pairs) // cfg.batch_size)
    assert len(steps) == cfg.epochs * per_epoch
    assert any(loss is None for _, loss, _, _ in steps)
    assert any(loss is not None and 0 < skipped for _, loss, skipped, _ in steps)
    for epoch, epoch_loss in enumerate(result.epoch_losses):
        counted = [(loss, len(slots) - skipped)
                   for slots, loss, skipped, _ in steps[epoch * per_epoch:(epoch + 1) * per_epoch]
                   if loss is not None]
        assert epoch_loss == pytest.approx(sum(loss * n for loss, n in counted)
                                           / sum(n for _, n in counted), rel=1e-12)
    assert len(result.epoch_losses) == cfg.epochs
    assert result.updates == sum(loss is not None for _, loss, _, _ in steps)
    assert result.skipped == sum(skipped for _, _, skipped, _ in steps)
    second_update = [params for _, loss, _, params in steps if loss is not None][1]
    for name, value in second_update.items():
        np.testing.assert_array_equal(result.snapshot.params[name], value, err_msg=name)


def test_train_without_feasible_pair_stops_after_one_epoch(monkeypatch):
    src = vocab_of(["s0"])
    tgt = vocab_of(["t0", "t1", "t2"])
    pairs = [((2,), (2, 3, 4))] * 5
    cfg = ModelConfig(embed_dim=4, hidden_dim=4, epochs=3, batch_size=2, seed=0)
    steps = record_steps(monkeypatch)
    with pytest.raises(TrainingError, match="no update happened"):
        train(pairs, cfg, src, tgt)
    assert len(steps) == 3  # ceil(5 / 2): the first epoch only
    assert all(loss is None for _, loss, _, _ in steps)


def test_length_groups_sort_ties_in_batch_order():
    # Equal lattice lengths keep their batch order, as a stable sort does.
    frames = np.array([4, 2, 4, 2, 6, 2])
    states = np.array([3, 5, 7, 3, 3, 9])
    groups = nat._length_groups(frames, states)
    assert [g.tolist() for g in groups] == [sorted(range(6), key=lambda i: frames[i])]


def test_length_groups_cut_at_the_cell_bound(monkeypatch):
    # Walking the sorted pairs, a pair opens a new group when the group's
    # padded cells (size + 1) * T_max * S_max would pass the bound; a pair
    # over the bound on its own is alone in its group.
    monkeypatch.setattr(nat, "_GROUP_CELLS", 40)
    frames = np.array([10, 2, 4, 2, 10, 2, 2])
    states = np.array([9, 3, 3, 5, 3, 5, 5])
    groups = nat._length_groups(frames, states)
    # Four (T, S) = (2, <= 5) pairs fill 4 * 2 * 5 = 40 cells, the bound
    # itself; (4, 3) would make 5 * 4 * 5 = 100. (10, 9) alone is 90, and
    # (10, 3) with it 2 * 10 * 9 = 180.
    assert [g.tolist() for g in groups] == [[1, 3, 5, 6], [2], [0], [4]]
    assert nat._length_groups(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == []


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
    loss, skipped = batch_step(updated, np.arange(len(batch)), PairTable.of(batch, cfg.upsample),
                               learning_rate=1.0, clip_norm=np.inf)
    assert skipped == 1
    assert loss == pytest.approx(mean_loss(), rel=1e-12)
    # The grouped update sums the same terms as a per-pair loop, in
    # another order.
    per_pair = [sentence_loss_and_grads(model, s, t)[1] for s, t in feasible]
    # The package's B = 1 reference gives the same bits as the oracle's.
    for (s, t), oracle in zip(feasible, per_pair):
        for name, grad in nat.sentence_loss_and_grads(model, s, t)[1].items():
            np.testing.assert_array_equal(grad, oracle[name], err_msg=name)
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


def test_training_trajectory_matches_log_space_ctc(monkeypatch):
    """Training with the probability-space CTC follows the log-space
    trajectory. 200 pairs of the README default task, batch 32, 3 epochs:
    K = 21 updates at learning rate lr = 0.15.

    The bound: per step, each dL/dlogp entry of the two kernels differs
    by at most tau = 16 * eps * T * (L + 2) (``test_kernels.ctc_tolerance``,
    T and L the longest lattice and largest loss met). Each update moves a
    parameter by lr * clip scale (at most 1) times its gradient, so with
    tau as the per-step tolerance of every parameter gradient entry the
    runs differ by at most K * lr * tau after K steps. That takes backprop
    and the mean over the batch's pairs not to amplify the kernel's
    error, and neglects the feedback of a parameter difference into later
    gradients. Neither is close to binding: the difference measured on
    one x86 machine was 4.4e-16, four orders below the bound of 7e-12.
    """
    spec = synth.SynthTaskSpec(source_vocab_size=12, target_vocab_size=16, len_min=3, len_max=8,
                               num_modes=4, mode_probs=(0.25,) * 4, mistake_rate=0.1, seed=7)
    corpus = synth.generate(spec, n=200).corpus
    pairs = [(ex.source, ex.distilled_target) for ex in corpus.examples]
    cfg = ModelConfig(epochs=3, seed=7)
    shipped = train(pairs, cfg, corpus.src_vocab, corpus.tgt_vocab)

    seen = {"frames": 0, "loss": 0.0}

    def log_space(logp, frames, targets):
        losses, dlogp = nat._ctc_log(logp, frames, targets)
        seen["frames"] = max(seen["frames"], int(frames.max()))
        seen["loss"] = max(seen["loss"], float(losses.max()))
        return losses, dlogp

    monkeypatch.setattr(nat, "_ctc_packed", log_space)
    reference = train(pairs, cfg, corpus.src_vocab, corpus.tgt_vocab)
    assert shipped.updates == reference.updates == 21
    tau = 16 * np.finfo(np.float64).eps * seen["frames"] * (seen["loss"] + 2)
    bound = shipped.updates * cfg.learning_rate * tau
    for name, value in shipped.model.params.items():
        np.testing.assert_allclose(value, reference.model.params[name], rtol=0, atol=bound, err_msg=name)


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
    # the digest a score table records is the checkpoint file's own sha256
    assert model_digest(model) == hashlib.sha256(path.read_bytes()).hexdigest()


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
    bad = np.zeros((2, 3))
    with pytest.raises(ValueError):
        validate_emissions(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(upsample=1)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(learning_rate=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            ModelConfig(learning_rate=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            ModelConfig(clip_norm=bad)
