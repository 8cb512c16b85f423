"""Training loop: config, pool, step mechanics, logging, checkpoint resume."""

import csv
import dataclasses
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import data, engine, losses, train
from cyclesynth.checkpoint import read_checkpoint, write_checkpoint
from cyclesynth.engine import Tensor
from cyclesynth.losses import loss_dis
from cyclesynth.models import discriminator_forward, generator_forward, init_params


def tiny_config(**over):
    base = dict(mode="unpaired_cycle", lam=10.0, base_lr=1e-3,
                fixed_epochs=1, decay_epochs=0, batch_size=1,
                image_pool_size=4, seed=7, width_f=4, width_d=4,
                checkpoint_every=1)
    base.update(over)
    return train.TrainConfig(**base).validate()


def ramp_volume(modality, n_slices=2, size=24, offset=0):
    """Deterministic content where every crop window reads differently."""
    v = (np.arange(n_slices * size * size).reshape(n_slices, size, size)
         * 7 + offset) % 256
    return data.SliceVolume(modality, v.astype(np.uint8))


def volume_pair(n_vols=2, n_slices=2, size=24):
    mr = [ramp_volume("MR", n_slices, size, offset=11 * i) for i in range(n_vols)]
    ct = [ramp_volume("CT", n_slices, size, offset=29 * i) for i in range(n_vols)]
    return mr, ct


class ScriptedRng:
    """Stands in for a Generator; plays back queued random()/integers() values."""

    def __init__(self, randoms=(), ints=()):
        self.randoms = list(randoms)
        self.ints = list(ints)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, *a, **k):
        return self.ints.pop(0)


# -- config ---------------------------------------------------------------


def test_config_roundtrip():
    cfg = tiny_config(lam=5.0, crop_size=24)
    again = train.TrainConfig(**cfg.to_dict()).validate()
    assert again == cfg


@pytest.mark.parametrize("bad", [
    dict(mode="gan"),
    dict(lam=-1.0),
    dict(batch_size=0),
    dict(crop_size=30),
    dict(width_f=0),
    dict(checkpoint_every=0),
    dict(seed=-1),
])
def test_config_rejects(bad):
    with pytest.raises(ValueError, match="invalid training config"):
        tiny_config(**bad)


def test_total_epochs():
    assert tiny_config(fixed_epochs=3, decay_epochs=5).total_epochs == 8


# -- image pool -----------------------------------------------------------


def test_pool_fills_then_caps():
    pool = train.ImagePool(3)
    rng = np.random.default_rng(0)
    for i in range(5):
        batch = np.full((1, 1, 2, 2), float(i), dtype=np.float32)
        out = pool.query(batch, rng)
        assert out.shape == batch.shape
    assert len(pool) == 3


def test_pool_passthrough_while_filling():
    pool = train.ImagePool(2)
    rng = ScriptedRng()  # no draws expected while filling
    a = np.full((1, 1, 2, 2), 1.0, dtype=np.float32)
    b = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
    batch = np.stack([a[0], b[0]])
    assert np.array_equal(pool.query(batch, rng), batch)
    assert len(pool) == 2


def test_pool_swap_returns_stored_and_keeps_incoming():
    pool = train.ImagePool(1)
    rng_fill = ScriptedRng()
    stored = np.full((1, 1, 2, 2), 5.0, dtype=np.float32)
    pool.query(stored, rng_fill)
    incoming = np.full((1, 1, 2, 2), 9.0, dtype=np.float32)
    # random() >= 0.5 takes the swap branch: returns old, stores new
    out = pool.query(incoming, ScriptedRng(randoms=[0.9], ints=[0]))
    assert out[0, 0, 0, 0] == 5.0
    assert pool.images[0][0, 0, 0] == 9.0
    # random() < 0.5 passes the incoming image through untouched
    out2 = pool.query(stored, ScriptedRng(randoms=[0.1]))
    assert out2[0, 0, 0, 0] == 5.0
    assert pool.images[0][0, 0, 0] == 9.0


def test_pool_state_roundtrip():
    pool = train.ImagePool(4)
    rng = np.random.default_rng(3)
    pool.query(np.random.default_rng(1).random((3, 1, 2, 2)).astype(np.float32), rng)
    clone = train.ImagePool(4)
    clone.load_state(pool.images)
    assert len(clone) == len(pool)
    for a, b in zip(pool.images, clone.images):
        assert np.array_equal(a, b)


def test_pool_rejects_bad_sizes():
    with pytest.raises(ValueError):
        train.ImagePool(0)
    pool = train.ImagePool(1)
    with pytest.raises(ValueError, match="larger than capacity"):
        pool.load_state([np.zeros((1, 2, 2), np.float32)] * 2)


# -- networks and steps ---------------------------------------------------


def test_make_networks_deterministic_and_distinct():
    cfg = tiny_config()
    a = train.make_networks(cfg)
    b = train.make_networks(cfg)
    assert set(a) == {"g_mr2ct", "g_ct2mr", "d_ct", "d_mr"}
    for name in a:
        for pname, t in a[name].items():
            assert np.array_equal(t.data, b[name][pname].data)
    # the two generators start from different draws
    assert not np.array_equal(a["g_mr2ct"]["stem.w"].data,
                              a["g_ct2mr"]["stem.w"].data)


def test_make_networks_paired_subset():
    nets = train.make_networks(tiny_config(mode="paired_baseline"))
    assert set(nets) == {"g_mr2ct", "d_ct"}


def test_seed_changes_init():
    a = train.make_networks(tiny_config(seed=1))
    b = train.make_networks(tiny_config(seed=2))
    assert not np.array_equal(a["g_mr2ct"]["stem.w"].data,
                              b["g_mr2ct"]["stem.w"].data)


def step_fixture(cfg):
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(0)
    i_mr = Tensor(rng.uniform(-1, 1, (1, 1, 24, 24)).astype(np.float32))
    i_ct = Tensor(rng.uniform(-1, 1, (1, 1, 24, 24)).astype(np.float32))
    return nets, opts, i_mr, i_ct


def run_one_step(cfg, lr, nets, opts, i_mr, i_ct):
    return train.train_step_unpaired(
        i_mr, i_ct, nets, opts, train.ImagePool(cfg.image_pool_size),
        train.ImagePool(cfg.image_pool_size), cfg, lr,
        np.random.default_rng(1), np.random.default_rng(2), None)


def test_step_updates_every_network():
    cfg = tiny_config()
    nets, opts, i_mr, i_ct = step_fixture(cfg)
    before = {n: {p: t.data.copy() for p, t in g.items()} for n, g in nets.items()}
    b = run_one_step(cfg, 1e-3, nets, opts, i_mr, i_ct)
    for n, g in nets.items():
        moved = any(not np.array_equal(before[n][p], t.data) for p, t in g.items())
        assert moved, f"{n} parameters did not move"
    assert b.total_g == pytest.approx(b.g_adv_ct + b.g_adv_mr + cfg.lam * b.cycle,
                                      rel=1e-6)
    assert b.total_d == pytest.approx(b.d_ct + b.d_mr, rel=1e-6)
    assert all(np.isfinite(v) for v in
               (b.d_ct, b.d_mr, b.g_adv_ct, b.g_adv_mr, b.cycle))


def test_zero_lr_step_keeps_params_but_reaches_gradients():
    """lr=0 leaves weights bitwise intact while Adam still sees gradients."""
    cfg = tiny_config()
    nets, opts, i_mr, i_ct = step_fixture(cfg)
    before = {n: {p: t.data.copy() for p, t in g.items()} for n, g in nets.items()}
    run_one_step(cfg, 0.0, nets, opts, i_mr, i_ct)
    for n, g in nets.items():
        for p, t in g.items():
            assert np.array_equal(before[n][p], t.data), f"{n}/{p} moved at lr=0"
    for n in nets:
        assert opts[n].t == 1
        assert any(np.abs(m).max() > 0 for m in opts[n].m.values()), \
            f"no gradient reached {n}"


def test_discriminator_update_does_not_backprop_into_generator():
    """The pattern the trainer uses: fakes enter the D loss detached."""
    gen = init_params("generator", 4, rng_seed=0)
    dis = init_params("discriminator", 4, rng_seed=1)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 1, 24, 24))
               .astype(np.float32))
    fake = generator_forward(gen, x)
    gen.zero_grad()
    dis.zero_grad()
    d_loss = train._dis_loss(dis, x.data, fake.data)
    engine.backward(d_loss)
    assert all(t.grad is None for t in gen.tensors())
    assert any(t.grad is not None and np.abs(t.grad).max() > 0
               for t in dis.tensors())


@pytest.mark.parametrize("batch", [1, 2])
def test_batched_discriminator_loss_matches_two_passes(batch):
    dis = init_params("discriminator", 4, rng_seed=5)
    rng = np.random.default_rng(6)
    real, fake = (rng.uniform(-1, 1, (batch, 1, 32, 32)).astype(np.float32) for _ in range(2))

    def loss_and_grads(build):
        dis.zero_grad()
        loss = build()
        engine.backward(loss)
        return loss.item(), {n: t.grad.copy() for n, t in dis.items()}

    one, g_one = loss_and_grads(lambda: train._dis_loss(dis, real, fake))
    two, g_two = loss_and_grads(lambda: loss_dis(discriminator_forward(dis, Tensor(real)),
                                                 discriminator_forward(dis, Tensor(fake))))
    assert one == pytest.approx(two, rel=1e-5)
    # conv biases ahead of a norm have a true gradient of 0, so atol is network-wide
    scale = max(np.abs(g).max() for g in g_two.values())
    for name, g in g_two.items():
        np.testing.assert_allclose(g_one[name], g, rtol=1e-4, atol=1e-5 * scale, err_msg=name)


@pytest.mark.parametrize("mode, batch", [("unpaired_cycle", 1), ("paired_baseline", 4)])
def test_step_peak_memory_is_bounded(mode, batch):
    """One width-8, 32x32 step allocates at its peak well under what a tape that keeps
    conv columns, spent closures and intermediate gradients until its end needs
    (19.1 and 17.1 MiB unpaired and paired at batch 4); a consumed tape that keeps
    each activation once peaks at 4.4 and 3.6 MiB, and the paired step, which holds
    one half of its batch's tape at a time, at 2.7 MiB."""
    cfg = tiny_config(mode=mode, width_f=8, width_d=8, batch_size=batch, image_pool_size=50)
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(0)
    i_mr, i_ct = (Tensor(rng.uniform(-1, 1, (batch, 1, 32, 32)).astype(np.float32))
                  for _ in range(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if mode == "paired_baseline":
            train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 1e-3, None)
        else:
            run_one_step(cfg, 1e-3, nets, opts, i_mr, i_ct)
        peak_mb = (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 10.0


@pytest.mark.parametrize("mode, batch, bound_mib", [
    pytest.param("unpaired_cycle", 1, 50.0, id="unpaired_cycle-1"),
    pytest.param("paired_baseline", 4, 44.0, id="paired_baseline-4")])
def test_desk_step_peak_memory_is_bounded(mode, batch, bound_mib):
    """The traced peak of a second width-16, 64x64 step, networks, Adam moments and
    pools included: 37.1 and 33.3 MiB when each activation is held once on the tape,
    45.1 and 49.7 MiB when conv2d keeps its padded input and instance_norm its
    centred input. The unpaired step holds one cycle's tape at a time (40.7 and
    57.3 MiB when it backpropagated both cycles at once), and the paired step one half
    of its batch's (25.3 MiB; 33.3 MiB when it backpropagated the whole batch)."""
    cfg = tiny_config(mode=mode, width_f=16, width_d=16, batch_size=batch, image_pool_size=50)
    rng = np.random.default_rng(0)
    pools = train.ImagePool(cfg.image_pool_size), train.ImagePool(cfg.image_pool_size)
    rngs = np.random.default_rng(1), np.random.default_rng(2)
    tracemalloc.start()
    try:
        nets = train.make_networks(cfg)
        opts = train.make_optimizers(nets)
        for _ in range(2):
            i_mr, i_ct = (Tensor(rng.uniform(-1, 1, (batch, 1, 64, 64)).astype(np.float32))
                          for _ in range(2))
            tracemalloc.reset_peak()
            if mode == "paired_baseline":
                train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 1e-3, None)
            else:
                train.train_step_unpaired(i_mr, i_ct, nets, opts, *pools, cfg, 1e-3, *rngs,
                                          None)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mib < bound_mib


@pytest.mark.parametrize("mode", ["unpaired_cycle", "paired_baseline"])
def test_generator_backward_leaves_discriminators_without_grad(mode, monkeypatch):
    """Checked right after each generator backward, and in unpaired mode also at each
    generator Adam step. A paired step runs d_ct's backward before the Adam steps, so
    d_ct holds its own gradient there."""
    cfg = tiny_config(mode=mode)
    nets, opts, i_mr, i_ct = step_fixture(cfg)
    seen, at_adam = [], []
    adam, backward = train.adam_step, train._generator_backward

    def dis_grads():
        return [t.grad for n, g in nets.items() if n.startswith("d_") for t in g.tensors()]

    def checked_adam(group, state, lr):
        if group in (nets["g_mr2ct"], nets.get("g_ct2mr")):
            at_adam.append(dis_grads())
        adam(group, state, lr)

    def checked_backward(*args):
        out = backward(*args)
        seen.append(dis_grads())
        return out

    monkeypatch.setattr(train, "adam_step", checked_adam)
    monkeypatch.setattr(train, "_generator_backward", checked_backward)
    if mode == "paired_baseline":
        train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 1e-3, None)
    else:
        run_one_step(cfg, 1e-3, nets, opts, i_mr, i_ct)
        assert at_adam and all(g is None for grads in at_adam for g in grads)
    assert seen and all(g is None for grads in seen for g in grads)
    assert all(t.requires_grad for g in nets.values() for t in g.tensors())
    assert all(opts[n].t == 1 for n in nets)


@pytest.mark.parametrize("mode", ["unpaired_cycle", "paired_baseline"])
def test_no_network_holds_a_gradient_between_steps(mode):
    """Every backward adds into .grad and the Adam step that uses it clears it."""
    cfg = tiny_config(mode=mode)
    nets, opts, i_mr, i_ct = step_fixture(cfg)
    for _ in range(2):
        if mode == "paired_baseline":
            train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 1e-3, None)
        else:
            run_one_step(cfg, 1e-3, nets, opts, i_mr, i_ct)
        assert all(t.grad is None for g in nets.values() for t in g.tensors())
    assert all(opts[n].t == 2 for n in nets)


def test_paired_step_mu_zero_is_pure_adversarial():
    cfg = tiny_config(mode="paired_baseline", mu=0.0)
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(0)
    i_mr = Tensor(rng.uniform(-1, 1, (1, 1, 24, 24)).astype(np.float32))
    i_ct = Tensor(rng.uniform(-1, 1, (1, 1, 24, 24)).astype(np.float32))
    b = train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 0.0, None)
    assert b.total_g == pytest.approx(b.g_adv_ct, rel=1e-6)
    assert b.d_mr == 0.0 and b.g_adv_mr == 0.0


@pytest.mark.parametrize("mu", [0.0, 1e-4, 100.0])
def test_paired_step_logs_the_exact_voxel_l1(mu):
    # the cycle column was rebuilt as (total_g - g_adv_ct) / mu: 0 at mu 0, and wrong
    # in the fourth digit at mu 1e-4, where the subtraction cancels
    cfg = tiny_config(mode="paired_baseline", mu=mu)
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(0)
    i_mr = Tensor(rng.uniform(-1, 1, (2, 1, 32, 32)).astype(np.float32))
    i_ct = Tensor(rng.uniform(-1, 1, (2, 1, 32, 32)).astype(np.float32))
    with engine.no_grad():
        fake = generator_forward(nets["g_mr2ct"], i_mr).data
    want = float(np.mean(np.abs(fake.astype(np.float64) - i_ct.data)))
    b = train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 1e-3, None)
    assert b.cycle == pytest.approx(want, rel=1e-6)


def test_numeric_error_names_first_bad_loss():
    cfg = tiny_config()
    nets, opts, i_mr, i_ct = step_fixture(cfg)
    nets["g_mr2ct"]["stem.w"].data[:] = np.nan
    with pytest.raises(train.NumericError, match="g_adv_ct"):
        run_one_step(cfg, 1e-3, nets, opts, i_mr, i_ct)


def paired_reference(cfg, i_mr, i_ct, parts):
    """g_mr2ct's and d_ct's gradients, on fresh networks, of losses.loss_paired with
    d_ct frozen and of loss_dis on one pass over real and detached fake, for each range
    of samples in parts in turn, each weighted by its share of the batch (a whole batch
    unweighted). Each backward adds into the gradients the ranges before it left."""
    ref, n = train.make_networks(cfg), len(i_mr.data)

    def weighted(loss, rows):
        share = (rows.stop - rows.start) / n
        return loss if share == 1 else share * loss

    for rows in parts:
        mr, ct = Tensor(i_mr.data[rows]), Tensor(i_ct.data[rows])
        fake = generator_forward(ref["g_mr2ct"], mr)
        with ref["d_ct"].frozen():
            score = discriminator_forward(ref["d_ct"], fake)
            engine.backward(weighted(losses.loss_paired(fake, ct, score, mu=cfg.mu), rows))
        score = discriminator_forward(ref["d_ct"], Tensor(np.concatenate([ct.data, fake.data])))
        engine.backward(weighted(loss_dis(*engine.split_batch(score, len(ct.data))), rows))
    return {name: {p: t.grad for p, t in ref[name].items()} for name in ("g_mr2ct", "d_ct")}


def paired_step_gradients(cfg, i_mr, i_ct, monkeypatch):
    """The gradients g_mr2ct's and d_ct's Adam steps take in one paired step."""
    nets, seen = train.make_networks(cfg), {}
    adam = train.adam_step

    def capturing_adam(group, state, lr):
        for name in ("g_mr2ct", "d_ct"):
            if group is nets[name]:
                seen[name] = {p: t.grad.copy() for p, t in group.items()}
        adam(group, state, lr)

    monkeypatch.setattr(train, "adam_step", capturing_adam)
    train.train_step_paired(i_mr, i_ct, nets, train.make_optimizers(nets), cfg, 1e-3, None)
    return seen


def paired_inputs(batch):
    rng = np.random.default_rng(3)
    return (Tensor(rng.uniform(-1, 1, (batch, 1, 24, 24)).astype(np.float32))
            for _ in range(2))


def test_paired_step_gradient_is_the_loss_paired_gradient(monkeypatch):
    """A batch of 1 is not split: the gradient g_mr2ct's Adam step takes is, bit for
    bit, the gradient of losses.loss_paired on the same forward, the objective the
    benchmark checks, and d_ct's that of its loss_dis."""
    cfg = tiny_config(mode="paired_baseline")
    i_mr, i_ct = paired_inputs(1)
    want = paired_reference(cfg, i_mr, i_ct, [slice(0, 1)])
    seen = paired_step_gradients(cfg, i_mr, i_ct, monkeypatch)
    assert list(seen) == list(want)
    for name, grads in want.items():
        assert list(seen[name]) == list(grads)
        for p, g in grads.items():
            assert seen[name][p].tobytes() == g.tobytes(), (name, p)


@pytest.mark.parametrize("batch", [2, 4])
def test_paired_step_gradient_sums_the_share_weighted_halves(monkeypatch, batch):
    """A batch of 2 or more runs as its first batch // 2 samples and the rest: the
    gradients the Adam steps take are, bit for bit, the sum of the two halves'
    loss_paired and loss_dis gradients, each weighted by its share of the batch, and
    the joint gradient of the whole batch up to float32 rounding."""
    cfg = tiny_config(mode="paired_baseline", batch_size=batch)
    i_mr, i_ct = paired_inputs(batch)
    cut = batch // 2
    halves = paired_reference(cfg, i_mr, i_ct, [slice(0, cut), slice(cut, batch)])
    joint = paired_reference(cfg, i_mr, i_ct, [slice(0, batch)])
    seen = paired_step_gradients(cfg, i_mr, i_ct, monkeypatch)
    for name, grads in halves.items():
        # conv biases ahead of a norm have a true gradient of 0, so atol is network-wide
        scale = max(np.abs(g).max() for g in joint[name].values())
        for p, g in grads.items():
            assert seen[name][p].tobytes() == g.tobytes(), (name, p)
            np.testing.assert_allclose(g, joint[name][p], rtol=1e-4, atol=1e-5 * scale,
                                       err_msg=f"{name}/{p}")


@pytest.mark.parametrize("case, name", [("nan-stem", "g_adv_ct"), ("mu-1e39", "paired"),
                                        ("inf-d-loss", "d_ct")])
def test_paired_numeric_error_names_the_first_bad_loss(monkeypatch, case, name):
    cfg = tiny_config(mode="paired_baseline", mu=1e39 if case == "mu-1e39" else 100.0)
    nets, opts, i_mr, i_ct = step_fixture(cfg)
    if case == "nan-stem":
        nets["g_mr2ct"]["stem.w"].data[:] = np.nan
    elif case == "inf-d-loss":
        real = train.loss_dis
        # an op on the loss, so it keeps its graph and the update's backward runs
        monkeypatch.setattr(train, "loss_dis", lambda *scores: engine.mul(
            real(*scores), Tensor(np.array(np.inf, np.float32))))
    with np.errstate(all="ignore"), pytest.raises(
            train.NumericError, match=rf"^non-finite value in {name}$"):
        train.train_step_paired(i_mr, i_ct, nets, opts, cfg, 1e-3, None)


# -- epoch plumbing -------------------------------------------------------


def test_epoch_order_balanced_resampling():
    index = [(0, 0), (0, 1), (1, 0)]
    rng = np.random.default_rng(5)
    order = train._epoch_order(index, 8, rng)
    assert len(order) == 8
    assert set(order) <= set(index)
    counts = [order.count(e) for e in index]
    assert max(counts) - min(counts) <= 1  # whole reshuffles, then a prefix


def test_same_volume_pairs_removed():
    rng = np.random.default_rng(9)
    index = [(v, s) for v in range(3) for s in range(4)]
    for _ in range(20):
        mr_seq = list(train._epoch_order(index, 12, rng))
        ct_seq = list(train._epoch_order(index, 12, rng))
        fixed = train._fix_same_volume_pairs(mr_seq, list(ct_seq))
        assert sorted(fixed) == sorted(ct_seq)  # a permutation, nothing dropped
        assert all(m[0] != c[0] for m, c in zip(mr_seq, fixed))


def test_paired_batch_shares_crop_offsets():
    size = 24
    v = (np.arange(size * size).reshape(size, size) % 256).astype(np.uint8)
    mr = [data.SliceVolume("MR", v[None])]
    ct = [data.SliceVolume("CT", v[None])]
    rng = np.random.default_rng(0)
    for _ in range(8):
        t_mr, t_ct = train._paired_batch(mr, ct, [(0, 0)], size, rng)
        assert np.array_equal(t_mr.data, t_ct.data)


def test_crop_plan():
    vols = [ramp_volume("MR", 1, 24)]
    assert train.check_inputs(vols, vols, tiny_config()) == 24
    # a 26x26 slice fits crop 24 padded by its margin of 2
    big = [ramp_volume("MR", 1, 26)]
    assert train.check_inputs(big, big, tiny_config(crop_size=24)) == 24
    uneven = [data.SliceVolume("MR", np.zeros((1, 24, 28), np.uint8))]
    with pytest.raises(ValueError, match="crop_size"):
        train.check_inputs(uneven, uneven, tiny_config())
    # crop 8 pads by 0, so a 24x24 slice (or a larger second volume) cannot fit
    with pytest.raises(ValueError, match="crop_size 8 plus its pad margin 0 is below"):
        train.check_inputs(vols, vols, tiny_config(crop_size=8))
    with pytest.raises(ValueError, match="largest slice side 28"):
        train.check_inputs(vols, [ramp_volume("CT", 1, 28)], tiny_config(crop_size=24))


# -- run_training ---------------------------------------------------------


def read_log(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == train.LOG_HEADER
    return rows[1:]


def test_run_training_writes_log_and_checkpoints(tmp_path):
    mr, ct = volume_pair(n_vols=2, n_slices=2)
    cfg = tiny_config(fixed_epochs=2, decay_epochs=0, checkpoint_every=2)
    out = train.run_training(mr, ct, cfg, tmp_path)
    rows = read_log(tmp_path / "loss_log.csv")
    assert len(rows) == 2 * 4  # epochs * ceil(4 slices / batch 1)
    assert (tmp_path / "ckpt_epoch0.csyn").exists()
    assert (tmp_path / "ckpt_epoch2.csyn").exists()
    assert not (tmp_path / "ckpt_epoch1.csyn").exists()
    assert out["final_checkpoint"] == str(tmp_path / "ckpt_epoch2.csyn")
    assert out["epochs_run"] == 2
    epochs = [int(r[0]) for r in rows]
    iters = [int(r[1]) for r in rows]
    assert epochs == [0] * 4 + [1] * 4
    assert iters == [0, 1, 2, 3] * 2
    for r in rows:
        assert all(np.isfinite(float(x)) for x in r[2:])


def test_log_row_count_with_batching(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=3)
    cfg = tiny_config(batch_size=2, fixed_epochs=2, decay_epochs=0)
    train.run_training(mr, ct, cfg, tmp_path)
    rows = read_log(tmp_path / "loss_log.csv")
    assert len(rows) == 2 * 2  # ceil(3/2) = 2 iterations per epoch


def test_lr_column_follows_schedule(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=1)
    cfg = tiny_config(base_lr=2e-4, fixed_epochs=1, decay_epochs=2)
    train.run_training(mr, ct, cfg, tmp_path)
    lrs = [float(r[2]) for r in read_log(tmp_path / "loss_log.csv")]
    assert lrs == [2e-4, 2e-4, 1e-4]


def test_zero_epoch_run(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=1)
    cfg = tiny_config(fixed_epochs=0, decay_epochs=0)
    out = train.run_training(mr, ct, cfg, tmp_path)
    assert read_log(tmp_path / "loss_log.csv") == []
    assert out["epochs_run"] == 0
    arrays, meta = read_checkpoint(tmp_path / "ckpt_epoch0.csyn")
    assert meta["epoch"] == 0
    fresh = train.make_networks(cfg)
    for pname, t in fresh["g_mr2ct"].items():
        assert np.array_equal(arrays[f"g_mr2ct/{pname}"], t.data)


def test_checkpoint_contains_optimizer_and_pool(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=2)
    cfg = tiny_config(fixed_epochs=1, decay_epochs=0, image_pool_size=2)
    train.run_training(mr, ct, cfg, tmp_path)
    arrays, meta = read_checkpoint(tmp_path / "ckpt_epoch1.csyn")
    assert meta["opt_t"] == {n: 2 for n in ("g_mr2ct", "g_ct2mr", "d_ct", "d_mr")}
    assert "opt/g_mr2ct/m/stem.w" in arrays
    assert "opt/g_mr2ct/v/stem.w" in arrays
    assert meta["pool_sizes"] == {"ct": 2, "mr": 2}
    assert arrays["pool/ct/0000"].shape == (1, 24, 24)
    assert meta["config"] == cfg.to_dict()


def test_resume_is_bitwise_identical(tmp_path):
    mr, ct = volume_pair(n_vols=2, n_slices=2)
    cfg = tiny_config(fixed_epochs=2, decay_epochs=0, checkpoint_every=1,
                      image_pool_size=3)

    straight = tmp_path / "straight"
    train.run_training(mr, ct, cfg, straight)

    split = tmp_path / "split"
    first = dataclasses.replace(cfg, fixed_epochs=1)
    train.run_training(mr, ct, first, split)
    train.run_training(mr, ct, cfg, split,
                       resume_from=split / "ckpt_epoch1.csyn")

    a = (straight / "ckpt_epoch2.csyn").read_bytes()
    b = (split / "ckpt_epoch2.csyn").read_bytes()
    # the stored config differs between legs; compare arrays and live state
    arr_a, meta_a = read_checkpoint(straight / "ckpt_epoch2.csyn")
    arr_b, meta_b = read_checkpoint(split / "ckpt_epoch2.csyn")
    assert set(arr_a) == set(arr_b)
    for k in arr_a:
        assert np.array_equal(arr_a[k], arr_b[k]), f"{k} diverged"
    assert meta_a["opt_t"] == meta_b["opt_t"]
    assert meta_a["pool_sizes"] == meta_b["pool_sizes"]
    assert meta_a["epoch"] == meta_b["epoch"] == 2
    if meta_a["config"] == meta_b["config"]:
        assert a == b  # same config implies byte-identical files


def test_resume_appends_log(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=2)
    cfg = tiny_config(fixed_epochs=2, decay_epochs=0, checkpoint_every=1)
    first = dataclasses.replace(cfg, fixed_epochs=1)
    train.run_training(mr, ct, first, tmp_path)
    assert len(read_log(tmp_path / "loss_log.csv")) == 2
    train.run_training(mr, ct, cfg, tmp_path,
                       resume_from=tmp_path / "ckpt_epoch1.csyn")
    rows = read_log(tmp_path / "loss_log.csv")
    assert len(rows) == 4
    assert [int(r[0]) for r in rows] == [0, 0, 1, 1]


def test_resume_drops_a_log_row_cut_by_a_crash(tmp_path):
    """A crash cut the log after the "1" of epoch 11's first row; the resumed run kept
    that "1" and wrote its first row onto it as "110,0,..."."""
    mr, ct = volume_pair(n_vols=2, n_slices=1, size=32)
    cfg = tiny_config(fixed_epochs=12, checkpoint_every=10)
    train.run_training(mr, ct, cfg, tmp_path / "straight")
    whole = (tmp_path / "straight" / "loss_log.csv").read_bytes()
    cut = tmp_path / "cut"
    cut.mkdir()
    (cut / "loss_log.csv").write_bytes(whole[:whole.index(b"\r\n11,") + 3])
    train.run_training(mr, ct, cfg, cut,
                       resume_from=tmp_path / "straight" / "ckpt_epoch10.csyn")
    assert (cut / "loss_log.csv").read_bytes() == whole


def test_resume_rejects_config_mismatch(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=1)
    cfg = tiny_config(fixed_epochs=1, decay_epochs=0)
    train.run_training(mr, ct, cfg, tmp_path)
    other = tiny_config(fixed_epochs=1, decay_epochs=0, width_f=8)
    with pytest.raises(ValueError, match="width_f"):
        train.run_training(mr, ct, other, tmp_path,
                           resume_from=tmp_path / "ckpt_epoch1.csyn")


def test_resume_log_matches_unbroken_run(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=2)
    cfg = tiny_config(fixed_epochs=2, decay_epochs=0, checkpoint_every=1)
    train.run_training(mr, ct, cfg, tmp_path / "straight")
    # resumed from epoch 1 into a directory whose log already holds epoch 1
    again = tmp_path / "again"
    train.run_training(mr, ct, cfg, again)
    train.run_training(mr, ct, cfg, again, resume_from=again / "ckpt_epoch1.csyn")
    assert ((again / "loss_log.csv").read_bytes()
            == (tmp_path / "straight" / "loss_log.csv").read_bytes())


def test_a_resumed_run_holds_its_state_once(tmp_path, monkeypatch):
    """The arrays alive at the end of the last epoch take the same memory, within 1 MiB,
    in a run resumed from its epoch-1 checkpoint and in an unbroken one. Width 16 has
    1.8 M parameters, so a second copy of the Adam moments is 13.5 MiB: the resumed run
    held 39.5 against 25.9 MiB of arrays while it kept the checkpoint's arrays alongside
    the copies it loaded. Only numpy's memory counts: a global table of the interpreter
    can grow by megabytes in either run."""
    mr, ct = volume_pair(n_vols=2, n_slices=3, size=32)
    cfg = tiny_config(fixed_epochs=2, width_f=16, width_d=16, checkpoint_every=5)
    check, arrays_mib = train._check_finite, []
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def traced_check(named):
        # the last call of a run is its last epoch's check of every array
        snapshot = tracemalloc.take_snapshot().filter_traces(only_numpy)
        arrays_mib.append(sum(t.size for t in snapshot.traces) / 2**20)
        return check(named)

    monkeypatch.setattr(train, "cycle_processes", lambda cfg: 1)  # shared memory is untraced
    train.run_training(mr, ct, dataclasses.replace(cfg, fixed_epochs=1), tmp_path / "r")
    monkeypatch.setattr(train, "_check_finite", traced_check)
    tracemalloc.start()
    try:
        train.run_training(mr, ct, cfg, tmp_path / "r",
                           resume_from=tmp_path / "r" / "ckpt_epoch1.csyn")
        resumed = arrays_mib[-1]
        train.run_training(mr, ct, cfg, tmp_path / "unbroken")
        unbroken = arrays_mib[-1]
    finally:
        tracemalloc.stop()
    assert abs(resumed - unbroken) < 1.0, (resumed, unbroken)


def lifecycle_config(mode):
    # 3 epochs: lr flat for epoch 0, then decaying, so a split lands on either phase
    return tiny_config(mode=mode, fixed_epochs=1, decay_epochs=2, image_pool_size=3)


@pytest.fixture(scope="module")
def unbroken_runs(tmp_path_factory):
    mr, ct = volume_pair(n_vols=2, n_slices=2)
    out = {}
    for mode in train.MODES:
        out[mode] = tmp_path_factory.mktemp(mode)
        train.run_training(mr, ct, lifecycle_config(mode), out[mode])
    return out


@pytest.mark.parametrize("mode", train.MODES)
@settings(max_examples=3, deadline=None)
@given(split=st.integers(1, 2))
def test_resume_after_crash_equals_unbroken_run(unbroken_runs, mode, split):
    mr, ct = volume_pair(n_vols=2, n_slices=2)
    cfg = lifecycle_config(mode)
    real_write = train.write_checkpoint

    def write_then_crash(path, arrays, meta):
        real_write(path, arrays, meta)
        if Path(path).name == f"ckpt_epoch{split}.csyn":
            raise RuntimeError("stopped after the split checkpoint")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with mock.patch.object(train, "write_checkpoint", write_then_crash), \
                pytest.raises(RuntimeError, match="stopped"):
            train.run_training(mr, ct, cfg, out)
        assert len(read_log(out / "loss_log.csv")) == 4 * split
        train.run_training(mr, ct, cfg, out, resume_from=out / f"ckpt_epoch{split}.csyn")
        want = unbroken_runs[mode]
        got_arrays, _ = read_checkpoint(out / "ckpt_epoch3.csyn")
        want_arrays, _ = read_checkpoint(want / "ckpt_epoch3.csyn")
        assert list(got_arrays) == list(want_arrays)
        for k in want_arrays:
            assert got_arrays[k].tobytes() == want_arrays[k].tobytes(), f"{k} diverged"
        assert ((out / "ckpt_epoch3.csyn").read_bytes()
                == (want / "ckpt_epoch3.csyn").read_bytes())
        assert (out / "loss_log.csv").read_bytes() == (want / "loss_log.csv").read_bytes()


def test_resume_accepts_checkpoint_with_retired_config_keys(unbroken_runs, tmp_path):
    # checkpoints written before pad_total and forbid_same_index left TrainConfig
    mode = "unpaired_cycle"
    arrays, meta = read_checkpoint(unbroken_runs[mode] / "ckpt_epoch1.csyn")
    meta["config"].update(pad_total=None, forbid_same_index=True)
    old = tmp_path / "old_epoch1.csyn"
    write_checkpoint(old, arrays, meta)
    mr, ct = volume_pair(n_vols=2, n_slices=2)
    train.run_training(mr, ct, lifecycle_config(mode), tmp_path / "resumed", resume_from=old)
    got, _ = read_checkpoint(tmp_path / "resumed" / "ckpt_epoch3.csyn")
    want, _ = read_checkpoint(unbroken_runs[mode] / "ckpt_epoch3.csyn")
    assert list(got) == list(want)
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), f"{k} diverged"


@pytest.mark.parametrize("field,value", [("seed", 8), ("lam", 3.0), ("batch_size", 2)])
def test_resume_rejects_changed_run_setting(tmp_path, field, value):
    mr, ct = volume_pair(n_vols=1, n_slices=1)
    train.run_training(mr, ct, tiny_config(), tmp_path)
    other = tiny_config(fixed_epochs=2, **{field: value})
    with pytest.raises(ValueError, match=f"mismatch on {field}"):
        train.run_training(mr, ct, other, tmp_path,
                           resume_from=tmp_path / "ckpt_epoch1.csyn")


def test_resume_accepts_new_epoch_counts_and_checkpoint_every(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=1)
    train.run_training(mr, ct, tiny_config(), tmp_path)
    longer = tiny_config(fixed_epochs=2, decay_epochs=1, checkpoint_every=5)
    out = train.run_training(mr, ct, longer, tmp_path,
                             resume_from=tmp_path / "ckpt_epoch1.csyn")
    assert out["final_checkpoint"] == str(tmp_path / "ckpt_epoch3.csyn")
    assert [int(r[0]) for r in read_log(tmp_path / "loss_log.csv")] == [0, 1, 2]


def test_paired_mode_log_columns(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=2)
    cfg = tiny_config(mode="paired_baseline", fixed_epochs=1, decay_epochs=0)
    train.run_training(mr, ct, cfg, tmp_path)
    rows = read_log(tmp_path / "loss_log.csv")
    assert len(rows) == 2
    for r in rows:
        row = dict(zip(train.LOG_HEADER, r))
        assert float(row["d_mr"]) == 0.0
        assert float(row["g_adv_mr"]) == 0.0
        assert float(row["total_d"]) == float(row["d_ct"])


def test_run_training_input_validation(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=1)
    with pytest.raises(ValueError, match="at least one volume"):
        train.run_training([], ct, tiny_config(), tmp_path)
    with pytest.raises(ValueError, match="equal-length"):
        train.run_training(mr + mr, ct,
                           tiny_config(mode="paired_baseline"), tmp_path)
    short = [data.SliceVolume("CT", np.zeros((2, 24, 24), np.uint8))]
    with pytest.raises(ValueError, match="share dims"):
        train.run_training(mr, short,
                           tiny_config(mode="paired_baseline"), tmp_path)


def test_state_check_names_the_first_non_finite_array():
    cfg = tiny_config()
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    train._check_finite(train._state(nets, opts, {})[0].items())
    opts["d_mr"].m["c1.w"] = np.zeros(1, np.float32)
    opts["d_mr"].v["c1.w"] = np.array([np.inf], np.float32)
    nets["d_ct"]["c2.b"].data[0] = np.nan
    with pytest.raises(train.NumericError, match=r"^non-finite value in d_ct/c2\.b$"):
        train._check_finite(train._state(nets, opts, {})[0].items())
    nets["d_ct"]["c2.b"].data[0] = 0.0
    with pytest.raises(train.NumericError, match=r"^non-finite value in opt/d_mr/v/c1\.w$"):
        train._check_finite(train._state(nets, opts, {})[0].items())


def test_two_runs_same_seed_identical_logs(tmp_path):
    mr, ct = volume_pair(n_vols=1, n_slices=2)
    cfg = tiny_config(fixed_epochs=1, decay_epochs=0)
    train.run_training(mr, ct, cfg, tmp_path / "a")
    train.run_training(mr, ct, cfg, tmp_path / "b")
    assert ((tmp_path / "a" / "loss_log.csv").read_bytes()
            == (tmp_path / "b" / "loss_log.csv").read_bytes())
    assert ((tmp_path / "a" / "ckpt_epoch1.csyn").read_bytes()
            == (tmp_path / "b" / "ckpt_epoch1.csyn").read_bytes())
