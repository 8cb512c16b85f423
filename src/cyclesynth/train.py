"""Training orchestration: the two-generator cycle loop and the paired baseline.

One unpaired iteration runs the forward cycle (MR -> CT -> MR) and the
backward cycle (CT -> MR -> CT), updates both generators jointly on the
adversarial terms plus the weighted cycle loss, then updates each
discriminator on real slices versus pool-sampled synthesized ones.

Determinism contract: every random choice of an epoch (slice order,
crop offsets, pool sampling) is drawn from streams derived from
(seed, epoch), and mutable state (parameters, optimizer moments, pool
buffers) round-trips through checkpoints bitwise. Resuming from a
checkpoint therefore continues exactly the run that produced it.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import engine
from .checkpoint import read_checkpoint, write_checkpoint
from .data import augment, pad_and_crop, pad_margin, to_model_range
from .engine import Tensor
from .losses import (
    LossBreakdown,
    loss_cycle,
    loss_dis,
    loss_gen_adv,
    loss_paired,
    total_generator_loss,
)
from .models import discriminator_forward, generator_forward, init_params
from .optim import AdamState, LrSchedule, adam_step, lr_at

MODES = ("unpaired_cycle", "paired_baseline")

# stream tables, the index is the tag: network k draws its init from
# [seed, 101, k] (checkpoint order; paired mode builds the first two) and
# epoch stream k from [seed, epoch, k], counting from 1
_NETS = (("g_mr2ct", "generator"), ("d_ct", "discriminator"),
         ("g_ct2mr", "generator"), ("d_mr", "discriminator"))
_INIT_TAG = 101
_EPOCH_STREAMS = ("order_mr", "order_ct", "augment", "pool_ct", "pool_mr")


class NumericError(RuntimeError):
    """A loss went non-finite; carries the name of the first bad tensor."""


@dataclass
class TrainConfig:
    mode: str = "unpaired_cycle"
    lam: float = 10.0
    mu: float = 100.0
    base_lr: float = 2e-4
    fixed_epochs: int = 100
    decay_epochs: int = 100
    batch_size: int = 1
    image_pool_size: int = 50
    use_pool: bool = True
    seed: int = 0
    width_f: int = 64
    width_d: int = 64
    crop_size: int | None = None
    checkpoint_every: int = 25

    def validate(self):
        problems = []
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.lam < 0:
            problems.append("lam must be >= 0")
        if self.mu < 0:
            problems.append("mu must be >= 0")
        if self.base_lr < 0:
            problems.append("base_lr must be >= 0")
        if self.fixed_epochs < 0 or self.decay_epochs < 0:
            problems.append("epoch counts must be >= 0")
        if self.batch_size < 1:
            problems.append("batch_size must be >= 1")
        if self.image_pool_size < 1:
            problems.append("image_pool_size must be >= 1")
        if self.width_f < 1 or self.width_d < 1:
            problems.append("network widths must be >= 1")
        if self.crop_size is not None and (self.crop_size < 4 or self.crop_size % 4):
            problems.append("crop_size must be a positive multiple of 4")
        if self.checkpoint_every < 1:
            problems.append("checkpoint_every must be >= 1")
        if problems:
            raise ValueError("invalid training config: " + "; ".join(problems))
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d).validate()

    @property
    def total_epochs(self):
        return self.fixed_epochs + self.decay_epochs

    def schedule(self):
        return LrSchedule(base_lr=self.base_lr, fixed_epochs=self.fixed_epochs,
                          decay_epochs=self.decay_epochs)


class ImagePool:
    """History buffer of synthesized images used for discriminator updates.

    While filling, every incoming image is stored and returned as is.
    Once full, each incoming image is returned unchanged with p=0.5;
    otherwise a random stored image is returned and the incoming one
    takes its slot.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = capacity
        self.images = []

    def __len__(self):
        return len(self.images)

    def query(self, batch, rng):
        """batch: [N,1,H,W] float32 array of detached fakes; returns same shape."""
        out = []
        for img in batch:
            if len(self.images) < self.capacity:
                self.images.append(img.copy())
                out.append(img)
            elif rng.random() < 0.5:
                out.append(img)
            else:
                idx = int(rng.integers(len(self.images)))
                out.append(self.images[idx])
                self.images[idx] = img.copy()
        return np.stack(out)

    def state_arrays(self):
        return [img.copy() for img in self.images]

    def load_state(self, images):
        if len(images) > self.capacity:
            raise ValueError("pool state larger than capacity")
        self.images = [np.asarray(img, dtype=np.float32).copy() for img in images]


def make_networks(cfg):
    """Freshly initialized ParamGroups for the configured mode."""
    nets = {}
    count = 4 if cfg.mode == "unpaired_cycle" else 2
    for k, (name, kind) in enumerate(_NETS[:count]):
        seed = np.random.SeedSequence([cfg.seed, _INIT_TAG, k]).generate_state(1)[0]
        width = cfg.width_f if kind == "generator" else cfg.width_d
        nets[name] = init_params(kind, width, int(seed))
    return nets


def make_optimizers(nets):
    return {name: AdamState() for name in nets}


def _check_finite(name, t):
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite value in {name}")
    return t


def train_step_unpaired(i_mr, i_ct, nets, opts, pool_ct, pool_mr, cfg, lr,
                        pool_rng_ct, pool_rng_mr):
    """One generator update and two discriminator updates; returns the breakdown."""
    g_mr2ct, g_ct2mr = nets["g_mr2ct"], nets["g_ct2mr"]
    d_ct, d_mr = nets["d_ct"], nets["d_mr"]

    # forward cycle MR -> CT -> MR and backward cycle CT -> MR -> CT
    fake_ct = generator_forward(g_mr2ct, i_mr)
    rec_mr = generator_forward(g_ct2mr, fake_ct)
    fake_mr = generator_forward(g_ct2mr, i_ct)
    rec_ct = generator_forward(g_mr2ct, fake_mr)

    # the discriminators only score the fakes here: no weight gradients for them
    with d_ct.frozen(), d_mr.frozen():
        g_adv_ct = _check_finite("g_adv_ct", loss_gen_adv(discriminator_forward(d_ct, fake_ct)))
        g_adv_mr = _check_finite("g_adv_mr", loss_gen_adv(discriminator_forward(d_mr, fake_mr)))
        cyc = _check_finite("cycle", loss_cycle(i_mr, rec_mr, i_ct, rec_ct))
        total_g = total_generator_loss(g_adv_ct, g_adv_mr, cyc, cfg.lam)

        for net in nets.values():
            net.zero_grad()
        engine.backward(total_g)
    adam_step(g_mr2ct, opts["g_mr2ct"], lr)
    adam_step(g_ct2mr, opts["g_ct2mr"], lr)

    # discriminators train on detached fakes routed through the pools
    fake_ct_d = fake_ct.detach().data
    fake_mr_d = fake_mr.detach().data
    if cfg.use_pool:
        fake_ct_d = pool_ct.query(fake_ct_d, pool_rng_ct)
        fake_mr_d = pool_mr.query(fake_mr_d, pool_rng_mr)

    d_ct.zero_grad()
    d_ct_loss = _check_finite("d_ct", loss_dis(
        discriminator_forward(d_ct, i_ct.detach()),
        discriminator_forward(d_ct, Tensor(fake_ct_d))))
    engine.backward(d_ct_loss)
    adam_step(d_ct, opts["d_ct"], lr)

    d_mr.zero_grad()
    d_mr_loss = _check_finite("d_mr", loss_dis(
        discriminator_forward(d_mr, i_mr.detach()),
        discriminator_forward(d_mr, Tensor(fake_mr_d))))
    engine.backward(d_mr_loss)
    adam_step(d_mr, opts["d_mr"], lr)

    g_ct = g_adv_ct.item()
    g_mr = g_adv_mr.item()
    c = cyc.item()
    return LossBreakdown(
        d_ct=d_ct_loss.item(), d_mr=d_mr_loss.item(),
        g_adv_ct=g_ct, g_adv_mr=g_mr, cycle=c, lam=cfg.lam,
        total_g=g_ct + g_mr + cfg.lam * c,
        total_d=d_ct_loss.item() + d_mr_loss.item())


def train_step_paired(i_mr, i_ct_aligned, nets, opts, cfg, lr):
    """Paired-baseline iteration: adversarial + voxel L1 generator update,
    then one discriminator update on the fresh fake. Returns a breakdown
    with the MR-side and cycle fields unused (zero)."""
    g_mr2ct, d_ct = nets["g_mr2ct"], nets["d_ct"]

    fake_ct = generator_forward(g_mr2ct, i_mr)
    with d_ct.frozen():
        score_fake = discriminator_forward(d_ct, fake_ct)
        adv = _check_finite("g_adv_ct", loss_gen_adv(score_fake))
        gen_loss = _check_finite("paired", loss_paired(fake_ct, i_ct_aligned, score_fake,
                                                       mu=cfg.mu))
        for net in nets.values():
            net.zero_grad()
        engine.backward(gen_loss)
    adam_step(g_mr2ct, opts["g_mr2ct"], lr)

    d_ct.zero_grad()
    d_loss = _check_finite("d_ct", loss_dis(
        discriminator_forward(d_ct, i_ct_aligned.detach()),
        discriminator_forward(d_ct, fake_ct.detach())))
    engine.backward(d_loss)
    adam_step(d_ct, opts["d_ct"], lr)

    adv_v = adv.item()
    gen_v = gen_loss.item()
    # cycle column carries the unweighted voxel L1 so the log stays one schema
    l1 = (gen_v - adv_v) / cfg.mu if cfg.mu > 0 else 0.0
    return LossBreakdown(d_ct=d_loss.item(), d_mr=0.0, g_adv_ct=adv_v,
                         g_adv_mr=0.0, cycle=l1, lam=cfg.mu,
                         total_g=gen_v, total_d=d_loss.item())


# -- dataset plumbing -----------------------------------------------------


def _slice_index(volumes):
    return [(vi, si) for vi, vol in enumerate(volumes)
            for si in range(vol.dims[0])]


def _epoch_order(index, length, rng):
    """Shuffled (volume, slice) sequence of `length`, reshuffling on exhaustion."""
    order = []
    while len(order) < length:
        order.extend(index[i] for i in rng.permutation(len(index)))
    return order[:length]


def _fix_same_volume_pairs(mr_seq, ct_seq):
    """Swap CT entries forward so no position pairs slices of one volume index."""
    n = len(mr_seq)
    for k in range(n):
        if mr_seq[k][0] != ct_seq[k][0]:
            continue
        for step in range(1, n):
            j = (k + step) % n
            if ct_seq[j][0] != mr_seq[k][0] and ct_seq[k][0] != mr_seq[j][0]:
                ct_seq[k], ct_seq[j] = ct_seq[j], ct_seq[k]
                break
    return ct_seq


def _crop_plan(volumes, cfg):
    h, w = volumes[0].dims[1], volumes[0].dims[2]
    if cfg.crop_size is not None:
        return cfg.crop_size
    if h != w:
        raise ValueError(f"crop_size must be set for non-square slices ({h}x{w})")
    return h


def _batch_tensor(vols, seq, crop, rng):
    planes = []
    for vi, si in seq:
        sl = augment(vols[vi].voxels[si], crop, rng)
        planes.append(to_model_range(sl))
    return Tensor(np.stack(planes)[:, None, :, :])


def _paired_batch(mr_vols, ct_vols, seq, crop, rng):
    """Identical pad-and-crop offsets on both sides of each aligned pair."""
    mr_planes, ct_planes = [], []
    total = pad_margin(crop)
    for vi, si in seq:
        oy = int(rng.integers(0, total + 1))
        ox = int(rng.integers(0, total + 1))
        mr_planes.append(to_model_range(
            pad_and_crop(mr_vols[vi].voxels[si], crop, oy, ox, total)))
        ct_planes.append(to_model_range(
            pad_and_crop(ct_vols[vi].voxels[si], crop, oy, ox, total)))
    return (Tensor(np.stack(mr_planes)[:, None, :, :]),
            Tensor(np.stack(ct_planes)[:, None, :, :]))


# -- checkpoint plumbing --------------------------------------------------


def _pack_state(nets, opts, pools, epoch, cfg):
    arrays = {}
    for net_name, group in nets.items():
        for pname, t in group.items():
            arrays[f"{net_name}/{pname}"] = t.data
    for net_name, state in opts.items():
        for pname in nets[net_name].names():
            if pname in state.m:
                arrays[f"opt/{net_name}/m/{pname}"] = state.m[pname]
                arrays[f"opt/{net_name}/v/{pname}"] = state.v[pname]
    pool_sizes = {}
    for pool_name, pool in pools.items():
        imgs = pool.state_arrays()
        pool_sizes[pool_name] = len(imgs)
        for i, img in enumerate(imgs):
            arrays[f"pool/{pool_name}/{i:04d}"] = img
    meta = {"format": "cyclesynth-train", "epoch": int(epoch),
            "config": cfg.to_dict(),
            "opt_t": {name: state.t for name, state in opts.items()},
            "pool_sizes": pool_sizes}
    return arrays, meta


def _unpack_state(arrays, meta, nets, opts, pools):
    for net_name, group in nets.items():
        group.load_state_arrays(
            {p: arrays[f"{net_name}/{p}"] for p in group.names()})
    for net_name, state in opts.items():
        state.t = int(meta["opt_t"][net_name])
        for pname in nets[net_name].names():
            key = f"opt/{net_name}/m/{pname}"
            if key in arrays:
                state.m[pname] = arrays[key].copy()
                state.v[pname] = arrays[f"opt/{net_name}/v/{pname}"].copy()
    for pool_name, pool in pools.items():
        count = int(meta.get("pool_sizes", {}).get(pool_name, 0))
        pool.load_state([arrays[f"pool/{pool_name}/{i:04d}"] for i in range(count)])


LOG_HEADER = ["epoch", "iter", "lr", "d_ct", "d_mr", "g_adv_ct", "g_adv_mr",
              "cycle", "total_g", "total_d"]

# the only config fields a resumed run may change; any other change would break
# the promise that a resumed run equals an unbroken one
RESUME_OVERRIDES = ("fixed_epochs", "decay_epochs", "checkpoint_every")


def run_training(mr_vols, ct_vols, cfg, out_dir, resume_from=None):
    """Train per config over SliceVolume lists; writes checkpoints and the CSV log.

    Returns a summary dict with the final checkpoint and log paths.
    """
    cfg.validate()
    if not mr_vols or not ct_vols:
        raise ValueError("run_training needs at least one volume per modality")
    if cfg.mode == "paired_baseline":
        if len(mr_vols) != len(ct_vols):
            raise ValueError("paired mode needs equal-length volume lists")
        for a, b in zip(mr_vols, ct_vols):
            if a.dims != b.dims:
                raise ValueError(f"paired volumes must share dims: {a.dims} vs {b.dims}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    nets = make_networks(cfg)
    opts = make_optimizers(nets)
    pools = {}
    if cfg.mode == "unpaired_cycle":
        pools = {"ct": ImagePool(cfg.image_pool_size),
                 "mr": ImagePool(cfg.image_pool_size)}

    start_epoch = 0
    if resume_from is not None:
        arrays, meta = read_checkpoint(resume_from)
        saved = meta.get("config", {})
        for key, value in cfg.to_dict().items():
            if key not in RESUME_OVERRIDES and saved.get(key) != value:
                raise ValueError(
                    f"resume config mismatch on {key}: checkpoint has "
                    f"{saved.get(key)!r}, run has {value!r}")
        _unpack_state(arrays, meta, nets, opts, pools)
        start_epoch = int(meta["epoch"])

    log_path = out_dir / "loss_log.csv"
    kept = []
    if resume_from is not None and log_path.exists():
        # keep the rows of the epochs the checkpoint holds; the rest are rerun
        with open(log_path, newline="") as f:
            kept = [r for r in f.readlines()[1:] if int(r.split(",", 1)[0]) < start_epoch]
    log_f = open(log_path, "w", newline="")
    log = csv.writer(log_f)
    log.writerow(LOG_HEADER)
    log_f.writelines(kept)

    if resume_from is None:
        final_ckpt = out_dir / "ckpt_epoch0.csyn"
        arrays, meta = _pack_state(nets, opts, pools, 0, cfg)
        write_checkpoint(final_ckpt, arrays, meta)
    else:
        final_ckpt = Path(resume_from)

    mr_index = _slice_index(mr_vols)
    ct_index = _slice_index(ct_vols)
    crop = _crop_plan(mr_vols + ct_vols, cfg)
    schedule = cfg.schedule()
    total = cfg.total_epochs

    try:
        for epoch in range(start_epoch, total):
            lr = lr_at(epoch, schedule)
            rng = {name: np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, k]))
                   for k, name in enumerate(_EPOCH_STREAMS, 1)}

            if cfg.mode == "unpaired_cycle":
                length = max(len(mr_index), len(ct_index))
                mr_seq = _epoch_order(mr_index, length, rng["order_mr"])
                ct_seq = _epoch_order(ct_index, length, rng["order_ct"])
                if len(mr_vols) > 1 and len(ct_vols) > 1:
                    ct_seq = _fix_same_volume_pairs(mr_seq, ct_seq)
            else:
                length = len(mr_index)
                mr_seq = _epoch_order(mr_index, length, rng["order_mr"])
                ct_seq = mr_seq  # aligned pairing by construction

            for it, k in enumerate(range(0, length, cfg.batch_size)):
                part = slice(k, min(k + cfg.batch_size, length))
                if cfg.mode == "unpaired_cycle":
                    i_mr = _batch_tensor(mr_vols, mr_seq[part], crop, rng["augment"])
                    i_ct = _batch_tensor(ct_vols, ct_seq[part], crop, rng["augment"])
                    b = train_step_unpaired(i_mr, i_ct, nets, opts,
                                            pools["ct"], pools["mr"], cfg, lr,
                                            rng["pool_ct"], rng["pool_mr"])
                else:
                    i_mr, i_ct = _paired_batch(mr_vols, ct_vols, mr_seq[part],
                                               crop, rng["augment"])
                    b = train_step_paired(i_mr, i_ct, nets, opts, cfg, lr)
                log.writerow([epoch, it, f"{lr:.8g}",
                              f"{b.d_ct:.6g}", f"{b.d_mr:.6g}",
                              f"{b.g_adv_ct:.6g}", f"{b.g_adv_mr:.6g}",
                              f"{b.cycle:.6g}", f"{b.total_g:.6g}",
                              f"{b.total_d:.6g}"])
            log_f.flush()

            done = epoch + 1
            if done % cfg.checkpoint_every == 0 or done == total:
                arrays, meta = _pack_state(nets, opts, pools, done, cfg)
                final_ckpt = out_dir / f"ckpt_epoch{done}.csyn"
                write_checkpoint(final_ckpt, arrays, meta)
    finally:
        log_f.close()

    return {"final_checkpoint": str(final_ckpt), "log": str(log_path),
            "epochs_run": total - start_epoch, "nets": nets, "opts": opts}
