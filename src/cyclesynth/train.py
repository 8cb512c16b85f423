"""Training orchestration: the two-generator cycle loop and the paired baseline.

One unpaired iteration runs the forward cycle (MR -> CT -> MR) and the
backward cycle (CT -> MR -> CT). Each backpropagates its adversarial term plus
the weighted cycle term into both generators and updates its discriminator on
real slices versus pool-sampled synthesized ones; both generators then take
one Adam step on the sum of the two cycles' gradients. One paired iteration on
a batch of 2 or more runs as two halves of its batch, each backpropagating its
share of the generator and discriminator losses; a batch of 1 is one half.
Every backward adds into .grad, and only _step, after the Adam step that uses
it, clears it, so no network holds a gradient between steps. Under a BLAS
thread cap with CPUs to spare, a step's second half (the backward cycle, the
second half of a paired batch) runs in a worker process (cycle_processes)
that reads the one copy of the networks it uses from shared memory, with
byte-identical results.

Determinism contract: every random choice of an epoch (slice order,
crop offsets, pool sampling) is drawn from streams derived from
(seed, epoch), and mutable state (parameters, optimizer moments, pool
buffers) round-trips through checkpoints bitwise. Resuming from a
checkpoint therefore continues exactly the run that produced it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import engine, forked
from .checkpoint import meta_field, read_checkpoint, write_checkpoint
from .data import augment, pad_and_crop, pad_margin, to_model_range, write_atomic, write_json
from .engine import Tensor
from .losses import (  # loss_cycle, loss_paired, total_generator_loss: traced by name
    LossBreakdown,
    cycle_l1,
    loss_cycle,
    loss_dis,
    loss_gen_adv,
    loss_paired,
    total_generator_loss,
    voxel_l1,
)
from .models import (GENERATOR_DIVISOR, ParamGroup, disc_output_size, discriminator_forward,
                     generator_forward, init_params, param_shapes)
from .optim import AdamState, adam_step, lr_at

MODES = ("unpaired_cycle", "paired_baseline")

# stream tables, the index is the tag: network k draws its init from
# [seed, 101, k] (checkpoint order; paired mode builds the first two) and
# epoch stream k from [seed, epoch, k], counting from 1
_NETS = (("g_mr2ct", "generator"), ("d_ct", "discriminator"),
         ("g_ct2mr", "generator"), ("d_mr", "discriminator"))
_INIT_TAG = 101
_EPOCH_STREAMS = ("order_mr", "order_ct", "augment", "pool_ct", "pool_mr")


class NumericError(RuntimeError):
    """A loss, parameter or Adam moment went non-finite; carries the name of the first."""


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
        for name in ("lam", "mu", "base_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                problems.append(f"{name} must be finite and >= 0, got {value}")
        for name, low in (("fixed_epochs", 0), ("decay_epochs", 0), ("batch_size", 1),
                          ("image_pool_size", 1), ("seed", 0), ("width_f", 1),
                          ("width_d", 1), ("checkpoint_every", 1)):
            if getattr(self, name) < low:
                problems.append(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.crop_size is not None and (self.crop_size < 4 or self.crop_size % 4):
            problems.append("crop_size must be a positive multiple of 4")
        if problems:
            raise ValueError("invalid training config: " + "; ".join(problems))
        return self

    def to_dict(self):
        return asdict(self)

    @property
    def total_epochs(self):
        return self.fixed_epochs + self.decay_epochs


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


def _check_finite(named):
    """Raise NumericError naming the first of the (name, value) pairs whose value, a
    loss or an array, holds a non-finite number."""
    for name, value in named:
        if not np.isfinite(value).all():
            raise NumericError(f"non-finite value in {name}")


def _dis_loss(net, real, fake):
    """loss_dis of one discriminator pass over real and fake stacked as one batch.

    Instance norm is per sample, so each half scores as a pass of its own would.
    """
    score = discriminator_forward(net, Tensor(np.concatenate([real, fake])))
    return loss_dis(*engine.split_batch(score, len(real)))


def _step(nets, opts, names, lr):
    """Adam-step the named networks on the gradients their backwards added up, then
    clear those gradients, so none outlives the step that uses it."""
    for name in names:
        adam_step(nets[name], opts[name], lr)
        nets[name].zero_grad()


def _dis_update(nets, opts, name, real, fake, lr):
    """One update of discriminator `name` on real versus (detached) fake arrays; returns
    its float32 loss."""
    loss = _dis_loss(nets[name], real, fake)
    engine.backward(loss)
    _step(nets, opts, (name,), lr)
    return loss.item()


def _generator_backward(nets, d_name, fake, l1, weight, share):
    """Backward of share * (adv + weight * l1), where adv scores `fake` on d_name, frozen:
    adds one gradient into the .grad of each generator parameter upstream. Returns the
    float32 adv and adv + weight * l1."""
    with nets[d_name].frozen():
        adv = loss_gen_adv(discriminator_forward(nets[d_name], fake))
        total = engine.add(adv, float(weight) * l1)
        engine.backward(share * total)
    return adv.item(), total.item()


# the cycle each discriminator scores: the generator into its domain, then back
_CYCLES = {"d_ct": ("g_mr2ct", "g_ct2mr"), "d_mr": ("g_ct2mr", "g_mr2ct")}
_GENERATORS = ("g_mr2ct", "g_ct2mr")


def _cycle_half(d_name, source, real, nets, opts, pool, pool_rng, cfg, lr):
    """One cycle's half of an unpaired step. `source` goes through both generators and
    back; the generator backward of adv + lam * L1(rec, source) adds this cycle's one
    gradient into each generator parameter's .grad. Then d_name updates on `real`
    versus the (pooled) fake. Returns the float32 adv, L1 and d_name losses; checking
    them is the caller's."""
    first, second = _CYCLES[d_name]
    fake = generator_forward(nets[first], source)
    l1 = cycle_l1(source, generator_forward(nets[second], fake))
    adv, _ = _generator_backward(nets, d_name, fake, l1, cfg.lam, 1.0)
    fake_d = pool.query(fake.data, pool_rng) if cfg.use_pool else fake.data
    return adv, l1.item(), _dis_update(nets, opts, d_name, real.data, fake_d, lr)


def train_step_unpaired(i_mr, i_ct, nets, opts, pool_ct, pool_mr, cfg, lr,
                        pool_rng_ct, pool_rng_mr, worker):
    """One generator update and two discriminator updates; returns the breakdown.

    The generator loss is a sum over the two cycles, and each generator parameter
    takes one gradient from each, so the two halves' sum in .grad has the joint
    backward's bits. This process runs the forward cycle MR -> CT -> MR and updates
    d_ct. The backward cycle CT -> MR -> CT and d_mr's update run after it here, its
    backward adding into the first half's .grad, or, with a worker (a _StepWorker), at
    the same time in the worker, which then holds d_mr, pool_mr and its stream;
    pool_mr and pool_rng_mr go unused. Either way this process takes the one Adam step
    of each generator, after the backward cycle is done.
    """
    if worker is not None:
        worker.start(i_mr.data, i_ct.data, lr)
    g_ct, l1_mr, d_ct_v = _cycle_half("d_ct", i_mr, i_ct, nets, opts, pool_ct,
                                      pool_rng_ct, cfg, lr)
    if worker is None:
        g_mr, l1_ct, d_mr_v = _cycle_half("d_mr", i_ct, i_mr, nets, opts, pool_mr,
                                          pool_rng_mr, cfg, lr)
    else:
        g_mr, l1_ct, d_mr_v = worker.exchange()
    c = engine.add(Tensor(l1_mr), Tensor(l1_ct)).item()
    _check_finite((("g_adv_ct", g_ct), ("g_adv_mr", g_mr), ("cycle", c),
                   ("d_ct", d_ct_v), ("d_mr", d_mr_v)))
    _step(nets, opts, _GENERATORS, lr)
    return LossBreakdown(d_ct=d_ct_v, d_mr=d_mr_v, g_adv_ct=g_ct, g_adv_mr=g_mr, cycle=c,
                         total_g=g_ct + g_mr + cfg.lam * c, total_d=d_ct_v + d_mr_v)


def _paired_half(i_mr, i_ct, share, nets, cfg):
    """A paired step's work on some of its samples (arrays), a `share` of its batch: the
    generator backward of share * (adv + mu * voxel L1), d_ct frozen, then the backward
    of share * loss_dis on d_ct, real i_ct against the detached fake. It adds one
    gradient into each parameter's .grad of g_mr2ct and d_ct and steps neither, so d_ct
    scores with the weights the generator backward saw. Returns the adv, voxel L1, adv
    + mu * L1 and d_ct losses, float32 each, times share."""
    fake = generator_forward(nets["g_mr2ct"], Tensor(i_mr))
    l1 = voxel_l1(fake, Tensor(i_ct))
    adv, total = _generator_backward(nets, "d_ct", fake, l1, cfg.mu, share)
    d = _dis_loss(nets["d_ct"], i_ct, fake.data)
    engine.backward(share * d)
    return tuple(share * v for v in (adv, l1.item(), total, d.item()))


def train_step_paired(i_mr, i_ct_aligned, nets, opts, cfg, lr, worker):
    """Paired-baseline iteration on a batch of N, in two halves: its first N // 2 samples
    and the rest (_paired_half), or, when N is 1, one half of the whole batch. Every loss
    is a mean over samples or over equal score maps, so the batch's objective is the sum
    over the halves of each half's objective times its share n/N of the batch, and so
    are its gradients and logged losses. The second half runs after the first here, its
    backwards adding into the first half's .grad, or, with a worker (a _StepWorker), at
    the same time in the worker. Then the losses are checked, and g_mr2ct and d_ct take
    one Adam step each on the halves' sum. The cycle column carries the batch's voxel L1,
    without mu, so the log keeps one schema; the MR-side fields are unused (zero)."""
    n = len(i_mr.data)
    cut = n // 2 or n
    second = (i_mr.data[cut:], i_ct_aligned.data[cut:], (n - cut) / n)
    if worker is not None and cut < n:
        worker.start(*second)
    losses = _paired_half(i_mr.data[:cut], i_ct_aligned.data[:cut], cut / n, nets, cfg)
    if cut < n:
        more = worker.exchange() if worker is not None else _paired_half(*second, nets, cfg)
        losses = [a + b for a, b in zip(losses, more)]
    adv, l1, total, d_v = losses
    _check_finite((("g_adv_ct", adv), ("paired", total), ("d_ct", d_v)))
    _step(nets, opts, ("g_mr2ct", "d_ct"), lr)
    return LossBreakdown(d_ct=d_v, d_mr=0.0, g_adv_ct=adv, g_adv_mr=0.0, cycle=l1,
                         total_g=total, total_d=d_v)


# -- the second half of a step in a worker process -------------------------


def cycle_processes(cfg):
    """Processes each step of a run with cfg runs in: forked.processes(), with the second
    half of the step (an unpaired step's backward cycle, the second half of a paired
    batch) in a _StepWorker when that is 2. A paired batch of 1 is never split, so a
    paired run at batch_size 1 runs in 1."""
    if cfg.mode == "paired_baseline" and cfg.batch_size == 1:
        return 1
    return forked.processes()


class _StepWorker:
    """The second half of every step of a run, run in a forked.Worker named `role`:
    half(*args, epoch_arg) of each start(*args) and the last begin_epoch(epoch_arg). It
    adds into the .grad of the `shared` networks (ParamGroups) and returns its losses.
    `owned` is the state only the worker updates, as the nets, opts and pools of
    _state.

    The fork gives the child this process's networks, Adam state and pools as they are
    at the first step. The shared networks exist once: before the fork each of their
    tensors' .data moves into a shared arena (forked.shared_zeros) that also holds one
    gradient slot per tensor, and Adam updates the views in place. Nothing may rebind a
    shared .data while the worker lives: checkpoints load before it starts, and sync
    loads only what the worker owns. After close the views keep the arena alive as long
    as the networks. At each epoch's end the child replies to "state" with `owned` in
    the checkpoint's layout, which sync reads as resume does (_load_state). The rest goes
    through the pipe, whose messages order every access to the arena, with no lock:
    - the child reads the shared networks only between receiving "step" and sending
      "done"; before it sends "done" it copies their .grad into the slot and drops them,
      so its next half starts from none;
    - this process writes the shared networks only between receiving "done" and sending
      the next "step" or "state": it adds the slot into their .grad and takes their Adam
      steps.
    """

    def __init__(self, role, half, shared, owned):
        self._tensors = [t for net in shared for t in net.tensors()]
        size = sum(t.data.size for t in self._tensors)
        arena = forked.shared_zeros((2 * size,), np.float32)
        self._slot, k = [], 0
        for t in self._tensors:
            view = arena[k:k + t.data.size].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self._slot.append(arena[size + k:size + k + t.data.size].reshape(t.data.shape))
            k += t.data.size
        self._owned = owned
        self._worker = forked.Worker(role, _worker_main, half, self._tensors, self._slot,
                                     owned)

    def begin_epoch(self, epoch_arg):
        self._worker.send(("epoch", epoch_arg))

    def start(self, *args):
        self._worker.send(("step", *args))

    def exchange(self):
        """Wait for the second half and add its gradients into the shared networks'
        .grad, which hold the first half's; returns its losses. From here to the next
        start or sync, the worker does not read the shared networks, so this process may
        step them."""
        losses = self._worker.recv()
        for t, shared in zip(self._tensors, self._slot):
            t.grad += shared
        return losses

    def sync(self, crop):
        """Load the state the worker owns into this process's copy of it through
        _load_state. The shared networks are already this process's."""
        self._worker.send(("state",))
        _load_state(*self._worker.recv(), crop, *self._owned)

    def close(self):
        """End the worker (closing the pipe ends its loop). The shared networks stay in
        the arena, which is freed with the last view of it."""
        self._worker.close()
        self._slot = None


def _step_worker(cfg, nets, opts, pools):
    """The _StepWorker of cfg's mode. An unpaired step's second half is its backward
    cycle, and the worker owns d_mr, its Adam state, pool_mr and pool_mr's stream, which
    begin_epoch gives it; a paired step's is the second half of its batch, whose worker
    owns nothing, since this process steps both networks."""
    if cfg.mode == "unpaired_cycle":
        return _StepWorker(
            "backward-cycle",
            lambda i_mr, i_ct, lr, pool_rng: _cycle_half(
                "d_mr", Tensor(i_ct), Tensor(i_mr), nets, opts, pools["mr"], pool_rng, cfg,
                lr),
            [nets[name] for name in _GENERATORS],
            ({"d_mr": nets["d_mr"]}, {"d_mr": opts["d_mr"]}, {"mr": pools["mr"]}))
    return _StepWorker(
        "paired-half",
        lambda i_mr, i_ct, share, _: _paired_half(i_mr, i_ct, share, nets, cfg),
        [nets["g_mr2ct"], nets["d_ct"]], ({}, {}, {}))


def _worker_main(conn, half, tensors, slot, owned):
    """The worker's loop: one half step per step message until the pipe closes."""
    epoch_arg = None
    with np.errstate(all="ignore"):
        while True:
            msg = conn.recv()
            if msg[0] == "epoch":
                epoch_arg = msg[1]
            elif msg[0] == "state":
                conn.send(("state", *_state(*owned)))
            else:
                losses = half(*msg[1:], epoch_arg)
                for shared, t in zip(slot, tensors):
                    shared[...] = t.grad
                    t.grad = None  # handed off: the only clear outside _step
                conn.send(("done", *losses))


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


def check_inputs(mr_vols, ct_vols, cfg):
    """Check the training volumes against cfg, before anything is written; returns the
    crop: crop_size, or the side of square slices. Every slice must fit in the crop
    plus its pad margin, which random crops pad it to, and the networks must take the
    crop."""
    if not mr_vols or not ct_vols:
        raise ValueError("run_training needs at least one volume per modality")
    if cfg.mode == "paired_baseline":
        if len(mr_vols) != len(ct_vols):
            raise ValueError("paired mode needs equal-length volume lists")
        for a, b in zip(mr_vols, ct_vols):
            if a.dims != b.dims:
                raise ValueError(f"paired volumes must share dims: {a.dims} vs {b.dims}")
    volumes = mr_vols + ct_vols
    h, w = volumes[0].dims[1], volumes[0].dims[2]
    if cfg.crop_size is None and h != w:
        raise ValueError(f"crop_size must be set for non-square slices ({h}x{w})")
    crop = h if cfg.crop_size is None else cfg.crop_size
    side = max(max(v.dims[1:]) for v in volumes)
    if side > crop + pad_margin(crop):
        raise ValueError(f"crop_size {crop} plus its pad margin {pad_margin(crop)} is "
                         f"below the largest slice side {side}")
    if crop % GENERATOR_DIVISOR or disc_output_size(crop) < 1:
        raise ValueError(f"crop_size {crop} does not fit the networks, which need a "
                         f"multiple of {GENERATOR_DIVISOR} that leaves the discriminator "
                         "a nonempty score map")
    return crop


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


def _state(nets, opts, pools):
    """A run's state in the checkpoint's layout, its one writer: key -> array of every
    parameter, then of every Adam moment, then of every pool image, and the counts,
    {"opt_t": Adam steps per network, "pool_sizes": images per pool}. The arrays are
    the state's own."""
    arrays = {f"{net}/{p}": t.data for net, group in nets.items() for p, t in group.items()}
    for net, state in opts.items():
        for p in state.m:
            arrays[f"opt/{net}/m/{p}"] = state.m[p]
            arrays[f"opt/{net}/v/{p}"] = state.v[p]
    for name, pool in pools.items():
        arrays.update((f"pool/{name}/{i:04d}", img) for i, img in enumerate(pool.images))
    return arrays, {"opt_t": {net: state.t for net, state in opts.items()},
                    "pool_sizes": {name: len(pool) for name, pool in pools.items()}}


def _load_state(arrays, counts, crop, nets, opts, pools):
    """Load arrays and counts, laid out as _state lays them out, into nets, opts and
    pools; its one reader. A network that has taken opt_t > 0 Adam steps takes both
    moments of every parameter, and one with opt_t == 0 must hold none. A missing entry
    raises KeyError naming it; an entry whose shape is not that of the array it
    replaces, a moment of a network with opt_t == 0 or a pool beyond its capacity
    raises ValueError. No value is checked: _load_checked (resume, infer) refuses a
    non-finite one, and in training the epoch-end check names it."""
    def entry(key, shape):
        if arrays[key].shape != shape:
            raise ValueError(f"{key} has shape {arrays[key].shape}, not {shape}")
        return arrays[key]

    for net, group in nets.items():
        group.load_state_arrays({p: entry(f"{net}/{p}", t.data.shape) for p, t in group.items()})
    for net, state in opts.items():
        state.t = counts["opt_t"][net]
        stray = [key for key in arrays if key.startswith(f"opt/{net}/")]
        if stray and not state.t:
            raise ValueError(f"{stray[0]} is a moment of {net}, whose opt_t is 0")
        shapes = {p: t.data.shape for p, t in nets[net].items()} if state.t else {}
        state.m = {p: entry(f"opt/{net}/m/{p}", shape) for p, shape in shapes.items()}
        state.v = {p: entry(f"opt/{net}/v/{p}", shape) for p, shape in shapes.items()}
    for name, pool in pools.items():
        pool.load_state([entry(f"pool/{name}/{i:04d}", (1, crop, crop))
                         for i in range(counts["pool_sizes"][name])])


def _load_checked(path, arrays, counts, crop, nets, opts, pools):
    """_load_state of checkpoint `path`'s arrays and counts, then one pass that refuses
    any non-finite entry loaded. Each refusal raises ValueError naming path and the
    entry's key."""
    try:
        _load_state(arrays, counts, crop, nets, opts, pools)
        for key, value in _state(nets, opts, pools)[0].items():
            if not np.isfinite(value).all():
                raise ValueError(f"{key} has a non-finite value")
    except KeyError as e:
        raise ValueError(f"checkpoint {path} has no entry {e}") from e
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from e


def read_generator(path, arrays, meta, name):
    """Generator `name` of checkpoint `path`, whose read_checkpoint gave arrays and meta,
    loaded as _resume loads a run (_load_checked): each entry must be there, finite and
    of its shape at config.width_f. A checkpoint with no entry of that network at all
    raises ValueError naming its mode."""
    config = meta_field(path, meta, "config", dict)
    width = meta_field(path, config, "config.width_f", int)
    if not any(key.startswith(f"{name}/") for key in arrays):
        raise ValueError(f"checkpoint {path} has no {name} network "
                         f"(mode {config.get('mode')!r})")
    group = ParamGroup()
    for p, shape in param_shapes("generator", width).items():
        # a shape to check against, which allocates nothing at any width
        group.add(p, np.broadcast_to(np.float32(0), shape))
    _load_checked(path, arrays, {}, None, {name: group}, {}, {})
    return group


def _end_epoch(path, epoch, cfg, nets, opts, pools):
    """Check that every array of the run's state is finite once `epoch` epochs are done
    (0: a fresh run's start), then, if path is given, write those same arrays to it as
    that epoch's checkpoint. A finite loss can still leave inf in an Adam moment (g * g
    overflows), which would silently freeze its parameter; the first non-finite array
    raises NumericError. The arrays die on return: a rebound .data or a replaced pool
    image is not held into the next epoch."""
    arrays, counts = _state(nets, opts, pools)
    _check_finite(arrays.items())
    if path is not None:
        write_checkpoint(path, arrays, {"format": "cyclesynth-train", "epoch": epoch,
                                        "config": cfg.to_dict(), **counts})


LOG_NAME = "loss_log.csv"
CKPT_NAME = "ckpt_epoch{}.csyn"  # .format(epochs done)
LOG_HEADER = ["epoch", "iter", "lr", *(f.name for f in fields(LossBreakdown))]
_LOG_EOL = csv.excel.lineterminator.encode()  # what csv.writer ends each row with

# the only config fields a resumed run may change; any other change would break
# the promise that a resumed run equals an unbroken one
RESUME_OVERRIDES = ("fixed_epochs", "decay_epochs", "checkpoint_every")


def _resume(path, cfg, crop, nets, opts, pools):
    """Load checkpoint `path`, which must hold a run with cfg's settings up to an epoch
    not past cfg's last, into nets, opts and pools; returns its epoch. Checked in turn:
    the config, the types of the meta fields, then through _load_checked, which infer's
    read_generator shares, each entry _load_state reads (its presence, its shape, the
    moment rule, the pools' capacity) and the finiteness of every entry loaded, and last
    the epoch. Each refusal raises ValueError naming the file and, for an entry, its
    key. The parameters and moments become the checkpoint's own arrays, and the rest of
    it is dropped on return."""
    arrays, meta = read_checkpoint(path)
    saved = meta_field(path, meta, "config", dict)
    for key, value in cfg.to_dict().items():
        if key not in RESUME_OVERRIDES and saved.get(key) != value:
            raise ValueError(f"checkpoint {path}: resume config mismatch on {key}: "
                             f"checkpoint has {saved.get(key)!r}, run has {value!r}")
    counts = {}
    for field, names in (("opt_t", opts), ("pool_sizes", pools)):
        got = meta_field(path, meta, field, dict)
        counts[field] = {name: meta_field(path, got, f"{field}.{name}", int) for name in names}
    _load_checked(path, arrays, counts, crop, nets, opts, pools)
    epoch = meta_field(path, meta, "epoch", int)
    if epoch > cfg.total_epochs:
        raise ValueError(f"checkpoint {path}: epoch {epoch} is past the "
                         f"run's last epoch {cfg.total_epochs}")
    return epoch


def _kept_log_rows(log_path, epoch):
    """The rows of log_path below its header for the epochs before `epoch`, which the
    checkpoint holds; the rest are rerun. A row that does not end in the writer's line
    terminator was cut by a crash and is dropped; a whole row whose epoch is not an
    integer raises ValueError naming the log."""
    if not log_path.exists():
        return []
    with open(log_path, "rb") as f:
        rows = f.readlines()[1:]
    kept = []
    for line, row in enumerate(rows, 2):
        if not row.endswith(_LOG_EOL):
            continue
        try:
            row_epoch = int(row.split(b",", 1)[0])
        except ValueError:
            raise ValueError(f"{log_path}: line {line} has no integer epoch") from None
        if row_epoch < epoch:
            kept.append(row)
    return kept


def run_training(mr_vols, ct_vols, cfg, out_dir, resume_from=None, provenance=None):
    """Train per config over SliceVolume lists. Every check (config, volumes and crop,
    the resume checkpoint and its log rows) runs before out_dir is created; then
    manifest.json, the log header and a fresh run's ckpt_epoch0 are written, in that
    order. The manifest is written if provenance, the caller's record of the tool,
    command and inputs, is given: this adds the run's own fields, its config,
    cycle_processes, resume_from and output paths. Returns a summary dict with the
    final checkpoint and log paths."""
    cfg.validate()
    crop = check_inputs(mr_vols, ct_vols, cfg)
    out_dir = Path(out_dir)
    processes = cycle_processes(cfg)

    nets = make_networks(cfg)
    opts = make_optimizers(nets)
    pools = {}
    if cfg.mode == "unpaired_cycle":
        pools = {"ct": ImagePool(cfg.image_pool_size),
                 "mr": ImagePool(cfg.image_pool_size)}

    log_path = out_dir / LOG_NAME
    start_epoch, kept = 0, []
    if resume_from is not None:
        start_epoch = _resume(resume_from, cfg, crop, nets, opts, pools)
        kept = _kept_log_rows(log_path, start_epoch)
    out_dir.mkdir(parents=True, exist_ok=True)
    if provenance is not None:
        write_json(out_dir / "manifest.json", {
            **provenance, "config": cfg.to_dict(), "cycle_processes": processes,
            "resume_from": None if resume_from is None else str(resume_from),
            "outputs": {"dir": str(out_dir), "log": str(log_path),
                        "checkpoints": str(out_dir / CKPT_NAME.format("{N}"))}})
    # the header and kept rows reach the disk whole before any epoch runs
    write_atomic(log_path, [",".join(LOG_HEADER).encode() + _LOG_EOL, *kept])
    log_f = open(log_path, "a", newline="")
    log = csv.writer(log_f)

    if resume_from is None:
        final_ckpt = out_dir / CKPT_NAME.format(0)
        _end_epoch(final_ckpt, 0, cfg, nets, opts, pools)
    else:
        final_ckpt = Path(resume_from)

    mr_index = _slice_index(mr_vols)
    ct_index = _slice_index(ct_vols)
    total = cfg.total_epochs
    worker = None

    try:
        for epoch in range(start_epoch, total):
            lr = lr_at(epoch, cfg.base_lr, cfg.fixed_epochs, cfg.decay_epochs)
            rng = {name: np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, k]))
                   for k, name in enumerate(_EPOCH_STREAMS, 1)}
            if processes == 2:
                worker = worker or _step_worker(cfg, nets, opts, pools)

            if cfg.mode == "unpaired_cycle":
                length = max(len(mr_index), len(ct_index))
                mr_seq = _epoch_order(mr_index, length, rng["order_mr"])
                ct_seq = _epoch_order(ct_index, length, rng["order_ct"])
                if len(mr_vols) > 1 and len(ct_vols) > 1:
                    ct_seq = _fix_same_volume_pairs(mr_seq, ct_seq)
                if worker is not None:
                    worker.begin_epoch(rng["pool_mr"])
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
                                            rng["pool_ct"], rng["pool_mr"], worker)
                else:
                    i_mr, i_ct = _paired_batch(mr_vols, ct_vols, mr_seq[part],
                                               crop, rng["augment"])
                    b = train_step_paired(i_mr, i_ct, nets, opts, cfg, lr, worker)
                log.writerow([epoch, it, f"{lr:.8g}", *(f"{v:.6g}" for v in astuple(b))])
            if worker is not None:
                worker.sync(crop)
            log_f.flush()

            done, path = epoch + 1, None
            if done % cfg.checkpoint_every == 0 or done == total:
                path = final_ckpt = out_dir / CKPT_NAME.format(done)
            _end_epoch(path, done, cfg, nets, opts, pools)
    finally:
        log_f.close()
        if worker is not None:
            worker.close()

    return {"final_checkpoint": str(final_ckpt), "log": str(log_path),
            "epochs_run": total - start_epoch, "nets": nets, "opts": opts}
