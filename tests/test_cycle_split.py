"""The unpaired step split by cycle: each cycle's half backpropagates on its own, and
under a thread cap the backward half runs in a worker process. Outputs stay
byte-identical either way, and no process or shared-memory file outlives a run."""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

from cyclesynth import cli, data, engine, forked, train
from cyclesynth.engine import Tensor
from cyclesynth.losses import loss_cycle, loss_gen_adv, total_generator_loss
from cyclesynth.models import (discriminator_forward, generator_forward, init_params,
                               param_shapes)
from cyclesynth.optim import AdamState

from test_train import read_log, tiny_config, volume_pair

SHM = "/dev/shm"


def shm_entries():
    return set(os.listdir(SHM)) if os.path.isdir(SHM) else set()


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, a block that runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def processes(monkeypatch):
    """Run the block's trainings with `n` cycle processes; check that they leave no
    /dev/shm entry (conftest checks that they leave no process)."""
    before = shm_entries()

    def use(n):
        monkeypatch.setattr(train, "cycle_processes", lambda cfg: n)

    yield use
    assert shm_entries() <= before


def split_config(**over):
    return tiny_config(**{**dict(fixed_epochs=2, width_f=4, width_d=4, image_pool_size=2,
                                 checkpoint_every=1), **over})


def test_the_two_halves_sum_to_the_joint_gradient():
    cfg = split_config()
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(3)
    i_mr, i_ct = (Tensor(rng.uniform(-1, 1, (1, 1, 32, 32)).astype(np.float32))
                  for _ in range(2))

    # the joint backward of total_generator_loss, as one graph over both cycles
    fake_ct = generator_forward(nets["g_mr2ct"], i_mr)
    rec_mr = generator_forward(nets["g_ct2mr"], fake_ct)
    fake_mr = generator_forward(nets["g_ct2mr"], i_ct)
    rec_ct = generator_forward(nets["g_mr2ct"], fake_mr)
    with nets["d_ct"].frozen(), nets["d_mr"].frozen():
        total = total_generator_loss(loss_gen_adv(discriminator_forward(nets["d_ct"], fake_ct)),
                                     loss_gen_adv(discriminator_forward(nets["d_mr"], fake_mr)),
                                     loss_cycle(i_mr, rec_mr, i_ct, rec_ct), cfg.lam)
        engine.backward(total)
    joint = [t.grad for t in train._generator_tensors(nets)]

    halves = []
    for d_name, source, real in (("d_ct", i_mr, i_ct), ("d_mr", i_ct, i_mr)):
        for name in train._GENERATORS:  # each half's .grad on its own
            nets[name].zero_grad()
        train._cycle_half(d_name, source, real, nets, opts,
                          train.ImagePool(cfg.image_pool_size), np.random.default_rng(1),
                          cfg, 1e-3)
        halves.append([t.grad for t in train._generator_tensors(nets)])
    assert len(joint) == len(halves[0]) == len(halves[1]) > 0
    for j, a, b in zip(joint, *halves):
        assert (a + b).tobytes() == j.tobytes()


def test_a_two_process_step_leaves_no_gradient_in_the_main_process(processes):
    cfg = split_config()
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(0)
    i_mr, i_ct = (Tensor(rng.uniform(-1, 1, (1, 1, 32, 32)).astype(np.float32))
                  for _ in range(2))
    pools = train.ImagePool(3), train.ImagePool(3)
    worker = train._CycleWorker(nets, opts, pools[1], cfg)
    try:
        worker.begin_epoch(np.random.default_rng(2))
        with deadline(60):
            for _ in range(2):
                train.train_step_unpaired(i_mr, i_ct, nets, opts, *pools, cfg, 1e-3,
                                          np.random.default_rng(1), None, worker)
                assert all(t.grad is None for net in nets.values() for t in net.tensors())
    finally:
        worker.close()
    assert opts["g_mr2ct"].t == 2


def train_run(out, cfg, resume_from=None):
    mr, ct = volume_pair(n_vols=2, n_slices=3, size=32)
    train.run_training(mr, ct, cfg, out, resume_from=resume_from)
    return out


def tree_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("use_pool", [True, False])
def test_two_processes_write_the_bytes_of_one(tmp_path, processes, use_pool):
    cfg = split_config(use_pool=use_pool)
    processes(1)
    one = tree_bytes(train_run(tmp_path / "one", cfg))
    processes(2)
    two = tree_bytes(train_run(tmp_path / "two", cfg))
    assert list(one) == ["ckpt_epoch0.csyn", "ckpt_epoch1.csyn", "ckpt_epoch2.csyn",
                         "loss_log.csv"]
    assert one == two
    assert len(read_log(tmp_path / "two" / "loss_log.csv")) == 2 * 6


@pytest.mark.parametrize("first, then", [(2, 1), (1, 2)], ids=["2-1", "1-2"])
def test_a_checkpoint_resumes_in_either_process_count(tmp_path, processes, first, then):
    """From two processes into one, and from one into two, where the shared generators
    are the ones the checkpoint loaded."""
    cfg = split_config()
    processes(1)
    unbroken = tree_bytes(train_run(tmp_path / "unbroken", cfg))
    with deadline(60):
        processes(first)
        train_run(tmp_path / "split", dataclasses.replace(cfg, fixed_epochs=1))
        processes(then)
        resumed = tree_bytes(train_run(tmp_path / "split", cfg,
                                       resume_from=tmp_path / "split" / "ckpt_epoch1.csyn"))
    # the first leg's checkpoints store its own epoch count
    for name in ("ckpt_epoch2.csyn", "loss_log.csv"):
        assert resumed[name] == unbroken[name], name


def test_only_the_main_process_steps_a_generator(tmp_path, processes, monkeypatch):
    """The worker reads the generators from shared memory; their one Adam step per
    training step is the main process's."""
    processes(2)
    steps, adam = tmp_path / "adam_steps", train.adam_step
    generator = set(param_shapes("generator", 4))

    def logged_adam_step(params, state, lr):
        with open(steps, "a") as f:
            f.write(f"{os.getpid()} {set(params.names()) == generator}\n")
        return adam(params, state, lr)

    monkeypatch.setattr(train, "adam_step", logged_adam_step)  # before the worker forks
    with deadline(60):
        train_run(tmp_path / "run", split_config())
    lines = [line.split() for line in steps.read_text().splitlines()]
    assert [pid for pid, is_generator in lines if is_generator == "True"] == \
        [str(os.getpid())] * (2 * 2 * 6)  # 2 generators, 2 epochs of 6 steps
    assert len({pid for pid, _ in lines}) == 2  # the worker stepped d_mr through it


@pytest.mark.parametrize("bad, name", [("g_mr2ct", "g_adv_ct"), ("d_mr", "g_adv_mr")])
def test_the_first_non_finite_loss_is_named_across_processes(processes, bad, name):
    """g_adv_mr comes from the worker; it is named only after g_adv_ct is found finite."""
    cfg = split_config()
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    next(iter(nets[bad].tensors())).data[:] = np.nan
    rng = np.random.default_rng(0)
    i_mr, i_ct = (Tensor(rng.uniform(-1, 1, (1, 1, 32, 32)).astype(np.float32))
                  for _ in range(2))
    pools = train.ImagePool(3), train.ImagePool(3)
    worker = train._CycleWorker(nets, opts, pools[1], cfg)
    try:
        worker.begin_epoch(np.random.default_rng(2))
        with deadline(60), pytest.raises(train.NumericError,
                                         match=f"^non-finite value in {name}$"):
            train.train_step_unpaired(i_mr, i_ct, nets, opts, *pools, cfg, 1e-3,
                                      np.random.default_rng(1), None, worker)
    finally:
        worker.close()


def test_sync_leaves_a_non_finite_worker_value_to_the_epoch_end_check(processes):
    """sync reads the worker's share as resume reads a checkpoint, but checks no value:
    an inf in a d_mr moment comes back as it is, for the epoch-end check to name (exit
    3), where resume would refuse it (exit 2)."""
    cfg = split_config()
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    opts["d_mr"].t = 1
    for moments in (opts["d_mr"].m, opts["d_mr"].v):
        moments.update((p, np.zeros_like(t.data)) for p, t in nets["d_mr"].items())
    opts["d_mr"].v["c1.w"].flat[0] = np.inf
    pool = train.ImagePool(3)
    pool.load_state([np.ones((1, 32, 32), np.float32)])
    worker = train._CycleWorker(nets, opts, pool, cfg)
    try:
        # this process's copies go; sync must bring back the worker's
        opts["d_mr"], pool.images = AdamState(), []
        with deadline(60):
            worker.sync(nets, opts, pool, 32)
    finally:
        worker.close()
    assert opts["d_mr"].t == 1 and len(pool) == 1
    with pytest.raises(train.NumericError, match=r"^non-finite value in opt/d_mr/v/c1\.w$"):
        train._check_finite(train._state(nets, opts, {"mr": pool})[0].items())


def cli_train(workspace, out):
    return cli.main(["train", "--data", str(workspace), "--out", str(out),
                     "--epochs-fixed", "1", "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4", "--pool-size", "3"])


@pytest.fixture(scope="module")
def phantom(tmp_path_factory):
    out = tmp_path_factory.mktemp("split") / "data"
    assert cli.main(["phantom", "--out", str(out), "--volumes", "2", "--slices", "3",
                     "--size", "32x32"]) == 0
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_the_manifest_records_the_split(phantom, tmp_path, processes, n):
    processes(n)
    assert cli_train(phantom, tmp_path / "run") == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["cycle_processes"] == n


def test_a_killed_worker_ends_the_run_with_one_line(phantom, tmp_path, processes,
                                                     monkeypatch, capsys):
    processes(2)
    step = train.train_step_unpaired
    calls = []

    def kill_worker_at_the_second_step(*args):
        calls.append(1)
        if len(calls) == 2:
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
                child.join()
        return step(*args)

    monkeypatch.setattr(train, "train_step_unpaired", kill_worker_at_the_second_step)
    with deadline(60):
        rc = cli_train(phantom, tmp_path / "run")
    err = capsys.readouterr().err
    assert rc == 2 and len(calls) == 2
    assert re.fullmatch(r"error: backward-cycle worker \(pid \d+\) exited with code -9\n", err)


def test_a_worker_error_comes_back_as_one_line(phantom, tmp_path, processes,
                                               monkeypatch, capsys):
    processes(2)
    half = train._cycle_half

    def failing_backward_cycle(d_name, *args):
        if d_name == "d_mr":
            raise MemoryError("no room for the backward cycle")
        return half(d_name, *args)

    monkeypatch.setattr(train, "_cycle_half", failing_backward_cycle)
    with deadline(60):
        rc = cli_train(phantom, tmp_path / "run")
    err = capsys.readouterr().err
    assert rc == 2
    assert re.fullmatch(r"error: backward-cycle worker \(pid \d+\) failed: MemoryError: "
                        r"no room for the backward cycle\n", err)


@pytest.mark.parametrize("env, cpus, want", [
    ({}, 2, 1),
    ({"CYCLESYNTH_THREADS": "1"}, 2, 2),
    ({"CYCLESYNTH_THREADS": "1"}, 1, 1),
    ({"CYCLESYNTH_THREADS": "2"}, 2, 1),
    ({"CYCLESYNTH_THREADS": "2"}, 4, 2),
    ({"CYCLESYNTH_THREADS": "0"}, 4, 1),
    ({"CYCLESYNTH_THREADS": "many"}, 4, 1),
])
def test_two_processes_need_a_cap_and_twice_its_cpus(monkeypatch, env, cpus, want):
    """One rule for both jobs that split: an unpaired step and `infer`'s generator calls."""
    monkeypatch.delenv("CYCLESYNTH_THREADS", raising=False)
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert train.cycle_processes(split_config()) == want
    assert train.cycle_processes(split_config(mode="paired_baseline")) == 1

    class Forked(Exception):
        pass

    def no_fork(*args):
        raise Forked

    # 9 slices of 64x64 take two generator calls, so infer splits them when it may
    monkeypatch.setattr(forked, "Worker", no_fork)
    vol = data.SliceVolume("MR", np.zeros((9, 64, 64), np.uint8))
    with pytest.raises(Forked) if want == 2 else contextlib.nullcontext():
        cli.synthesize_volume(init_params("generator", 2, 0), vol, "SYNTH_CT")
