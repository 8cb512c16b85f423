"""A training step split in two halves: an unpaired step by cycle, a paired step of 2 or
more slices by its batch. Each half backpropagates on its own, and under a thread cap
the second half runs in a worker process. Outputs stay byte-identical either way, and
no process or shared-memory file outlives a run."""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys

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
    """Run the block's trainings with `n` processes wherever cycle_processes splits a
    step; check that they leave no /dev/shm entry (conftest checks that they leave no
    process)."""
    before = shm_entries()

    def use(n):
        monkeypatch.setattr(forked, "processes", lambda: n)

    yield use
    assert shm_entries() <= before


def split_config(**over):
    return tiny_config(**{**dict(fixed_epochs=2, width_f=4, width_d=4, image_pool_size=2,
                                 checkpoint_every=1), **over})


PAIRED = dict(mode="paired_baseline", batch_size=4)


@pytest.fixture
def started(monkeypatch):
    """The role of every forked.Worker started from here on."""
    roles, worker = [], forked.Worker

    def recorded(role, *args):
        roles.append(role)
        return worker(role, *args)

    monkeypatch.setattr(forked, "Worker", recorded)
    return roles


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
    def generator_grads():
        return [t.grad for name in train._GENERATORS for t in nets[name].tensors()]

    joint = generator_grads()

    halves = []
    for d_name, source, real in (("d_ct", i_mr, i_ct), ("d_mr", i_ct, i_mr)):
        for name in train._GENERATORS:  # each half's .grad on its own
            nets[name].zero_grad()
        train._cycle_half(d_name, source, real, nets, opts,
                          train.ImagePool(cfg.image_pool_size), np.random.default_rng(1),
                          cfg, 1e-3)
        halves.append(generator_grads())
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
    worker = train._step_worker(cfg, nets, opts, {"ct": pools[0], "mr": pools[1]})
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


def train_run(out, cfg, resume_from=None, n_vols=2):
    mr, ct = volume_pair(n_vols=n_vols, n_slices=3, size=32)
    train.run_training(mr, ct, cfg, out, resume_from=resume_from)
    return out


def tree_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("over, n_vols, steps, role", [
    pytest.param(dict(use_pool=True), 2, 6, "backward-cycle", id="True"),
    pytest.param(dict(use_pool=False), 2, 6, "backward-cycle", id="False"),
    # 6 slices: batches of 4 (2 + 2) and 2 (1 + 1)
    pytest.param(PAIRED, 2, 2, "paired-half", id="paired-4"),
    # 6 slices: two batches of 3, split 1 + 2
    pytest.param(dict(PAIRED, batch_size=3), 2, 2, "paired-half", id="paired-3"),
    # 9 slices: four batches of 2 (1 + 1) and a last batch of 1, which does not split
    pytest.param(dict(PAIRED, batch_size=2), 3, 5, "paired-half", id="paired-2"),
])
def test_two_processes_write_the_bytes_of_one(tmp_path, processes, started, over, n_vols,
                                               steps, role):
    cfg = split_config(**over)
    processes(1)
    one = tree_bytes(train_run(tmp_path / "one", cfg, n_vols=n_vols))
    assert started == []
    processes(2)
    two = tree_bytes(train_run(tmp_path / "two", cfg, n_vols=n_vols))
    assert started == [role]
    assert list(one) == ["ckpt_epoch0.csyn", "ckpt_epoch1.csyn", "ckpt_epoch2.csyn",
                         "loss_log.csv"]
    assert one == two
    assert len(read_log(tmp_path / "two" / "loss_log.csv")) == 2 * steps


@pytest.mark.parametrize("over, first, then", [
    pytest.param({}, 2, 1, id="2-1"), pytest.param({}, 1, 2, id="1-2"),
    pytest.param(PAIRED, 2, 1, id="paired-2-1"), pytest.param(PAIRED, 1, 2, id="paired-1-2")])
def test_a_checkpoint_resumes_in_either_process_count(tmp_path, processes, over, first,
                                                      then):
    """From two processes into one, and from one into two, where the shared networks
    are the ones the checkpoint loaded."""
    cfg = split_config(**over)
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


def test_only_the_main_process_steps_a_paired_network(tmp_path, processes, monkeypatch):
    """The paired worker owns no state: both networks' Adam steps are the main
    process's, one each per step."""
    processes(2)
    steps, adam = tmp_path / "adam_steps", train.adam_step

    def logged_adam_step(params, state, lr):
        with open(steps, "a") as f:
            f.write(f"{os.getpid()}\n")
        return adam(params, state, lr)

    monkeypatch.setattr(train, "adam_step", logged_adam_step)  # before the worker forks
    with deadline(60):
        train_run(tmp_path / "run", split_config(**PAIRED))
    assert steps.read_text().split() == [str(os.getpid())] * (2 * 2 * 2)  # 2 nets, 2x2 steps


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
    worker = train._step_worker(cfg, nets, opts, {"ct": pools[0], "mr": pools[1]})
    try:
        worker.begin_epoch(np.random.default_rng(2))
        with deadline(60), pytest.raises(train.NumericError,
                                         match=f"^non-finite value in {name}$"):
            train.train_step_unpaired(i_mr, i_ct, nets, opts, *pools, cfg, 1e-3,
                                      np.random.default_rng(1), None, worker)
    finally:
        worker.close()


def test_a_non_finite_loss_of_the_paired_worker_half_is_named(processes):
    """A NaN in the second half of the batch reaches only the worker's half; its losses
    come back into the sums the step checks."""
    cfg = split_config(**PAIRED)
    nets = train.make_networks(cfg)
    opts = train.make_optimizers(nets)
    rng = np.random.default_rng(0)
    i_mr, i_ct = (rng.uniform(-1, 1, (4, 1, 32, 32)).astype(np.float32) for _ in range(2))
    i_mr[3] = np.nan
    worker = train._step_worker(cfg, nets, opts, {})
    try:
        with deadline(60), np.errstate(all="ignore"), pytest.raises(
                train.NumericError, match="^non-finite value in g_adv_ct$"):
            train.train_step_paired(Tensor(i_mr), Tensor(i_ct), nets, opts, cfg, 1e-3,
                                    worker)
    finally:
        worker.close()
    assert all(t.grad is not None for net in nets.values() for t in net.tensors())


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
    worker = train._step_worker(cfg, nets, opts, {"ct": train.ImagePool(3), "mr": pool})
    try:
        # this process's copies go; sync must bring back the worker's
        vars(opts["d_mr"]).update(vars(AdamState()))
        pool.images = []
        with deadline(60):
            worker.sync(32)
    finally:
        worker.close()
    assert opts["d_mr"].t == 1 and len(pool) == 1
    with pytest.raises(train.NumericError, match=r"^non-finite value in opt/d_mr/v/c1\.w$"):
        train._check_finite(train._state(nets, opts, {"mr": pool})[0].items())


TRAIN_ARGS = ["--epochs-fixed", "1", "--epochs-decay", "0", "--width-f", "4", "--width-d",
              "4", "--pool-size", "3"]
PAIRED_ARGS = ["--mode", "paired", "--batch", "4"]


def cli_train(workspace, out, *extra):
    return cli.main(["train", "--data", str(workspace), "--out", str(out), *TRAIN_ARGS,
                     *extra])


@pytest.fixture(scope="module")
def phantom(tmp_path_factory):
    out = tmp_path_factory.mktemp("split") / "data"
    assert cli.main(["phantom", "--out", str(out), "--volumes", "2", "--slices", "3",
                     "--size", "32x32"]) == 0
    return out


@pytest.mark.parametrize("extra, n", [
    pytest.param([], 1, id="1"), pytest.param([], 2, id="2"),
    pytest.param(PAIRED_ARGS, 1, id="paired-1"), pytest.param(PAIRED_ARGS, 2, id="paired-2")])
def test_the_manifest_records_the_split(phantom, tmp_path, processes, extra, n):
    processes(n)
    assert cli_train(phantom, tmp_path / "run", *extra) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["cycle_processes"] == n


def test_a_paired_batch_of_one_starts_no_worker(phantom, tmp_path, processes,
                                                  monkeypatch):
    """A batch of 1 is never split, so a paired run at batch 1 runs in one process even
    where a batch of 2 would take two, and its manifest says so."""
    processes(2)

    def no_worker(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(forked, "Worker", no_worker)
    assert cli_train(phantom, tmp_path / "run", "--mode", "paired", "--batch", "1") == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["cycle_processes"] == 1


def killed_worker_run(phantom, out, monkeypatch, step_name, *extra):
    """The exit code of a `train` whose worker is killed at its second step, and the
    number of steps taken."""
    step = getattr(train, step_name)
    calls = []

    def kill_worker_at_the_second_step(*args):
        calls.append(1)
        if len(calls) == 2:
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
                child.join()
        return step(*args)

    monkeypatch.setattr(train, step_name, kill_worker_at_the_second_step)
    with deadline(60):
        return cli_train(phantom, out, *extra), len(calls)


def test_a_killed_worker_ends_the_run_with_one_line(phantom, tmp_path, processes,
                                                     monkeypatch, capsys):
    processes(2)
    rc, calls = killed_worker_run(phantom, tmp_path / "run", monkeypatch,
                                  "train_step_unpaired")
    err = capsys.readouterr().err
    assert rc == 2 and calls == 2
    assert re.fullmatch(r"error: backward-cycle worker \(pid \d+\) exited with code -9\n", err)


def test_a_killed_paired_worker_ends_the_run_with_one_line(phantom, tmp_path, processes,
                                                            monkeypatch, capsys):
    processes(2)
    rc, calls = killed_worker_run(phantom, tmp_path / "run", monkeypatch,
                                  "train_step_paired", *PAIRED_ARGS)
    err = capsys.readouterr().err
    assert rc == 2 and calls == 2
    assert re.fullmatch(r"error: paired-half worker \(pid \d+\) exited with code -9\n", err)


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


def test_a_paired_worker_error_comes_back_as_one_line(phantom, tmp_path, processes,
                                                      monkeypatch, capsys):
    processes(2)
    half, main = train._paired_half, os.getpid()

    def failing_in_the_worker(*args):
        if os.getpid() != main:
            raise MemoryError("no room for the second half")
        return half(*args)

    monkeypatch.setattr(train, "_paired_half", failing_in_the_worker)
    with deadline(60):
        rc = cli_train(phantom, tmp_path / "run", *PAIRED_ARGS)
    err = capsys.readouterr().err
    assert rc == 2
    assert re.fullmatch(r"error: paired-half worker \(pid \d+\) failed: MemoryError: "
                        r"no room for the second half\n", err)


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
    """One rule for every job that splits: an unpaired step, a paired step of 2 or more
    slices and `infer`'s generator calls. A paired batch of 1 never splits."""
    monkeypatch.delenv("CYCLESYNTH_THREADS", raising=False)
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert train.cycle_processes(split_config()) == want
    assert train.cycle_processes(split_config(**PAIRED)) == want
    assert train.cycle_processes(split_config(mode="paired_baseline", batch_size=2)) == want
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


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_a_paired_train_command_writes_the_same_bytes_on_one_cpu_and_two(phantom,
                                                                         tmp_path):
    """`cyclesynth train --mode paired --batch 4` under CYCLESYNTH_THREADS=1 takes two
    processes on 2 CPUs and one when pinned to one CPU, with the same outputs."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "CYCLESYNTH_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cpu = min(os.sched_getaffinity(0))
    runs = {}
    for name, pin in (("two", None), ("one", lambda: os.sched_setaffinity(0, {cpu}))):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "cyclesynth.cli", "train", "--data",
                               str(phantom), "--out", str(out), *TRAIN_ARGS, *PAIRED_ARGS],
                              capture_output=True, text=True, env=env, preexec_fn=pin,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        runs[name] = manifest["cycle_processes"], {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    assert runs["two"][0] == 2 and runs["one"][0] == 1
    assert list(runs["one"][1]) == ["ckpt_epoch0.csyn", "ckpt_epoch1.csyn", "loss_log.csv"]
    assert runs["two"][1] == runs["one"][1]
