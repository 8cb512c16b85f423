"""`infer` split in two: under a thread cap with CPUs to spare, a forked worker makes the
second half of a volume's generator calls. The output stays byte-identical, a one-call
volume starts no worker, and a failed worker ends the command with one line and no
output file, process or shared-memory file left behind."""

import os
import re
import signal

import pytest

from cyclesynth import cli, forked

from test_cycle_split import deadline, shm_entries


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """An untrained width-4 checkpoint and MR volumes of 9 slices of 128x128 (five
    generator calls, the last of one slice) and of 8 slices of 64x64 (one call)."""
    root = tmp_path_factory.mktemp("infer_split")
    for name, size, slices in (("big", "128x128", 9), ("small", "64x64", 8)):
        assert cli.main(["phantom", "--out", str(root / name), "--volumes", "1",
                         "--slices", str(slices), "--size", size]) == 0
    assert cli.main(["train", "--data", str(root / "small"), "--out", str(root / "run"),
                     "--epochs-fixed", "0", "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4"]) == 0
    return root


@pytest.fixture
def processes(monkeypatch):
    """Run the block's commands in `n` processes; check that they leave no /dev/shm
    entry (conftest checks that they leave no process)."""
    before = shm_entries()

    def use(n):
        monkeypatch.setattr(forked, "processes", lambda: n)

    yield use
    assert shm_entries() <= before


def infer(workspace, out, volume="big"):
    with deadline(60):
        return cli.main(["infer", "--ckpt", str(workspace / "run" / "ckpt_epoch0.csyn"),
                         "--in", str(workspace / volume / "mr_000.svol"),
                         "--direction", "mr2ct", "--out", str(out)])


@pytest.fixture
def calls(tmp_path, monkeypatch):
    """Log each generator call's process and slice count; returns the log's reader."""
    log, forward = tmp_path / "calls", cli.generator_forward

    def logged(group, batch):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {len(batch.data)}\n")
        return forward(group, batch)

    monkeypatch.setattr(cli, "generator_forward", logged)  # before the worker forks

    def read():
        lines = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        return lines

    return read


def test_two_processes_write_the_bytes_of_one(workspace, tmp_path, processes, calls):
    main = str(os.getpid())
    processes(1)
    assert infer(workspace, tmp_path / "one.svol") == 0
    assert calls() == [[main, "2"]] * 4 + [[main, "1"]]
    processes(2)
    assert infer(workspace, tmp_path / "two.svol") == 0
    made = calls()
    assert [c for c in made if c[0] == main] == [[main, "2"]] * 2
    worker = [c for c in made if c[0] != main]
    assert [n for _, n in worker] == ["2", "2", "1"] and len({p for p, _ in worker}) == 1
    assert (tmp_path / "one.svol").read_bytes() == (tmp_path / "two.svol").read_bytes()


def test_a_one_call_volume_starts_no_worker(workspace, tmp_path, processes, calls,
                                            monkeypatch):
    processes(2)
    started = []
    monkeypatch.setattr(forked, "Worker", lambda *args: started.append(args))
    assert infer(workspace, tmp_path / "x.svol", volume="small") == 0
    assert started == [] and calls() == [[str(os.getpid()), "8"]]


def fail_in_the_worker(monkeypatch, how):
    """Make the worker's first generator call fail `how`; the main process's calls run."""
    main, forward = os.getpid(), cli.generator_forward

    def failing(group, batch):
        if os.getpid() != main:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError("no room for the worker's half")
        return forward(group, batch)

    monkeypatch.setattr(cli, "generator_forward", failing)


@pytest.mark.parametrize("how, line", [
    ("killed", r"exited with code -9"),
    ("raises", r"failed: MemoryError: no room for the worker's half"),
])
def test_a_failed_worker_ends_infer_with_one_line(workspace, tmp_path, processes,
                                                  monkeypatch, capsys, how, line):
    processes(2)
    fail_in_the_worker(monkeypatch, how)
    out = tmp_path / "out" / "x.svol"
    out.parent.mkdir()
    assert infer(workspace, out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: infer worker \(pid \d+\) {line}\n", captured.err)
    assert list(out.parent.iterdir()) == []  # no output and no temp file
