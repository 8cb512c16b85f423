"""Command line behavior: exit codes, artifacts, determinism."""

import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import cli, data, engine, evalx, forked, selfcheck
from cyclesynth.checkpoint import read_checkpoint, write_checkpoint
from cyclesynth.models import init_params, param_shapes

from helpers import file_size_limit, gradcheck, traced_peak

MAE_A = [70.3, 76.2, 75.5, 75.2, 72.0, 73.0]
PSNR_A = [31.1, 32.1, 32.9, 32.9, 32.3, 32.5]
MAE_B = [86.2, 98.8, 96.9, 86.0, 81.7, 87.0]
PSNR_B = [29.3, 30.1, 30.1, 31.7, 31.2, 30.9]
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Phantom data plus one tiny trained run, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    datadir = root / "data"
    rundir = root / "run"
    assert cli.main(["phantom", "--out", str(datadir), "--volumes", "2",
                     "--slices", "2", "--size", "24x24", "--seed", "5"]) == 0
    assert cli.main(["train", "--data", str(datadir), "--out", str(rundir),
                     "--epochs-fixed", "1", "--epochs-decay", "0",
                     "--width-f", "4", "--width-d", "4",
                     "--checkpoint-every", "1", "--seed", "3"]) == 0
    return root


# -- usage ----------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 1


def test_unknown_flag_is_usage_error():
    assert cli.main(["phantom", "--out", "x", "--frobnicate"]) == 1


def test_bad_choice_is_usage_error():
    assert cli.main(["infer", "--ckpt", "a", "--in", "b",
                     "--direction", "sideways", "--out", "c"]) == 1


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    assert "cyclesynth" in capsys.readouterr().out


def test_malformed_size_is_usage_error():
    assert cli.main(["phantom", "--out", "x", "--size", "64"]) == 1


# -- phantom --------------------------------------------------------------


def test_phantom_file_count_and_alignment(tmp_path):
    out = tmp_path / "ph"
    assert cli.main(["phantom", "--out", str(out), "--volumes", "3",
                     "--slices", "2", "--size", "24x24"]) == 0
    svols = sorted(p.name for p in out.glob("*.svol"))
    assert len(svols) == 6  # file count 2N, plus alignment.json
    assert (out / "alignment.json").exists()
    meta = json.loads((out / "alignment.json").read_text())
    assert np.array(meta["shifts"]).shape == (3, 2, 2)
    assert np.all(np.array(meta["shifts"]) == 0)  # no misalignment requested
    assert meta["files"] == svols or sorted(meta["files"]) == svols


def test_phantom_deterministic(tmp_path):
    args = ["--volumes", "1", "--slices", "2", "--size", "24x24", "--seed", "9"]
    assert cli.main(["phantom", "--out", str(tmp_path / "a")] + args) == 0
    assert cli.main(["phantom", "--out", str(tmp_path / "b")] + args) == 0
    for name in ("mr_000.svol", "ct_000.svol", "alignment.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_phantom_rejects_bad_geometry(tmp_path):
    assert cli.main(["phantom", "--out", str(tmp_path), "--size", "30x32"]) == 2


def test_phantom_rejects_zero_volumes(tmp_path, capsys):
    out = tmp_path / "ph"
    assert cli.main(["phantom", "--out", str(out), "--volumes", "0"]) == 2
    assert "--volumes" in capsys.readouterr().err
    assert not (out / "alignment.json").exists()


@pytest.mark.parametrize("flags,flag", [
    pytest.param(["--size", "0x0"], "--size", id="size-0x0"),
    pytest.param(["--size", "64x0"], "--size", id="size-64x0"),
    pytest.param(["--slices", "0"], "--slices", id="slices-0"),
    pytest.param(["--seed", "-1"], "--seed", id="seed--1"),
    pytest.param(["--shape-seed", "-1"], "--shape-seed", id="shape-seed--1"),
])
def test_phantom_rejects_empty_geometry_before_writing(tmp_path, capsys, flags, flag):
    out = tmp_path / "ph"
    assert cli.main(["phantom", "--out", str(out)] + flags) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# -- train ----------------------------------------------------------------


def test_train_artifacts(workspace):
    run = workspace / "run"
    assert (run / "manifest.json").exists()
    assert (run / "loss_log.csv").exists()
    assert (run / "ckpt_epoch0.csyn").exists()
    assert (run / "ckpt_epoch1.csyn").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "unpaired_cycle"
    assert manifest["config"]["seed"] == 3
    assert len(manifest["inputs"]) == 4
    for digest in manifest["inputs"].values():
        assert len(digest) == 64  # sha256 hex


def test_train_no_pool_skips_the_pools_and_resumes_exactly(workspace, tmp_path, monkeypatch):
    def query(*args):
        raise AssertionError("ImagePool.query called under --no-pool")

    monkeypatch.setattr(cli.train.ImagePool, "query", query)
    base = ["train", "--data", str(workspace / "data"), "--no-pool", "--width-f", "4",
            "--width-d", "4", "--checkpoint-every", "1", "--seed", "3", "--epochs-decay", "0"]
    assert cli.main(base + ["--out", str(tmp_path / "whole"), "--epochs-fixed", "2"]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "split"), "--epochs-fixed", "1"]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "split"), "--epochs-fixed", "2",
                            "--resume", str(tmp_path / "split" / "ckpt_epoch1.csyn")]) == 0
    arrays, meta = read_checkpoint(tmp_path / "whole" / "ckpt_epoch2.csyn")
    assert meta["config"]["use_pool"] is False
    assert meta["pool_sizes"] == {"ct": 0, "mr": 0}
    assert not [k for k in arrays if k.startswith("pool/")]
    for name in ("ckpt_epoch2.csyn", "loss_log.csv"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_train_missing_data_dir(tmp_path):
    assert cli.main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_train_rejects_non_positive_volume_limit(workspace, tmp_path, capsys, limit):
    out = tmp_path / "o"
    assert cli.main(["train", "--data", str(workspace / "data"), "--out", str(out),
                     "--epochs-fixed", "0", "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4", "--limit-volumes", limit]) == 2
    assert "--limit-volumes" in capsys.readouterr().err
    assert not (out / "ckpt_epoch0.csyn").exists()


@pytest.fixture(scope="module")
def phantom32(tmp_path_factory):
    out = tmp_path_factory.mktemp("p32") / "data"
    assert cli.main(["phantom", "--out", str(out), "--volumes", "1",
                     "--slices", "2", "--size", "32x32"]) == 0
    return out


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag,field", [("--lambda", "lam"), ("--mu", "mu"),
                                        ("--lr", "base_lr")])
def test_train_rejects_non_finite_or_negative_weights(phantom32, tmp_path, capsys,
                                                      flag, field, value):
    out = tmp_path / "o"
    assert cli.main(["train", "--data", str(phantom32), "--out", str(out),
                     "--epochs-fixed", "0", "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid training config:")
    assert f"{field} must be finite and >= 0, got {float(value)}" in err
    assert not (out / "manifest.json").exists()


def test_train_rejects_negative_seed_before_writing(phantom32, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["train", "--data", str(phantom32), "--out", str(out),
                     "--epochs-fixed", "0", "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "error: invalid training config: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_train_rejects_crop_below_the_slices_before_writing(phantom32, tmp_path, capsys):
    # 32x32 slices do not fit a crop of 24 padded by its margin of 2
    out = tmp_path / "o"
    assert cli.main(["train", "--data", str(phantom32), "--out", str(out),
                     "--epochs-fixed", "1", "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4", "--crop", "24"]) == 2
    assert capsys.readouterr().err == ("error: crop_size 24 plus its pad margin 2 is below "
                                       "the largest slice side 32\n")
    assert not out.exists()


# numeric flags, each with the text that names it in an exit-2 message: the flag
# itself or its config field
PHANTOM_FLAGS = {"--volumes": "--volumes", "--slices": "--slices",
                 "--misalign-px": "max_shift_px", "--misalign-prob": "shift_probability",
                 "--seed": "--seed", "--shape-seed": "--shape-seed"}
TRAIN_FLAGS = {"--epochs-fixed": "fixed_epochs", "--epochs-decay": "decay_epochs",
               "--lambda": "lam", "--mu": "mu", "--lr": "base_lr", "--batch": "batch_size",
               "--width-f": "width_f", "--width-d": "width_d", "--crop": "crop_size",
               "--pool-size": "image_pool_size", "--checkpoint-every": "checkpoint_every",
               "--limit-volumes": "--limit-volumes", "--seed": "seed"}


def _edge_values(flags):
    return st.tuples(st.just(flags), st.dictionaries(
        st.sampled_from(sorted(flags)), st.sampled_from(["0", "-1", "nan", "inf"]),
        min_size=1, max_size=2))


@pytest.fixture(scope="module")
def phantom1(tmp_path_factory):
    out = tmp_path_factory.mktemp("p1") / "data"
    assert cli.main(["phantom", "--out", str(out), "--volumes", "1",
                     "--slices", "1", "--size", "32x32"]) == 0
    return out


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(_edge_values(PHANTOM_FLAGS), _edge_values(TRAIN_FLAGS)))
def test_edge_flag_values_end_in_a_documented_exit(phantom1, tmp_path_factory, case):
    """0, -1, nan and inf on the numeric flags of a tiny phantom or train run end in
    exit 0-3 without a traceback, and an exit 2 prints one error line naming the flag."""
    flags, values = case
    out = tmp_path_factory.mktemp("edge") / "o"
    if flags is PHANTOM_FLAGS:
        argv = ["phantom", "--out", str(out), "--volumes", "1", "--slices", "1",
                "--size", "32x32"]
    else:
        argv = ["train", "--data", str(phantom1), "--out", str(out), "--epochs-fixed", "1",
                "--epochs-decay", "0", "--width-f", "4", "--width-d", "4"]
    for flag, value in values.items():
        argv += [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert any(flags[flag] in err for flag in values), err


def test_train_invalid_config(workspace, tmp_path):
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path), "--batch", "0"]) == 2


def test_train_zero_epochs_and_manifest_first(workspace, tmp_path):
    out = tmp_path / "zero"
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(out), "--epochs-fixed", "0",
                     "--epochs-decay", "0", "--width-f", "4",
                     "--width-d", "4"]) == 0
    assert (out / "ckpt_epoch0.csyn").exists()
    assert (out / "loss_log.csv").read_text().strip() == ",".join(
        ["epoch", "iter", "lr", "d_ct", "d_mr", "g_adv_ct", "g_adv_mr",
         "cycle", "total_g", "total_d"])
    assert (out / "manifest.json").exists()


def test_train_failure_still_leaves_manifest(workspace, tmp_path, capsys):
    # a cycle weight this large passes every input check, but Adam's g * g
    # overflows inside the run; the manifest must already be on disk by then
    out = tmp_path / "broken"
    rc = cli.main(["train", "--data", str(workspace / "data"), "--out", str(out),
                   "--lambda", "1e30", "--limit-volumes", "1", "--epochs-fixed", "1",
                   "--epochs-decay", "0", "--width-f", "4", "--width-d", "4"])
    assert rc == 3
    assert "numeric failure: non-finite value in opt/" in capsys.readouterr().err
    assert (out / "manifest.json").exists()
    assert not (out / "ckpt_epoch1.csyn").exists()


def test_train_input_error_writes_nothing(workspace, tmp_path, capsys):
    # paired mode on 2 MR and 1 CT volumes fails the input checks before any write
    lopsided = tmp_path / "data"
    lopsided.mkdir()
    for name in ("mr_000.svol", "mr_001.svol", "ct_000.svol"):
        (lopsided / name).write_bytes((workspace / "data" / name).read_bytes())
    out = tmp_path / "broken"
    rc = cli.main(["train", "--data", str(lopsided), "--out", str(out),
                   "--mode", "paired", "--epochs-fixed", "1",
                   "--epochs-decay", "0", "--width-f", "4", "--width-d", "4"])
    assert rc == 2
    assert "paired mode needs equal-length volume lists" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("side, make", [
    pytest.param(16, "phantom", id="16-empty-score-map"),
    pytest.param(30, "svol", id="30-not-a-multiple-of-4"),
])
def test_train_refuses_a_crop_the_networks_cannot_take(tmp_path, capsys, side, make):
    # both passed the input checks, wrote manifest.json, loss_log.csv and ckpt_epoch0,
    # and then failed in the first forward pass of the discriminator or the generator
    datadir = tmp_path / "data"
    if make == "phantom":
        assert cli.main(["phantom", "--out", str(datadir), "--volumes", "2", "--slices",
                         "2", "--size", f"{side}x{side}", "--seed", "5"]) == 0
    else:
        datadir.mkdir()
        for name in ("mr_000", "ct_000"):
            data.save_volume(data.SliceVolume(name[:2].upper(),
                                              np.zeros((2, side, side), np.uint8)),
                             datadir / f"{name}.svol")
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(datadir), "--out", str(out), "--width-f", "4",
                     "--width-d", "4", "--epochs-fixed", "1", "--epochs-decay", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: crop_size {side} does not fit the networks, which need a multiple of 4 "
        "that leaves the discriminator a nonempty score map\n")
    assert not out.exists()


def test_train_resume_rejects_other_seed(workspace, tmp_path, capsys):
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "resumed"),
                     "--epochs-fixed", "2", "--epochs-decay", "0",
                     "--width-f", "4", "--width-d", "4", "--checkpoint-every", "1",
                     "--seed", "4",
                     "--resume", str(workspace / "run" / "ckpt_epoch1.csyn")]) == 2
    err = capsys.readouterr().err
    assert "resume config mismatch on seed" in err
    assert f"checkpoint {workspace / 'run' / 'ckpt_epoch1.csyn'}:" in err


def _resume_argv(workspace, out, ckpt):
    """train --resume from ckpt into out, for one epoch past the workspace run's one."""
    return ["train", "--data", str(workspace / "data"), "--out", str(out),
            "--epochs-fixed", "2", "--epochs-decay", "0", "--width-f", "4", "--width-d", "4",
            "--checkpoint-every", "1", "--seed", "3", "--resume", str(ckpt)]


def _run_log(workspace, out):
    """out, made to hold a copy of the workspace run's log; returns that log's bytes."""
    out.mkdir()
    shutil.copy(workspace / "run" / "loss_log.csv", out / "loss_log.csv")
    return (out / "loss_log.csv").read_bytes()


def _tree(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _damage_entry(arrays, key, damage):
    """arrays with entry key damaged; returns what the resume must print after the
    checkpoint's path."""
    if damage == "removed":
        del arrays[key]
        return f" has no entry '{key}'"
    if damage == "truncated":
        shape = arrays[key].shape
        arrays[key] = arrays[key][..., :-1]
        return f": {key} has shape {arrays[key].shape}, not {shape}"
    arrays[key] = arrays[key].copy()
    arrays[key].flat[-1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[damage]
    return f": {key} has a non-finite value"


@pytest.mark.parametrize("damage", ["truncated", "nan", "removed"])
@pytest.mark.parametrize("key", ["g_mr2ct/stem.w", "opt/g_mr2ct/m/stem.w",
                                 "opt/g_mr2ct/v/stem.w", "pool/ct/0001"])
def test_train_resume_checks_every_kind_of_state_entry(workspace, tmp_path, capsys, key,
                                                       damage):
    # only pool images were checked: a moment of another shape failed in numpy with
    # "non-broadcastable output operand", naming no file, a NaN parameter or moment
    # exited 3 as a non-finite g_adv_ct, and a removed moment resumed without it and
    # trained on; each wrote manifest.json and loss_log.csv before it failed
    arrays, meta = read_checkpoint(workspace / "run" / "ckpt_epoch1.csyn")
    tail = _damage_entry(arrays, key, damage)
    bad = tmp_path / "bad.csyn"
    write_checkpoint(bad, arrays, meta)
    out = tmp_path / "resumed"
    _run_log(workspace, out)
    before = _tree(out)
    assert cli.main(_resume_argv(workspace, out, bad)) == 2
    assert capsys.readouterr().err == f"error: checkpoint {bad}{tail}\n"
    assert _tree(out) == before


def test_train_resume_refuses_moments_of_a_network_with_no_adam_step(workspace, tmp_path,
                                                                    capsys):
    # they were loaded under a step count of 0, so Adam's bias correction restarted on
    # moments that had already taken a step
    arrays, meta = read_checkpoint(workspace / "run" / "ckpt_epoch1.csyn")
    meta["opt_t"]["g_mr2ct"] = 0
    bad = tmp_path / "bad.csyn"
    write_checkpoint(bad, arrays, meta)
    out = tmp_path / "resumed"
    _run_log(workspace, out)
    before = _tree(out)
    assert cli.main(_resume_argv(workspace, out, bad)) == 2
    assert capsys.readouterr().err == (f"error: checkpoint {bad}: opt/g_mr2ct/m/stem.w is "
                                       "a moment of g_mr2ct, whose opt_t is 0\n")
    assert _tree(out) == before


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_damaged_state_entry_refuses_the_resume_and_touches_no_file(workspace,
                                                                       tmp_path_factory,
                                                                       data):
    """One entry of a real checkpoint, removed, cut short in its last axis or holding a
    NaN or an infinity, makes train --resume exit 2 with one error line naming the
    checkpoint and the key, before it writes any file."""
    arrays, meta = read_checkpoint(workspace / "run" / "ckpt_epoch1.csyn")
    key = data.draw(st.sampled_from(sorted(arrays)), label="key")
    damage = data.draw(st.sampled_from(["removed", "truncated", "nan", "inf", "-inf"]),
                       label="damage")
    tail = _damage_entry(arrays, key, damage)
    tmp = tmp_path_factory.mktemp("entry")
    bad = tmp / "bad.csyn"
    write_checkpoint(bad, arrays, meta)
    out = tmp / "resumed"
    _run_log(workspace, out)
    before = _tree(out)
    rc, err = _run_quietly(_resume_argv(workspace, out, bad))
    assert (rc, err) == (2, f"error: checkpoint {bad}{tail}\n")
    assert key in err and _tree(out) == before


@pytest.mark.parametrize("epoch", [b"O", b"\xff"], ids=["letter", "not-utf-8"])
def test_train_resume_names_a_log_row_without_an_integer_epoch(workspace, tmp_path, capsys,
                                                               epoch):
    # these printed "invalid literal for int() ..." and "'utf-8' codec can't decode ...",
    # naming no file
    out = tmp_path / "resumed"
    log = _run_log(workspace, out).replace(b"\r\n0,1,", b"\r\n" + epoch + b",1,")
    (out / "loss_log.csv").write_bytes(log)
    ckpt = workspace / "run" / "ckpt_epoch1.csyn"
    assert cli.main(_resume_argv(workspace, out, ckpt)) == 2
    assert capsys.readouterr().err == \
        f"error: {out / 'loss_log.csv'}: line 3 has no integer epoch\n"
    assert (out / "loss_log.csv").read_bytes() == log


def test_a_resume_killed_at_its_first_step_keeps_the_log(workspace, tmp_path):
    # the log was opened with "w" and its rows buffered, so it was left at 0 bytes
    out = tmp_path / "resumed"
    log = _run_log(workspace, out)
    code = ("import os, signal, sys\n"
            "from cyclesynth import cli, train\n"
            "train.train_step_unpaired = lambda *a: os.kill(os.getpid(), signal.SIGKILL)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = _resume_argv(workspace, out, workspace / "run" / "ckpt_epoch1.csyn")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == -9, proc.stderr
    assert (out / "loss_log.csv").read_bytes() == log


def test_train_resume_past_the_last_epoch_exits_2_and_keeps_the_log(workspace, tmp_path,
                                                                     capsys):
    # the checkpoint holds epoch 1; a run of 0 epochs has nothing to resume into
    ckpt = workspace / "run" / "ckpt_epoch1.csyn"
    out = tmp_path / "resumed"
    out.mkdir()
    log = (workspace / "run" / "loss_log.csv").read_bytes()
    (out / "loss_log.csv").write_bytes(log)
    argv = ["train", "--data", str(workspace / "data"), "--out", str(out),
            "--epochs-decay", "0", "--width-f", "4", "--width-d", "4",
            "--checkpoint-every", "1", "--seed", "3", "--resume", str(ckpt)]
    assert cli.main(argv + ["--epochs-fixed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: checkpoint {ckpt}: epoch 1 ")
    assert (out / "loss_log.csv").read_bytes() == log
    # a resume at exactly the last epoch has nothing left to train, and succeeds
    assert cli.main(argv + ["--epochs-fixed", "1"]) == 0
    assert capsys.readouterr().out.startswith("trained 0 epochs")
    assert (out / "loss_log.csv").read_bytes() == log


def _bad_log_row(run):
    log = run / "loss_log.csv"
    log.write_bytes(log.read_bytes().replace(b"\r\n0,1,", b"\r\nO,1,"))


@pytest.mark.parametrize("flags, damage, message", [
    pytest.param(["--seed", "4"], None, "error: checkpoint {ckpt}: resume config mismatch "
                 "on seed: checkpoint has 3, run has 4", id="config-mismatch"),
    pytest.param(["--epochs-fixed", "0"], None, "error: checkpoint {ckpt}: epoch 1 is past "
                 "the run's last epoch 0", id="past-the-last-epoch"),
    pytest.param([], lambda run: (run / "ckpt_epoch1.csyn").unlink(),
                 "error: [Errno 2] No such file or directory: '{ckpt}'", id="no-checkpoint"),
    pytest.param([], _bad_log_row, "error: {out}/loss_log.csv: line 3 has no integer epoch",
                 id="log-row"),
])
def test_a_refused_resume_touches_no_file_in_out(workspace, tmp_path, capsys, flags, damage,
                                                 message):
    # the manifest used to be written first, so it described a run that never trained
    run = tmp_path / "run"
    shutil.copytree(workspace / "run", run)
    if damage:
        damage(run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    ckpt = run / "ckpt_epoch1.csyn"
    # a refused log row needs the run's log; the other refusals also try a fresh --out
    outs = [run] + ([tmp_path / "fresh"] if damage is not _bad_log_row else [])
    for out in outs:
        assert cli.main(_resume_argv(workspace, out, ckpt) + flags) == 2
        assert capsys.readouterr().err == message.format(ckpt=ckpt, out=out) + "\n"
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert not (tmp_path / "fresh").exists()


# -- damaged containers ---------------------------------------------------


def _damaged_argv(workspace, tmp_path, case):
    ckpt = workspace / "run" / "ckpt_epoch1.csyn"
    mr = workspace / "data" / "mr_000.svol"
    ct = workspace / "data" / "ct_000.svol"
    if case == "truncated_csyn_to_infer":
        cut = tmp_path / "cut.csyn"
        cut.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
        return ["infer", "--ckpt", str(cut), "--in", str(mr),
                "--direction", "mr2ct", "--out", str(tmp_path / "x.svol")]
    if case == "bad_magic_svol_to_eval":
        bad = tmp_path / "bad.svol"
        bad.write_bytes(b"XVOL1" + ct.read_bytes()[5:])
        return ["eval", "--real", str(bad), "--synth", str(ct), "--mask-from", "compute"]
    return ["train", "--data", str(workspace / "data"), "--out", str(tmp_path / "r"),
            "--epochs-fixed", "2", "--epochs-decay", "0", "--width-f", "4",
            "--width-d", "4", "--seed", "3", "--resume", str(mr)]


@pytest.mark.parametrize("case,message", [
    ("truncated_csyn_to_infer", "past end of file"),
    ("bad_magic_svol_to_eval", "bad magic b'XVOL1'"),
    ("svol_as_train_resume", "bad magic b'SVOL1'"),
])
def test_damaged_container_exits_2(workspace, tmp_path, capsys, case, message):
    assert cli.main(_damaged_argv(workspace, tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err and "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_containers(phantom1, tmp_path_factory):
    """A width-4 generator checkpoint and one-slice 32x32 volumes, intact, plus a
    scratch directory for damaged copies."""
    root = tmp_path_factory.mktemp("tiny")
    assert cli.main(["train", "--data", str(phantom1), "--out", str(root / "run"),
                     "--epochs-fixed", "0", "--epochs-decay", "0",
                     "--width-f", "4", "--width-d", "4"]) == 0
    arrays, meta = read_checkpoint(root / "run" / "ckpt_epoch0.csyn")
    write_checkpoint(root / "g.csyn", {k: a for k, a in arrays.items()
                                       if k.startswith("g_mr2ct/")}, meta)
    (root / "damaged").mkdir()
    return {"csyn": root / "g.csyn", "mr": phantom1 / "mr_000.svol",
            "ct": phantom1 / "ct_000.svol", "damaged": root / "damaged"}


def _damage(raw, at, byte):
    """raw cut before byte `at` (byte None), or with one header byte replaced."""
    if byte is None:
        return raw[:at % len(raw)]
    header_end = 9 + int.from_bytes(raw[5:9], "little")
    at %= header_end
    return raw[:at] + bytes([byte]) + raw[at + 1:]


@settings(max_examples=300, deadline=None)
@given(role=st.sampled_from(["ckpt", "infer-in", "eval-real", "eval-synth"]),
       at=st.integers(0, 2**31), byte=st.one_of(st.none(), st.integers(0, 255)))
def test_damaged_containers_end_in_a_documented_exit(tiny_containers, role, at, byte):
    """A CSYN1 or SVOL file cut at any byte, or with any one header byte replaced,
    makes `infer` or `eval` exit 0-3 without a traceback; an exit 2 names the file.
    (A flipped payload bit still reads silently: the format has no checksum.)"""
    t = tiny_containers
    source = t["csyn"] if role == "ckpt" else t["mr"] if role == "infer-in" else t["ct"]
    bad = t["damaged"] / source.name
    bad.write_bytes(_damage(source.read_bytes(), at, byte))
    out = t["damaged"] / "out.svol"
    argv = {
        "ckpt": ["infer", "--ckpt", bad, "--in", t["mr"], "--direction", "mr2ct", "--out", out],
        "infer-in": ["infer", "--ckpt", t["csyn"], "--in", bad, "--direction", "mr2ct",
                     "--out", out],
        "eval-real": ["eval", "--real", bad, "--synth", t["ct"], "--mask-from", "compute",
                      "--error-map", out],
        "eval-synth": ["eval", "--real", t["ct"], "--synth", bad, "--mask-from", "compute"],
    }[role]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    err = err.getvalue()
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 2:
        assert str(bad) in err, err


# -- checkpoint meta ------------------------------------------------------

_REMOVE = object()


def _with_meta(src, dst, path, value):
    """Copy checkpoint src to dst with the meta field at `path` (a key tuple, () for
    the whole block) replaced by value, or removed if value is _REMOVE."""
    raw = src.read_bytes()
    n = int.from_bytes(raw[5:9], "little")
    manifest = json.loads(raw[9:9 + n])
    parent, key = manifest, "meta"
    for step in path:
        parent, key = parent[key], step
    if value is _REMOVE:
        del parent[key]
    else:
        parent[key] = value
    data.write_framed(dst, raw[:5], manifest, [raw[9 + n:]])


# meta fields infer and train --resume read, and the JSON type each must have
_INFER_FIELDS = {(): dict, ("config",): dict, ("config", "width_f"): int}
_RESUME_FIELDS = {(): dict, ("config",): dict, ("epoch",): int, ("opt_t",): dict,
                  ("opt_t", "d_mr"): int, ("pool_sizes",): dict, ("pool_sizes", "ct"): int}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _meta_commands(workspace, ckpt, out):
    """The infer and train --resume argv that read checkpoint ckpt; the resumed run
    asks for the checkpoint's one epoch, so it trains nothing."""
    infer = ["infer", "--ckpt", ckpt, "--in", workspace / "data" / "mr_000.svol",
             "--direction", "mr2ct", "--out", out / "x.svol"]
    resume = ["train", "--data", workspace / "data", "--out", out / "r",
              "--epochs-fixed", "1", "--epochs-decay", "0", "--width-f", "4",
              "--width-d", "4", "--checkpoint-every", "1", "--seed", "3", "--resume", ckpt]
    return infer, resume


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.mark.parametrize("path,value,commands,fragment", [
    pytest.param((), [], "both", "meta is [], not a JSON object", id="meta-list"),
    pytest.param(("config",), [1], "both", "meta config must be a JSON object, got [1]",
                 id="config-list"),
    pytest.param(("config", "width_f"), None, "infer",
                 "meta config.width_f must be an integer >= 0, got null", id="width_f-null"),
    pytest.param(("config", "width_f"), _REMOVE, "infer", "meta has no config.width_f",
                 id="width_f-removed"),
    pytest.param(("config", "width_f"), 10**6, "infer",
                 "g_mr2ct/stem.w has shape (4, 1, 7, 7), not (1000000, 1, 7, 7)",
                 id="width_f-huge"),
    pytest.param(("epoch",), None, "resume", "meta epoch must be an integer >= 0, got null",
                 id="epoch-null"),
    pytest.param(("epoch",), _REMOVE, "resume", "meta has no epoch", id="epoch-removed"),
    pytest.param(("opt_t",), [], "resume", "meta opt_t must be a JSON object, got []",
                 id="opt_t-list"),
    pytest.param(("opt_t", "g_mr2ct"), None, "resume",
                 "meta opt_t.g_mr2ct must be an integer >= 0, got null", id="opt_t-entry-null"),
    pytest.param(("pool_sizes",), [1], "resume",
                 "meta pool_sizes must be a JSON object, got [1]", id="pool_sizes-list"),
    pytest.param(("pool_sizes", "mr"), 5, "resume", "has no entry 'pool/mr/0004'",
                 id="pool-beyond-its-entries"),
])
def test_malformed_checkpoint_meta_exits_2_naming_the_file(workspace, tmp_path, path, value,
                                                            commands, fragment):
    # each of these ended in a traceback (AttributeError, TypeError, KeyError, and for a
    # huge width numpy's MemoryError), or in an exit 2 whose message named neither the
    # file nor the field
    bad = tmp_path / "bad.csyn"
    _with_meta(workspace / "run" / "ckpt_epoch1.csyn", bad, path, value)
    infer, resume = _meta_commands(workspace, bad, tmp_path)
    for argv in {"infer": [infer], "resume": [resume], "both": [infer, resume]}[commands]:
        rc, err = _run_quietly(argv)
        assert rc == 2 and err.count("\n") == 1 and err.startswith("error: "), err
        assert str(bad) in err and fragment in err, err


@st.composite
def _misfit_meta(draw):
    """(path, value): a meta field infer or train --resume reads, replaced by JSON of
    another type (for an integer field, also a negative one)."""
    path, kind = draw(st.sampled_from(sorted({**_INFER_FIELDS, **_RESUME_FIELDS}.items())))
    value = draw(_JSON.filter(lambda v: not (
        isinstance(v, dict) if kind is dict else type(v) is int and v >= 0)))
    return path, value


@settings(max_examples=150, deadline=None)
@given(case=_misfit_meta())
def test_checkpoint_meta_of_any_wrong_type_exits_2_naming_the_file(workspace,
                                                                   tmp_path_factory, case):
    """Any meta field infer or train --resume reads, replaced by arbitrary JSON of the
    wrong type, makes each command that reads it exit 2 with one error line naming
    the checkpoint."""
    path, value = case
    tmp = tmp_path_factory.mktemp("meta")
    bad = tmp / "bad.csyn"
    _with_meta(workspace / "run" / "ckpt_epoch1.csyn", bad, path, value)
    infer, resume = _meta_commands(workspace, bad, tmp)
    for fields, argv in ((_INFER_FIELDS, infer), (_RESUME_FIELDS, resume)):
        if path in fields:
            rc, err = _run_quietly(argv)
            assert rc == 2 and err.count("\n") == 1 and str(bad) in err, (rc, err)


# -- infer ----------------------------------------------------------------


def test_infer_output_volume(workspace, tmp_path, capsys):
    out = tmp_path / "synth.svol"
    assert cli.main(["infer", "--ckpt", str(workspace / "run" / "ckpt_epoch1.csyn"),
                     "--in", str(workspace / "data" / "mr_000.svol"),
                     "--direction", "mr2ct", "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert re.fullmatch(rf"synthesized 2 slices -> {re.escape(str(out))} \(\d+\.\d slices/s\)\n", line)
    vol = data.load_volume(out)
    src = data.load_volume(workspace / "data" / "mr_000.svol")
    assert vol.modality == "SYNTH_CT"
    assert vol.window == data.CT_WINDOW
    assert vol.dims == src.dims


def test_infer_deterministic(workspace, tmp_path):
    args = ["infer", "--ckpt", str(workspace / "run" / "ckpt_epoch1.csyn"),
            "--in", str(workspace / "data" / "mr_001.svol"),
            "--direction", "mr2ct"]
    assert cli.main(args + ["--out", str(tmp_path / "a.svol")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b.svol")]) == 0
    assert ((tmp_path / "a.svol").read_bytes()
            == (tmp_path / "b.svol").read_bytes())


def test_infer_wrong_modality(workspace, tmp_path):
    assert cli.main(["infer", "--ckpt", str(workspace / "run" / "ckpt_epoch1.csyn"),
                     "--in", str(workspace / "data" / "ct_000.svol"),
                     "--direction", "mr2ct",
                     "--out", str(tmp_path / "x.svol")]) == 2


def test_infer_missing_checkpoint(workspace, tmp_path):
    assert cli.main(["infer", "--ckpt", str(tmp_path / "none.csyn"),
                     "--in", str(workspace / "data" / "mr_000.svol"),
                     "--direction", "mr2ct",
                     "--out", str(tmp_path / "x.svol")]) == 2


def test_load_generator_takes_checkpoint_arrays(workspace, tmp_path):
    ckpt = workspace / "run" / "ckpt_epoch1.csyn"
    arrays, meta = read_checkpoint(ckpt)
    group, _, _ = cli.load_generator(ckpt, "mr2ct")
    assert group.names() == list(param_shapes("generator", 4))
    for name, t in group.items():
        assert np.array_equal(t.data, arrays[f"g_mr2ct/{name}"])
    only_fwd = {k: a for k, a in arrays.items() if k.startswith("g_mr2ct/")}
    write_checkpoint(tmp_path / "fwd.csyn", only_fwd, meta)
    with pytest.raises(ValueError, match="has no g_ct2mr network"):
        cli.load_generator(tmp_path / "fwd.csyn", "ct2mr")
    only_fwd["g_mr2ct/head.w"] = np.zeros((1, 4, 5, 5), np.float32)
    write_checkpoint(tmp_path / "bad.csyn", only_fwd, meta)
    with pytest.raises(ValueError, match="head.w"):
        cli.load_generator(tmp_path / "bad.csyn", "mr2ct")


def test_infer_checkpoint_of_another_width_names_the_file(workspace, tmp_path, capsys):
    ckpt = tmp_path / "w5.csyn"
    raw = (workspace / "run" / "ckpt_epoch1.csyn").read_bytes()
    ckpt.write_bytes(raw.replace(b'"width_f":4', b'"width_f":5', 1))
    assert cli.main(["infer", "--ckpt", str(ckpt), "--in", str(workspace / "data" / "mr_000.svol"),
                     "--direction", "mr2ct", "--out", str(tmp_path / "x.svol")]) == 2
    assert capsys.readouterr().err == (f"error: checkpoint {ckpt}: g_mr2ct/stem.w has "
                                       "shape (4, 1, 7, 7), not (5, 1, 7, 7)\n")


def _infer_argv(workspace, ckpt, out):
    return ["infer", "--ckpt", ckpt, "--in", workspace / "data" / "mr_000.svol",
            "--direction", "mr2ct", "--out", out]


@pytest.mark.parametrize("key, damage", [("g_mr2ct/res3.c1.w", "nan"),
                                         ("g_mr2ct/head.b", "removed")])
def test_infer_refuses_a_damaged_generator_entry(workspace, tmp_path, key, damage):
    # infer read its generator by its own reader, which checked no value: one NaN
    # weight wrote a volume whose every voxel was level 0 and exited 0, and one
    # removed entry of the 94 read "has no g_mr2ct network (mode 'unpaired_cycle')"
    arrays, meta = read_checkpoint(workspace / "run" / "ckpt_epoch1.csyn")
    tail = _damage_entry(arrays, key, damage)
    bad = tmp_path / "bad.csyn"
    write_checkpoint(bad, arrays, meta)
    out = tmp_path / "x.svol"
    assert _run_quietly(_infer_argv(workspace, bad, out)) == (2, f"error: checkpoint {bad}{tail}\n")
    assert not out.exists()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_damaged_generator_entry_refuses_infer_and_writes_no_output(workspace,
                                                                        tmp_path_factory,
                                                                        data):
    """One g_mr2ct/ entry of a real checkpoint, removed, cut short in its last axis or
    holding a NaN or an infinity, makes infer exit 2 with one error line naming the
    checkpoint and the key, as train --resume does, and write no --out."""
    arrays, meta = read_checkpoint(workspace / "run" / "ckpt_epoch1.csyn")
    key = data.draw(st.sampled_from(sorted(k for k in arrays if k.startswith("g_mr2ct/"))),
                    label="key")
    damage = data.draw(st.sampled_from(["removed", "truncated", "nan", "inf", "-inf"]),
                       label="damage")
    tail = _damage_entry(arrays, key, damage)
    tmp = tmp_path_factory.mktemp("generator")
    bad = tmp / "bad.csyn"
    write_checkpoint(bad, arrays, meta)
    rc, err = _run_quietly(_infer_argv(workspace, bad, tmp / "x.svol"))
    assert (rc, err) == (2, f"error: checkpoint {bad}{tail}\n")
    assert key in err and not (tmp / "x.svol").exists()


@pytest.mark.parametrize("case", ["out-is-a-directory", "out-in-missing-directory",
                                  "checkpoint-as-csv"])
def test_path_errors_name_the_path_passed(workspace, tmp_path, capsys, case):
    ckpt = workspace / "run" / "ckpt_epoch1.csyn"
    (tmp_path / "d").mkdir()
    if case == "checkpoint-as-csv":
        path, argv = ckpt, ["eval", "--from-csv", str(ckpt)]
    else:
        path = tmp_path / "d" if case == "out-is-a-directory" else tmp_path / "nodir" / "x.svol"
        argv = ["infer", "--ckpt", str(ckpt), "--in", str(workspace / "data" / "mr_000.svol"),
                "--direction", "mr2ct", "--out", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err and ".tmp" not in err, err
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]  # no temp file left behind


@pytest.mark.parametrize("where", ["missing-directory", "parent-is-a-file", "is-a-directory"])
@pytest.mark.parametrize("command, flag", [("infer", "--out"), ("eval", "--report"),
                                           ("eval", "--error-map")])
def test_an_unwritable_output_is_refused_before_computing(workspace, tmp_path, capsys,
                                                         monkeypatch, command, flag, where):
    # eval wrote --report, then failed on --error-map; infer named its temp file when
    # the output's parent was a file; an output that was a directory was found only
    # when it was written, after the generator calls or the scoring
    (tmp_path / "afile").write_bytes(b"a file, not a directory")
    (tmp_path / "adir").mkdir()
    parent, code = {"missing-directory": ("nodir", errno.ENOENT),
                    "parent-is-a-file": ("afile", errno.ENOTDIR),
                    "is-a-directory": ("adir", errno.EISDIR)}[where]

    def unwritable(name):
        return tmp_path / parent if where == "is-a-directory" else tmp_path / parent / name

    data_dir = workspace / "data"
    if command == "infer":
        bad = unwritable("x.svol")
        argv = ["infer", "--ckpt", str(workspace / "run" / "ckpt_epoch1.csyn"),
                "--in", str(data_dir / "mr_000.svol"), "--direction", "mr2ct", "--out", str(bad)]
    else:
        outs = {"--report": tmp_path / "rep.json", "--error-map": tmp_path / "err.svol"}
        for path in outs.values():  # the other output's previous file keeps its bytes
            path.write_bytes(b"a previous output")
        bad = outs[flag] = unwritable(outs[flag].name)
        argv = ["eval", "--real", str(data_dir), "--synth", str(data_dir), "--mask-from",
                "compute", *(arg for item in outs.items() for arg in map(str, item))]
    computed = []
    monkeypatch.setattr(cli, "generator_forward", lambda *a: computed.append(a))
    monkeypatch.setattr(evalx, "score", lambda *a, **k: computed.append(a))

    def tree():
        return {p: hashlib.sha256(p.read_bytes()).hexdigest()
                for root in (tmp_path, workspace) for p in root.rglob("*") if p.is_file()}

    before = tree()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not computed
    assert captured.err == (f"error: [Errno {code}] {os.strerror(code)}: '{bad}'\n")
    assert tree() == before


def test_infer_roundtrip_volume_is_wellformed(workspace, tmp_path):
    """mr -> ct -> mr through both generators stays a valid volume."""
    fwd = tmp_path / "fwd.svol"
    back = tmp_path / "back.svol"
    ckpt = str(workspace / "run" / "ckpt_epoch1.csyn")
    assert cli.main(["infer", "--ckpt", ckpt, "--direction", "mr2ct",
                     "--in", str(workspace / "data" / "mr_000.svol"),
                     "--out", str(fwd)]) == 0
    assert cli.main(["infer", "--ckpt", ckpt, "--direction", "ct2mr",
                     "--in", str(fwd), "--out", str(back)]) == 0
    vol = data.load_volume(back)
    assert vol.modality == "SYNTH_MR"
    assert np.isfinite(vol.voxels.astype(np.float64)).all()


@pytest.mark.parametrize("size,slices,calls", [(64, 8, [8]), (128, 5, [2, 2, 1])])
def test_synthesize_volume_split_never_changes_bits(monkeypatch, size, slices, calls):
    """Slices per generator call follow their pixels; the output equals, byte for
    byte, that of one generator call per slice."""
    monkeypatch.setattr(forked, "processes", lambda: 1)  # every call in this process
    group = init_params("generator", width=16, rng_seed=1)
    vox = np.random.default_rng(size).integers(0, 256, (slices, size, size), dtype=np.uint8)
    forward, got = cli.generator_forward, []
    monkeypatch.setattr(cli, "generator_forward",
                        lambda g, x: got.append(forward(g, x).data) or engine.Tensor(got[-1]))
    synth = cli.synthesize_volume(group, data.SliceVolume("SYNTH_MR", vox), "SYNTH_CT")
    assert [len(y) for y in got] == calls
    with engine.no_grad():
        want = [forward(group, engine.Tensor(data.to_model_range(vox[k:k + 1, None]))).data
                for k in range(slices)]
    assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
    assert synth.voxels.tobytes() == data.from_model_range(np.concatenate(want)[:, 0]).tobytes()


def test_synthesize_volume_memory_does_not_grow_with_slices(monkeypatch):
    monkeypatch.setattr(forked, "processes", lambda: 1)  # every call under tracemalloc
    group = init_params("generator", width=16, rng_seed=0)
    rng = np.random.default_rng(2)

    def peak(slices):
        vol = data.SliceVolume("SYNTH_MR", rng.integers(0, 256, (slices, 128, 128),
                                                        dtype=np.uint8))
        return traced_peak(lambda: cli.synthesize_volume(group, vol, "SYNTH_CT"))[1]

    two, eight = peak(2), peak(8)
    assert eight <= 1.25 * two, f"8 slices peak at {eight / 2**20:.1f} MiB, 2 at {two / 2**20:.1f}"


# -- eval -----------------------------------------------------------------


def test_eval_identical_volumes(workspace, capsys):
    ct = str(workspace / "data" / "ct_000.svol")
    assert cli.main(["eval", "--real", ct, "--synth", ct,
                     "--mask-from", "compute"]) == 0
    out = capsys.readouterr().out
    assert "0.0" in out   # MAE exactly zero
    assert "---" in out   # PSNR unbounded, shown as missing


def test_eval_single_files_comparative(workspace, capsys):
    # one pair per set: neither SD is defined
    ct0, ct1 = (str(workspace / "data" / f"ct_00{i}.svol") for i in (0, 1))
    assert cli.main(["eval", "--real", ct0, "--synth", ct0, "--synth-b", ct1,
                     "--mask-from", "compute"]) == 0
    out = capsys.readouterr().out
    assert "+/- n/a" in out
    assert re.search(r"\nevaluated 2 volumes \(\d+\.\d volumes/s\)\n$", out)


def test_eval_directory_without_finite_psnr(workspace, tmp_path, capsys):
    cts = tmp_path / "cts"
    cts.mkdir()
    for name in ("ct_000.svol", "ct_001.svol"):
        shutil.copy(workspace / "data" / name, cts / name)
    assert cli.main(["eval", "--real", str(cts), "--synth", str(cts),
                     "--mask-from", "compute"]) == 0
    assert "n/a +/- n/a" in capsys.readouterr().out


def test_eval_mse_denominator_mode(workspace, tmp_path, capsys):
    real, synth = (workspace / "data" / f"ct_00{i}.svol" for i in (0, 1))
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--real", str(real), "--synth", str(synth), "--mask-from",
                     "compute", "--psnr-mode", "mse_denominator", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["metric_mode"] == "mse_denominator"
    a, b = data.load_volume(real), data.load_volume(synth)
    mask = data.head_mask(a)
    d = (data.dequantize(a.voxels, a.window) - data.dequantize(b.voxels, b.window))[mask]
    mse = float(np.mean(d * d))
    assert payload["rows"][0]["psnr_db"] == pytest.approx(20 * np.log10(4095 / mse), rel=1e-12)
    assert payload["rows"][0]["psnr_db"] < 0  # the MSE form goes negative at these errors
    assert f"{payload['rows'][0]['psnr_db']:10.1f}" in capsys.readouterr().out


def test_eval_missing_mask_source(workspace, tmp_path, capsys):
    ct = str(workspace / "data" / "ct_000.svol")
    assert cli.main(["eval", "--real", ct, "--synth", ct,
                     "--mask-from", "real"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {ct}: --mask-from real: volume carries no mask")


@pytest.mark.parametrize("mask_from,role,message", [
    # a window of (-600, -400) HU leaves nothing above the -300 HU head threshold
    ("compute", "real", "slice 0: no voxels above -300.0 in SYNTH_CT"),
    ("synth", "synth", "--mask-from synth: volume carries no mask"),
])
def test_eval_mask_errors_name_the_file(workspace, tmp_path, capsys, mask_from, role, message):
    ct = workspace / "data" / "ct_000.svol"
    low = tmp_path / "low.svol"
    low.write_bytes(ct.read_bytes().replace(b"1400.0", b"-400.0", 1))
    paths = {"real": low if mask_from == "compute" else ct, "synth": ct}
    assert cli.main(["eval", "--real", str(paths["real"]), "--synth", str(paths["synth"]),
                     "--mask-from", mask_from]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[role]}: {message}") and err.count("\n") == 1, err


def test_eval_dims_mismatch_names_both_files(workspace, tmp_path, capsys):
    big = tmp_path / "big"
    cli.main(["phantom", "--out", str(big), "--volumes", "1", "--slices", "1",
              "--size", "36x36", "--seed", "3"])
    capsys.readouterr()
    real, synth = workspace / "data" / "ct_000.svol", big / "ct_000.svol"
    assert cli.main(["eval", "--real", str(real), "--synth", str(synth),
                     "--mask-from", "compute"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {real} vs {synth}: volume dims differ: ") \
        and err.count("\n") == 1, err


@pytest.mark.parametrize("real_name,synth_name,modalities", [
    ("ct_000.svol", "mr_000.svol", "CT vs MR"),
    ("mr_000.svol", "ct_000.svol", "MR vs CT"),
])
def test_eval_rejects_a_pair_of_two_modalities(workspace, tmp_path, capsys,
                                               real_name, synth_name, modalities):
    real, synth = tmp_path / "real", tmp_path / "synth"
    real.mkdir()
    synth.mkdir()
    shutil.copy(workspace / "data" / real_name, real / "v.svol")
    shutil.copy(workspace / "data" / synth_name, synth / "v.svol")
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--real", str(real), "--synth", str(synth),
                     "--mask-from", "compute", "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {real / 'v.svol'} vs {synth / 'v.svol'}: modality {modalities}\n"
    assert out == "" and not report.exists()


def test_eval_scores_ct_against_synth_ct(workspace, tmp_path, capsys):
    # CT and SYNTH_CT share a base modality, so the pair is scored
    synth = workspace / "data" / "ct_000.svol"
    real = tmp_path / "real.svol"
    data.save_volume(data.SliceVolume("CT", data.load_volume(synth).voxels), real)
    assert cli.main(["eval", "--real", str(real), "--synth", str(synth),
                     "--mask-from", "compute"]) == 0
    assert "Mean +/- SD" in capsys.readouterr().out


def test_eval_table1_fixture(tmp_path, capsys):
    csv_path = tmp_path / "fixture.csv"
    lines = ["id,mae_a,psnr_a,mae_b,psnr_b"]
    for i in range(6):
        lines.append(f"p{i},{MAE_A[i]},{PSNR_A[i]},{MAE_B[i]},{PSNR_B[i]}")
    csv_path.write_text("\n".join(lines))
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--from-csv", str(csv_path),
                     "--report", str(report),
                     "--label-a", "unpaired", "--label-b", "paired"]) == 0
    out = capsys.readouterr().out
    for fragment in ("73.7 +/- 2.3", "89.4 +/- 6.8",
                     "32.3 +/- 0.7", "30.6 +/- 0.9"):
        assert fragment in out
    assert "t = -7.2055" in out
    assert "significant at p < 0.05" in out
    payload = json.loads(report.read_text())
    assert payload["ttest"]["p"] == pytest.approx(8.0e-4, rel=0.1)
    assert payload["a"]["aggregate"]["mean_mae"] == pytest.approx(73.7, abs=0.05)


def test_a_failed_report_write_keeps_the_previous_report(tmp_path, capsys):
    # the report was written in place, so a full disk left a truncated one
    csv_path = tmp_path / "fixture.csv"
    csv_path.write_text("id,mae,psnr\np0,70.3,31.1\np1,76.2,32.1\n")
    report = tmp_path / "out" / "report.json"
    report.parent.mkdir()
    report.write_bytes(b"{}")
    with file_size_limit(64):
        rc = cli.main(["eval", "--from-csv", str(csv_path), "--report", str(report)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: [Errno "), err
    assert err.endswith(f"'{report}'\n"), err
    assert report.read_bytes() == b"{}"
    assert os.listdir(report.parent) == [report.name]


@pytest.mark.parametrize("text,fragment", [
    pytest.param("", "empty", id="empty"),
    pytest.param("id,mae,psnr\np0,70.3,31.1\np1,76.2\n", "line 3 has 2 columns", id="short-row"),
    pytest.param("id,mae_a,psnr_a,mae_b,psnr_b\np0,70.3,31.1,86.2\n", "line 2 has 4 columns",
                 id="short-row-5"),
    # float() used to raise unhandled: "could not convert string to float: 'abc'"
    pytest.param("id,mae,psnr\nv0,abc,30\n", "fixture.csv: line 2 has a non-numeric value",
                 id="non-numeric"),
    pytest.param("id,mae_a,psnr_a,mae_b,psnr_b\np0,70.3,31.1,86.2,29.3\np1,70,31,x,29\n",
                 "fixture.csv: line 3 has a non-numeric value", id="non-numeric-5"),
])
def test_eval_bad_csv_exits_2(tmp_path, capsys, text, fragment):
    csv_path = tmp_path / "fixture.csv"
    csv_path.write_text(text)
    assert cli.main(["eval", "--from-csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("text,line", [
    pytest.param("id,mae,psnr\na,nan,2\nb,1,inf\n", 2, id="nan-mae"),
    pytest.param("id,mae,psnr\na,1,2\nb,1,inf\n", 3, id="inf-psnr"),
    pytest.param("id,mae_a,psnr_a,mae_b,psnr_b\np0,70.3,31.1,-Infinity,29.3\n", 2,
                 id="inf-mae-b"),
])
def test_eval_csv_non_finite_exits_2(tmp_path, capsys, text, line):
    csv_path = tmp_path / "fixture.csv"
    csv_path.write_text(text)
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--from-csv", str(csv_path), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {csv_path}: line {line} has a non-finite value\n"
    assert captured.out == "" and not report.exists()


def test_eval_error_map_from_csv_fails_before_any_output(tmp_path, capsys):
    csv_path = tmp_path / "fixture.csv"
    csv_path.write_text("id,mae,psnr\np0,70.3,31.1\n")
    report, emap = tmp_path / "report.json", tmp_path / "err.svol"
    assert cli.main(["eval", "--from-csv", str(csv_path), "--report", str(report),
                     "--error-map", str(emap)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --error-map needs volume inputs, not --from-csv\n"
    assert captured.out == "" and not report.exists() and not emap.exists()


def test_eval_reads_and_masks_each_real_volume_once(workspace, tmp_path, monkeypatch):
    real, run_a, run_b = (tmp_path / name for name in ("real", "a", "b"))
    for d in (real, run_a, run_b):
        d.mkdir()
    for i in range(2):
        shutil.copy(workspace / "data" / f"ct_00{i}.svol", real / f"v{i}.svol")
        shutil.copy(workspace / "data" / f"ct_00{1 - i}.svol", run_a / f"v{i}.svol")
        shutil.copy(workspace / "data" / f"ct_00{i}.svol", run_b / f"v{i}.svol")
    loads, masks = [], []
    load_volume, head_mask = data.load_volume, data.head_mask
    monkeypatch.setattr(data, "load_volume", lambda p: loads.append(p) or load_volume(p))
    monkeypatch.setattr(data, "head_mask", lambda v: masks.append(v) or head_mask(v))
    assert cli.main(["eval", "--real", str(real), "--synth", str(run_a),
                     "--synth-b", str(run_b), "--mask-from", "compute"]) == 0
    assert sorted(str(p) for p in loads) == sorted(
        str(d / f"v{i}.svol") for d in (real, run_a, run_b) for i in range(2))
    assert len(masks) == 2 and len({id(v) for v in masks}) == 2


@pytest.mark.parametrize("synth_b", [False, True], ids=["single", "synth-b"])
def test_eval_holds_a_real_volume_only_until_its_last_run(workspace, tmp_path,
                                                           monkeypatch, synth_b):
    real, run_a, run_b = (tmp_path / name for name in ("real", "a", "b"))
    for d in (real, run_a, run_b):
        d.mkdir()
    for i in range(2):
        shutil.copy(workspace / "data" / f"ct_00{i}.svol", real / f"v{i}.svol")
        shutil.copy(workspace / "data" / f"ct_00{1 - i}.svol", run_a / f"v{i}.svol")
        shutil.copy(workspace / "data" / f"ct_00{i}.svol", run_b / f"v{i}.svol")
    live, seen = weakref.WeakSet(), []  # real volumes still referenced, per load
    load_volume = data.load_volume
    def load(path):
        gc.collect()
        seen.append((path.parent.name, len(live)))
        vol = load_volume(path)
        if path.parent == real:
            live.add(vol)
        return vol
    monkeypatch.setattr(data, "load_volume", load)
    argv = ["eval", "--real", str(real), "--synth", str(run_a), "--mask-from", "compute"]
    assert cli.main(argv + (["--synth-b", str(run_b)] if synth_b else [])) == 0
    # one real volume at a time: each is scored against its A (and B) volume before
    # the next is read, so at most one is alive at every load, however many there are
    runs = ["real", "a", "b"] if synth_b else ["real", "a"]
    assert seen == [(d, int(i + k > 0)) for i in range(2) for k, d in enumerate(runs)]


def test_eval_error_map(workspace, tmp_path):
    ct = str(workspace / "data" / "ct_000.svol")
    emap = tmp_path / "err.svol"
    assert cli.main(["eval", "--real", ct, "--synth", ct,
                     "--mask-from", "compute", "--error-map", str(emap)]) == 0
    vol = data.load_volume(emap)
    assert np.all(vol.voxels == 0)


def test_eval_error_map_reads_each_volume_once(workspace, tmp_path, monkeypatch):
    real, run_a = tmp_path / "real", tmp_path / "a"
    for d in (real, run_a):
        d.mkdir()
    for i in range(3):
        shutil.copy(workspace / "data" / f"ct_00{i % 2}.svol", real / f"v{i}.svol")
        shutil.copy(workspace / "data" / f"ct_00{1 - i % 2}.svol", run_a / f"v{i}.svol")
    want = evalx.error_map(data.load_volume(real / "v0.svol"), data.load_volume(run_a / "v0.svol"))
    loads, load_volume = [], data.load_volume
    monkeypatch.setattr(data, "load_volume", lambda p: loads.append(p) or load_volume(p))
    emap = tmp_path / "err.svol"
    assert cli.main(["eval", "--real", str(real), "--synth", str(run_a),
                     "--mask-from", "compute", "--error-map", str(emap)]) == 0
    assert len(loads) == 6  # each real and synth volume once; the first pair is kept
    assert np.array_equal(load_volume(emap).voxels, want.voxels)


def test_eval_directory_mismatch(workspace, tmp_path):
    assert cli.main(["eval", "--real", str(workspace / "data"),
                     "--synth", str(workspace / "data" / "ct_000.svol")]) == 2


@pytest.mark.parametrize("real, synth, flag, says", [
    ("data", "synth.svol", "--synth", ("is a directory", "is a file")),
    ("data", "nowhere", "--synth", ("is a directory", "does not exist")),
    ("data/ct_000.svol", "emptydir", "--synth", ("is a file", "is a directory")),
    ("data", "synth.svol", "--synth-b", ("is a directory", "is a file")),
    ("data", "nowhere", "--synth-b", ("is a directory", "does not exist")),
], ids=["dir-file", "dir-missing", "file-dir", "b-dir-file", "b-dir-missing"])
def test_eval_names_both_paths_when_they_are_not_two_files_or_two_directories(
        workspace, tmp_path, capsys, real, synth, flag, says):
    # each exited 2 with "real and synth must both be files or both be directories",
    # naming neither path, also where the real cause was a path that does not exist
    shutil.copytree(workspace / "data", tmp_path / "data")
    shutil.copy(workspace / "data" / "ct_000.svol", tmp_path / "synth.svol")
    (tmp_path / "emptydir").mkdir()
    real, synth = tmp_path / real, tmp_path / synth
    argv = ["eval", "--real", str(real), "--synth", str(synth)]
    if flag == "--synth-b":
        argv = ["eval", "--real", str(real), "--synth", str(real), flag, str(synth)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"error: --real {real} {says[0]} and {flag} {synth} "
                                       f"{says[1]}; they must be two files or two "
                                       "directories\n")


# every path flag of infer, eval and train, with the kinds of path that are wrong for
# it: f, an existing file in no format the flag reads; d, a directory; m, a path that
# does not exist, for an output one in a directory that does not exist
_PATH_FLAGS = {
    "infer": {"--ckpt": "fdm", "--in": "fdm", "--out": "dm"},
    "eval": {"--real": "fdm", "--synth": "fdm", "--synth-b": "fdm", "--report": "dm",
             "--error-map": "dm"},
    "eval-csv": {"--from-csv": "fdm", "--report": "dm"},
    "train": {"--data": "fdm", "--out": "f", "--resume": "fdm"},
}
_OUTPUT_FLAGS = {"--out", "--report", "--error-map"}


def _path_argv(workspace, tmp, command):
    """A valid argv of command whose outputs go to tmp, as flag -> value pairs: train
    resumes the workspace run at its last epoch, so it trains nothing."""
    ckpt, data_dir = workspace / "run" / "ckpt_epoch1.csyn", workspace / "data"
    ct = data_dir / "ct_000.svol"
    if command == "infer":
        return {"--ckpt": ckpt, "--in": data_dir / "mr_000.svol", "--direction": "mr2ct",
                "--out": tmp / "x.svol"}
    if command == "eval":
        return {"--real": ct, "--synth": ct, "--synth-b": ct, "--mask-from": "compute",
                "--report": tmp / "r.json", "--error-map": tmp / "e.svol"}
    if command == "eval-csv":
        (tmp / "rows.csv").write_text("id,mae,psnr\nv0,70.3,31.1\nv1,76.2,32.1\n")
        return {"--from-csv": tmp / "rows.csv", "--report": tmp / "r.json"}
    return {"--data": data_dir, "--out": tmp / "run", "--epochs-fixed": "1",
            "--epochs-decay": "0", "--width-f": "4", "--width-d": "4", "--seed": "3",
            "--resume": ckpt}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_wrong_path_on_any_path_flag_exits_2_naming_it(workspace, tmp_path_factory, data):
    """An existing file in no format the flag reads, a directory or a missing path, on
    any path flag of infer, eval or train for which it is wrong, makes the command exit
    2 with one error line that contains that path, and write no output."""
    command = data.draw(st.sampled_from(sorted(_PATH_FLAGS)), label="command")
    flag = data.draw(st.sampled_from(sorted(_PATH_FLAGS[command])), label="flag")
    kind = data.draw(st.sampled_from(_PATH_FLAGS[command][flag]), label="kind")
    name = data.draw(st.text("abcxyz019-_ ", min_size=1, max_size=8), label="name")
    tmp = tmp_path_factory.mktemp("paths")
    argv = _path_argv(workspace, tmp, command)
    bad = tmp / ("nodir" if kind == "m" and flag in _OUTPUT_FLAGS else "") / f"{name}.p"
    if kind == "f":
        bad.write_bytes(b"not in any format\n")
    elif kind == "d":
        bad.mkdir()
    outputs = [argv[f] for f in _OUTPUT_FLAGS if f in argv and f != flag]
    argv[flag] = bad
    rc, err = _run_quietly([command.partition("-")[0],
                            *(str(a) for item in argv.items() for a in item)])
    assert rc == 2 and err.count("\n") == 1 and err.startswith("error: "), (rc, err)
    assert str(bad) in err, err
    assert not any(path.exists() for path in outputs)


# -- selfcheck ------------------------------------------------------------


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck", "--probes", "8"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[PASS] grad/conv2d" in out
    assert "[PASS] grad/conv2d_narrow" in out
    assert "[PASS] mask/head_mask" in out


def test_selfcheck_head_mask_catches_unfilled_holes(monkeypatch):
    head_mask = data.head_mask
    # the largest component with its holes left open
    monkeypatch.setattr(data, "head_mask", lambda v: head_mask(v) & (v.voxels > 0))
    with pytest.raises(selfcheck.CheckFailure, match="per-slice reference"):
        selfcheck.check_head_mask()


def test_selfcheck_head_mask_catches_a_box_written_at_the_wrong_offset(monkeypatch):
    head_mask = data.head_mask

    def at_origin(v):
        # the labelled box's result written at the slice's corner: right
        # wherever the box is the whole slice, as in dense stacks
        m = head_mask(v)
        plane = (v.voxels > 0).any(axis=0)
        rows, cols = np.flatnonzero(plane.any(axis=1)), np.flatnonzero(plane.any(axis=0))
        box = m[:, max(rows[0] - 1, 0):rows[-1] + 2, max(cols[0] - 1, 0):cols[-1] + 2]
        out = np.zeros_like(m)
        out[:, :box.shape[1], :box.shape[2]] = box
        return out

    monkeypatch.setattr(data, "head_mask", at_origin)
    with pytest.raises(selfcheck.CheckFailure, match=r"^stack 1[2-9] .*per-slice reference"):
        selfcheck.check_head_mask()


def test_selfcheck_corrupt_op_fails(capsys):
    assert cli.main(["selfcheck", "--probes", "8",
                     "--corrupt-op", "tanh"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] grad/tanh" in out
    assert "first failing check: grad/tanh" in out


def test_selfcheck_corrupt_instance_norm_fails(capsys):
    # the fused norm + activation probes go through the same op and fail with it
    assert cli.main(["selfcheck", "--probes", "8", "--corrupt-op", "instance_norm"]) == 3
    out = capsys.readouterr().out
    for name in ("instance_norm", "instance_norm_relu", "instance_norm_leaky"):
        assert f"[FAIL] grad/{name}" in out
    assert "first failing check: grad/instance_norm\n" in out


def test_selfcheck_corrupt_conv2d_fails_every_conv2d_probe(capsys):
    # the narrow probe (stride 1, Cout < Cin) goes through the same op
    assert cli.main(["selfcheck", "--probes", "8", "--corrupt-op", "conv2d"]) == 3
    out = capsys.readouterr().out
    for name in ("conv2d", "conv2d_stride2", "conv2d_reflect", "conv2d_narrow"):
        assert f"[FAIL] grad/{name}" in out
    assert "first failing check: grad/conv2d\n" in out


@pytest.mark.parametrize("op", selfcheck.PROBED_OPS)
def test_selfcheck_catches_every_probed_op_at_8_probes(capsys, op):
    # each op check probes every operand and scores it on its own gradient scale,
    # so a spoiled operand gradient fails every check of its op
    assert cli.main(["selfcheck", "--probes", "8", "--corrupt-op", op]) == 3
    out = capsys.readouterr().out
    own = [name for name, _, _ in selfcheck.op_gradient_checks()
           if name == op or name.startswith(f"{op}_")]
    assert own
    for name in own:
        assert f"[FAIL] grad/{name}  (" in out


# both entry points onto selfcheck._probe: selfcheck's op check (id: the probe seed)
# and the tests' gradcheck helper (id: helpers-<seed>)
@pytest.mark.parametrize("check,probe_seed",
                         [pytest.param(selfcheck._fd_gradcheck, s, id=str(s)) for s in range(10)]
                         + [pytest.param(gradcheck, s, id=f"helpers-{s}") for s in range(10)])
def test_fd_gradcheck_scores_each_operand_on_its_own_scale(check, probe_seed):
    # d/dx sum(x * y) = y is a hundred times smaller than d/dy = x: a spoiled x
    # gradient deviates by under 1% of the largest gradient, but by a third of y's
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (3, 4)).astype(np.float32)
    y = rng.uniform(-0.01, 0.01, (3, 4)).astype(np.float32)

    def build(ts):
        return engine.tsum(engine.mul(ts[0], ts[1]))

    assert check(build, [x, y], np.random.default_rng(probe_seed), 20) < 1e-2
    with selfcheck.corrupted_op("mul"), pytest.raises(selfcheck.CheckFailure):
        check(build, [x, y], np.random.default_rng(probe_seed), 20)


def test_selfcheck_roundtrip_failures_keep_their_messages(tmp_path, monkeypatch):
    load_volume, read_ckpt = data.load_volume, selfcheck.read_checkpoint
    monkeypatch.setattr(data, "load_volume",
                        lambda path: dataclasses.replace(load_volume(path), window=(0.0, 1.0)))
    with pytest.raises(selfcheck.CheckFailure, match="^volume did not survive the round trip$"):
        selfcheck.check_svol_roundtrip(tmp_path)

    def shifted(path):
        arrays, meta = read_ckpt(path)
        return {k: v + 1 for k, v in arrays.items()}, meta

    monkeypatch.setattr(selfcheck, "read_checkpoint", shifted)
    with pytest.raises(selfcheck.CheckFailure,
                       match="^checkpoint did not survive the round trip$"):
        selfcheck.check_checkpoint_roundtrip(tmp_path)

    def restamped(path):
        arrays, meta = read_ckpt(path)
        return arrays, {**meta, "note": "re-saved"}

    monkeypatch.setattr(selfcheck, "read_checkpoint", restamped)
    with pytest.raises(selfcheck.CheckFailure,
                       match="^checkpoint re-save is not byte-identical$"):
        selfcheck.check_checkpoint_roundtrip(tmp_path)


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_selfcheck_probes_below_one_exits_2(capsys, probes):
    assert cli.main(["selfcheck", "--probes", probes]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --probes must be >= 1, got {probes}\n"
    assert "FAIL" not in captured.out


@pytest.mark.parametrize("name", ["nonexistent", "np", "Tensor"])
def test_selfcheck_rejects_corrupt_op_that_is_not_a_probed_op(capsys, name):
    assert cli.main(["selfcheck", "--probes", "8", "--corrupt-op", name]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --corrupt-op: {name!r} is not an op")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no check ran


def test_phantom_train_infer_never_import_scipy(tmp_path):
    code = """if True:
        import sys
        from pathlib import Path
        import cyclesynth.cli as cli

        def scipy_loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        root = Path(sys.argv[1])
        assert scipy_loaded() == [], scipy_loaded()
        assert cli.main(["phantom", "--out", str(root / "d"), "--volumes", "1",
                         "--slices", "2", "--size", "24x24"]) == 0
        assert cli.main(["train", "--data", str(root / "d"), "--out", str(root / "r"),
                         "--epochs-fixed", "0", "--epochs-decay", "0",
                         "--width-f", "4", "--width-d", "4"]) == 0
        assert cli.main(["infer", "--ckpt", str(root / "r" / "ckpt_epoch0.csyn"),
                         "--in", str(root / "d" / "mr_000.svol"), "--direction", "mr2ct",
                         "--out", str(root / "s.svol")]) == 0
        assert scipy_loaded() == [], scipy_loaded()
        assert cli.main(["eval", "--real", str(root / "d" / "ct_000.svol"),
                         "--synth", str(root / "s.svol"), "--mask-from", "compute"]) == 0
        assert "scipy.ndimage" in sys.modules
    """
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("case", ["train-overflow", "one-volume-eval",
                                  "train-overflow-two-processes"])
def test_a_failing_command_prints_one_line(workspace, tmp_path, case):
    # numpy's float warnings and the one-row SD warning used to come first
    # under a thread cap of 1 on two or more CPUs the backward cycle runs in a worker
    threads = {"CYCLESYNTH_THREADS": "1"} if case.endswith("two-processes") else {}
    if case.startswith("train-overflow"):
        args = ["train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
                "--lambda", "1e30", "--limit-volumes", "1", "--epochs-fixed", "1",
                "--epochs-decay", "0", "--width-f", "4", "--width-d", "4"]
        rc, first = 3, "numeric failure: non-finite value in opt/"
    else:
        # one row leaves the SDs undefined; the error map's folder is missing
        ct = str(workspace / "data" / "ct_000.svol")
        args = ["eval", "--real", ct, "--synth", ct, "--mask-from", "compute",
                "--error-map", str(tmp_path / "missing" / "err.svol")]
        rc, first = 2, "error: "
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, **threads, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cyclesynth.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr.startswith(first) and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("value, cap", [
    pytest.param("1", 1, id="1"), pytest.param("2", 2, id="2"),
    pytest.param("1 ", None, id="1-space"), pytest.param("abc", None, id="abc"),
    pytest.param("0", None, id="0"), pytest.param("-1", None, id="minus-1")])
def test_thread_env_propagates(value, cap):
    # cli capped BLAS at any non-empty value, while train counted only digits >= 1, so
    # "1 " capped BLAS at one thread and still trained in one process
    code = ("import json, os; from cyclesynth import cli, thread_cap, train; "
            f"print(json.dumps([thread_cap(), [os.environ.get(v) for v in {BLAS_VARS}], "
            "train.cycle_processes(train.TrainConfig())]))")
    # cli only fills in thread variables that are unset, so none may be inherited
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(CYCLESYNTH_THREADS=value, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got_cap, blas, processes = json.loads(proc.stdout)
    assert got_cap == cap
    assert blas == [None if cap is None else str(cap)] * len(BLAS_VARS)
    two = cap is not None and len(os.sched_getaffinity(0)) >= 2 * cap
    assert processes == (2 if two else 1)
