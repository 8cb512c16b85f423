"""Command line behavior: exit codes, artifacts, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cyclesynth import cli, data
from cyclesynth.checkpoint import read_checkpoint, write_checkpoint
from cyclesynth.models import param_shapes

MAE_A = [70.3, 76.2, 75.5, 75.2, 72.0, 73.0]
PSNR_A = [31.1, 32.1, 32.9, 32.9, 32.3, 32.5]
MAE_B = [86.2, 98.8, 96.9, 86.0, 81.7, 87.0]
PSNR_B = [29.3, 30.1, 30.1, 31.7, 31.2, 30.9]


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


def test_train_failure_still_leaves_manifest(workspace, tmp_path):
    # an uneven dataset passes config validation but fails inside the run;
    # the manifest must already be on disk by then
    lopsided = tmp_path / "data"
    lopsided.mkdir()
    for name in ("mr_000.svol", "mr_001.svol", "ct_000.svol"):
        (lopsided / name).write_bytes((workspace / "data" / name).read_bytes())
    out = tmp_path / "broken"
    rc = cli.main(["train", "--data", str(lopsided), "--out", str(out),
                   "--mode", "paired", "--epochs-fixed", "1",
                   "--epochs-decay", "0", "--width-f", "4", "--width-d", "4"])
    assert rc == 2
    assert (out / "manifest.json").exists()


def test_train_resume_rejects_other_seed(workspace, tmp_path, capsys):
    assert cli.main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "resumed"),
                     "--epochs-fixed", "2", "--epochs-decay", "0",
                     "--width-f", "4", "--width-d", "4", "--checkpoint-every", "1",
                     "--seed", "4",
                     "--resume", str(workspace / "run" / "ckpt_epoch1.csyn")]) == 2
    assert "resume config mismatch on seed" in capsys.readouterr().err


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


def test_eval_missing_mask_source(workspace, tmp_path, capsys):
    ct = str(workspace / "data" / "ct_000.svol")
    assert cli.main(["eval", "--real", ct, "--synth", ct,
                     "--mask-from", "real"]) == 2
    assert "no mask" in capsys.readouterr().err


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


def test_eval_error_map(workspace, tmp_path):
    ct = str(workspace / "data" / "ct_000.svol")
    emap = tmp_path / "err.svol"
    assert cli.main(["eval", "--real", ct, "--synth", ct,
                     "--mask-from", "compute", "--error-map", str(emap)]) == 0
    vol = data.load_volume(emap)
    assert np.all(vol.voxels == 0)


def test_eval_directory_mismatch(workspace, tmp_path):
    assert cli.main(["eval", "--real", str(workspace / "data"),
                     "--synth", str(workspace / "data" / "ct_000.svol")]) == 2


# -- selfcheck ------------------------------------------------------------


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck", "--probes", "8"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[PASS] grad/conv2d" in out


def test_selfcheck_corrupt_op_fails(capsys):
    assert cli.main(["selfcheck", "--probes", "8",
                     "--corrupt-op", "tanh"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] grad/tanh" in out
    assert "first failing check: grad/tanh" in out


def test_thread_env_propagates():
    code = ("import os; os.environ['CYCLESYNTH_THREADS']='2'; "
            "import cyclesynth.cli; print(os.environ['OMP_NUM_THREADS'])")
    # cli only fills in thread variables that are unset, so none may be inherited
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
