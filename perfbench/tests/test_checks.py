"""Each output check passes the program's real output and rejects a spoiled one."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import layertrace
from cyclesynth import cli, data, losses, selfcheck

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    assert rc == 0, argv


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """2 volumes x 2 slices of 32x32, width-4 checkpoints and their outputs."""
    root = tmp_path_factory.mktemp("tiny")
    run_cli("phantom", "--out", root / "data", "--volumes", 2, "--slices", 2,
            "--size", "32x32", "--seed", 5)
    for tag, sub in (("mr", "mr"), ("ct", "real")):
        (root / sub).mkdir()
        for v in range(2):
            shutil.copy(root / "data" / f"{tag}_{v:03d}.svol", root / sub / f"v{v}.svol")
    for s in (0, 1):
        run_cli("train", "--data", root / "data", "--out", root / f"run{s}",
                "--width-f", 4, "--width-d", 4, "--epochs-fixed", 1,
                "--epochs-decay", 0, "--seed", s)
        (root / f"synth{s}").mkdir()
        for v in range(2):
            run_cli("infer", "--ckpt", root / f"run{s}" / "ckpt_epoch1.csyn",
                    "--in", root / "mr" / f"v{v}.svol", "--direction", "mr2ct",
                    "--out", root / f"synth{s}" / f"v{v}.svol")
    run_cli("eval", "--real", root / "real", "--synth", root / "synth0",
            "--synth-b", root / "synth1", "--mask-from", "compute",
            "--report", root / "report.json")
    return root


def spoiled_copy(src, dst, edit):
    """Copy an SVOL file with edit(voxels) applied to its payload."""
    header, voxels = checks.read_svol(src)
    raw = bytearray(Path(src).read_bytes())
    start = len(raw) - voxels.size * (2 if header["has_mask"] else 1)
    body = voxels.copy()
    edit(body)
    raw[start:start + body.size] = body.tobytes()
    Path(dst).write_bytes(bytes(raw))


def two_levels_off(index):
    def edit(v):
        v[index] = v[index] + 2 if v[index] < 128 else v[index] - 2
    return edit


# -- training outputs -------------------------------------------------------------


def test_loss_log(tiny, tmp_path):
    log = tiny / "run0" / "loss_log.csv"
    checks.check_loss_log(log, epochs=1, iters_per_epoch=4, paired=False)
    rows = log.read_text().splitlines()
    bad = tmp_path / "log.csv"
    for broken in (rows[:-1], rows[:2] + [rows[2].replace(rows[2].split(",")[5], "nan")]
                   + rows[3:], [rows[0].replace("cycle", "cyc")] + rows[1:]):
        bad.write_text("\n".join(broken) + "\n")
        with pytest.raises(checks.CheckError):
            checks.check_loss_log(bad, epochs=1, iters_per_epoch=4, paired=False)


def batch(tiny, n):
    _, mr = checks.read_svol(tiny / "mr" / "v0.svol")
    _, ct = checks.read_svol(tiny / "real" / "v1.svol")
    return checks.model_range(mr[:n])[:, None], checks.model_range(ct[:n])[:, None]


@pytest.mark.parametrize("paired", [False, True])
def test_networks_match_reference(tiny, paired):
    i_mr, i_ct = batch(tiny, 2)
    errors = checks.check_networks(tiny / "run0" / "ckpt_epoch0.csyn", i_mr, i_ct,
                                   paired, 10.0, np.random.default_rng(0))
    assert errors["grad"] < checks.GRAD_RTOL


def test_networks_reject_scaled_loss(tiny, monkeypatch):
    orig = losses.loss_gen_adv
    monkeypatch.setattr(losses, "loss_gen_adv", lambda s: orig(s) * 1.5)
    with pytest.raises(checks.CheckError, match="loss g_adv_ct"):
        checks.check_networks(tiny / "run0" / "ckpt_epoch0.csyn", *batch(tiny, 1),
                              False, 10.0, np.random.default_rng(0))


@pytest.mark.parametrize("op", ["relu", "tanh", "absolute"])
def test_networks_reject_corrupt_backward(tiny, op):
    with selfcheck.corrupted_op(op), pytest.raises(checks.CheckError, match="gradient"):
        checks.check_networks(tiny / "run0" / "ckpt_epoch0.csyn", *batch(tiny, 1),
                              False, 10.0, np.random.default_rng(0))


# -- inference and evaluation outputs ------------------------------------------------


def test_synth_volume(tiny, tmp_path):
    gen = checks.net_params(checks.read_csyn(tiny / "run0" / "ckpt_epoch1.csyn")[0], "g_mr2ct")
    out, src = tiny / "synth0" / "v0.svol", tiny / "mr" / "v0.svol"
    assert checks.check_synth(out, src, gen, 1) <= 1
    bad = tmp_path / "bad.svol"
    spoiled_copy(out, bad, two_levels_off((1, 16, 16)))
    with pytest.raises(checks.CheckError, match="levels"):
        checks.check_synth(bad, src, gen, 1)
    with pytest.raises(checks.CheckError, match="modality"):
        checks.check_synth(src, src, gen, 1)


def test_head_mask_matches_program():
    ph = data.phantom_generate(data.PhantomSpec(n_volumes=2, slices_per_volume=4), seed=1)
    for vol in ph.ct:
        np.testing.assert_array_equal(checks.head_mask(vol.voxels, vol.window),
                                      data.head_mask(vol))


def test_report(tiny, tmp_path):
    args = (tiny / "report.json", tiny / "real", tiny / "synth0", tiny / "synth1")
    mae = checks.check_report(*args)
    assert mae == json.loads(args[0].read_text())["a"]["aggregate"]["mean_mae"]

    synth = tmp_path / "synth0"
    shutil.copytree(tiny / "synth0", synth)
    _, real = checks.read_svol(tiny / "real" / "v0.svol")
    header, _ = checks.read_svol(tiny / "real" / "v0.svol")
    inside = tuple(np.argwhere(checks.head_mask(real, header["window"]))[0])
    spoiled_copy(tiny / "synth0" / "v0.svol", synth / "v0.svol", two_levels_off(inside))
    with pytest.raises(checks.CheckError, match="MAE"):
        checks.check_report(args[0], tiny / "real", synth, tiny / "synth1")

    report = json.loads(args[0].read_text())
    report["ttest"]["t"] *= 1.5
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="^t "):
        checks.check_report(bad, *args[1:])


# -- tracer ---------------------------------------------------------------------------


def test_tracer_is_consistent_and_transparent(tiny, tmp_path):
    tracer = layertrace.Tracer()
    originals = (cli.cmd_train, data.load_volume, losses.loss_gen_adv)
    tracer.install()
    try:
        run_cli("train", "--data", tiny / "data", "--out", tmp_path / "run",
                "--width-f", 4, "--width-d", 4, "--epochs-fixed", 1,
                "--epochs-decay", 0, "--seed", 0)
    finally:
        tracer.uninstall()
    assert (cli.cmd_train, data.load_volume, losses.loss_gen_adv) == originals
    for name in ("ckpt_epoch1.csyn", "loss_log.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tiny / "run0" / name).read_bytes()

    steps = tracer.count(["cli.cmd_train"], "train.step")
    assert steps == 4
    layers = layertrace.layer_metrics(tracer, "cli.cmd_train", steps, eval_pairs=0,
                                      infer_slices=0, overhead_pct=0.0, roof_gflops=1.0)
    assert layers["trace.step_attributed_pct"][0] >= 90.0
    assert layers["engine.conv2d.bwd_ms"][0] > 0.0
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert sorted(layers) == sorted(declared)
