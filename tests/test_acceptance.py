"""Acceptance suite: one printed verdict line per criterion.

Criteria 1-5 are oracle and invariant checks and run in seconds. Criteria
6-8 train small models on the synthetic phantom, each training a
`cyclesynth train` process with CYCLESYNTH_THREADS=1: one BLAS thread per
process, and on two or more CPUs an unpaired run steps in two processes.
Their fixtures are module-scoped so the expensive runs are shared, and the
whole module takes about five minutes on two CPUs (criteria 6, 7 and 8 took
1.4, 2.2 and 1.5 min; in-process at numpy's default two threads they took
about 2.8, 2.9 and 2.4). Verdict lines are printed with capture disabled, so
they appear in any pytest invocation.
"""

import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cyclesynth import cli, data, evalx, losses, models, optim, selfcheck, train
from cyclesynth.engine import Tensor

pytestmark = pytest.mark.acceptance

# frozen per-volume metrics consumed by the aggregation oracle
MAE_UNPAIRED = [70.3, 76.2, 75.5, 75.2, 72.0, 73.0]
MAE_PAIRED = [86.2, 98.8, 96.9, 86.0, 81.7, 87.0]
PSNR_UNPAIRED = [31.1, 32.1, 32.9, 32.9, 32.3, 32.5]
PSNR_PAIRED = [29.3, 30.1, 30.1, 31.7, 31.2, 30.9]

PHANTOM = dict(n_volumes=8, slices_per_volume=16, height=64, width=64)
TRAIN_VOLS = slice(0, 6)
HOLD_VOLS = slice(6, 8)
SMOKE_SEED = 0
SMOKE_EPOCHS = (5, 5)    # fixed, decay
C7_SEED = 0
C7_EPOCHS = (5, 5)       # identical budget for both modes


def _verdict(capsys, num, title, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {title}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _fmt1(x):
    return f"{x:.1f}"


# -- shared heavy fixtures ------------------------------------------------


@pytest.fixture(scope="module")
def phantoms():
    aligned = data.phantom_generate(data.PhantomSpec(**PHANTOM), seed=0)
    shifted = data.phantom_generate(
        data.PhantomSpec(**PHANTOM, max_shift_px=3, shift_probability=0.5), seed=0)
    return {"aligned": aligned, "shifted": shifted}


@pytest.fixture(scope="module")
def training_data(phantoms, tmp_path_factory):
    """Each phantom set's training volumes as SVOL files, which round-trip bit-exactly."""
    dirs = {}
    for tag, ph in phantoms.items():
        dirs[tag] = tmp_path_factory.mktemp(f"{tag}_data")
        for i, (mr, ct) in enumerate(zip(ph.mr[TRAIN_VOLS], ph.ct[TRAIN_VOLS])):
            data.save_volume(mr, dirs[tag] / f"mr_{i:03d}.svol")
            data.save_volume(ct, dirs[tag] / f"ct_{i:03d}.svol")
    return dirs


def _run_training(data_dir, mode, out, epochs, seed):
    """One `cyclesynth train` process with CYCLESYNTH_THREADS=1. A fresh process caps
    BLAS at one thread before it loads numpy, which pytest's own process has already
    done, and an unpaired run on two or more CPUs takes the two-process step. The
    timeout is criterion 6's budget, so that a hung worker fails rather than hangs."""
    args = ["train", "--data", str(data_dir), "--out", str(out), "--mode", mode,
            "--width-f", "16", "--width-d", "16", "--epochs-fixed", str(epochs[0]),
            "--epochs-decay", str(epochs[1]), "--seed", str(seed),
            "--checkpoint-every", str(sum(epochs))]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "CYCLESYNTH_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cyclesynth.cli", *args],
                          capture_output=True, text=True, env=env, timeout=1800)
    assert proc.returncode == 0, proc.stderr
    res = {"log": str(Path(out) / "loss_log.csv"),
           "final_checkpoint": str(Path(out) / f"ckpt_epoch{sum(epochs)}.csyn")}
    return res, (time.perf_counter() - t0) / 60.0


def _epoch_mean(log_path, column, epoch):
    with open(log_path, newline="") as f:
        vals = [float(r[column]) for r in csv.DictReader(f)
                if int(r["epoch"]) == epoch]
    return sum(vals) / len(vals)


def _holdout_maes(ckpt, hold_mr, gt_ct, masks):
    gen, _, out_modality = cli.load_generator(Path(ckpt), "mr2ct")
    return [evalx.mae(ct, cli.synthesize_volume(gen, mr, out_modality), m)
            for mr, ct, m in zip(hold_mr, gt_ct, masks)]


def _holdout(phantoms):
    """Held-out MR inputs, aligned ground-truth CTs, and their head masks."""
    gt_ct = phantoms["aligned"].ct[HOLD_VOLS]
    hold_mr = phantoms["aligned"].mr[HOLD_VOLS]
    return hold_mr, gt_ct, [data.head_mask(v) for v in gt_ct]


@pytest.fixture(scope="module")
def smoke_run(training_data, tmp_path_factory):
    """Criterion 6 training: unpaired on the aligned set, also reused by 8."""
    res, minutes = _run_training(training_data["aligned"], "unpaired",
                                 tmp_path_factory.mktemp("smoke"),
                                 SMOKE_EPOCHS, SMOKE_SEED)
    return {"res": res, "minutes": minutes}


@pytest.fixture(scope="module")
def misalign_runs(training_data, tmp_path_factory):
    """Criterion 7: paired and unpaired trained on misaligned CTs."""
    out = {}
    for mode in ("unpaired", "paired"):
        res, minutes = _run_training(training_data["shifted"], mode,
                                     tmp_path_factory.mktemp(mode),
                                     C7_EPOCHS, C7_SEED)
        out[mode] = {"res": res, "minutes": minutes}
    return out


# -- criteria -------------------------------------------------------------


def test_criterion_1_aggregation_oracle(capsys):
    t0 = time.perf_counter()
    rows_u = [evalx.EvalRow(str(i), m, p, 1)
              for i, (m, p) in enumerate(zip(MAE_UNPAIRED, PSNR_UNPAIRED))]
    rows_p = [evalx.EvalRow(str(i), m, p, 1)
              for i, (m, p) in enumerate(zip(MAE_PAIRED, PSNR_PAIRED))]
    agg_u = evalx.aggregate(rows_u)
    agg_p = evalx.aggregate(rows_p)
    got = tuple(_fmt1(agg[k]) for agg in (agg_u, agg_p)
                for k in ("mean_mae", "sd_mae", "mean_psnr", "sd_psnr"))
    want = ("73.7", "2.3", "32.3", "0.7", "89.4", "6.8", "30.6", "0.9")
    t, p = evalx.paired_ttest(MAE_UNPAIRED, MAE_PAIRED)
    secs = time.perf_counter() - t0
    ok = got == want and p < 0.05 and secs < 1.0
    _verdict(capsys, 1, "aggregation oracle", ok,
             f"unpaired {got[0]}+/-{got[1]} MAE, {got[2]}+/-{got[3]} dB; "
             f"paired {got[4]}+/-{got[5]} MAE, {got[6]}+/-{got[7]} dB; "
             f"t={t:.4f}, p={p:.3g}; {secs:.2f}s")


def test_criterion_2_gradient_suite(capsys):
    t0 = time.perf_counter()
    failures = []
    op_err, worst_op, n_ops = 0.0, "", 0
    for i, (name, build, arrays) in enumerate(selfcheck.op_gradient_checks()):
        n_ops += 1
        rng = np.random.default_rng(1000 + i)
        try:
            err = selfcheck._fd_gradcheck(build, arrays, rng, probes=20)
        except selfcheck.CheckFailure as e:
            failures.append(f"{name}: {e}")
            continue
        if err > op_err:
            op_err, worst_op = err, name
    net_err = {}
    for kind in ("generator", "discriminator"):
        try:
            net_err[kind] = selfcheck.network_gradcheck(kind, probes=24)
        except selfcheck.CheckFailure as e:
            failures.append(f"{kind}: {e}")
    secs = time.perf_counter() - t0
    ok = not failures and secs < 300.0
    detail = (f"{n_ops} ops f32 h=1e-3, 20 probes, max err {op_err:.1e} ({worst_op}); "
              f"networks width 8, f64 h=1e-6, 24 probes: "
              f"generator 16x16 err {net_err.get('generator', float('nan')):.1e}, "
              f"discriminator 24x24 err {net_err.get('discriminator', float('nan')):.1e}; "
              f"{secs:.0f}s")
    if failures:
        detail += "; " + "; ".join(failures)
    _verdict(capsys, 2, "gradient suite", ok, detail)


def test_criterion_3_architecture(capsys):
    t0 = time.perf_counter()
    rf = models.receptive_field(models.DISC_LAYERS)
    gen = models.init_params("generator", width=4, rng_seed=0)
    gen_ok = all(
        models.generator_forward(gen, Tensor(np.zeros((1, 1, s, s), np.float32))
                                 ).data.shape == (1, 1, s, s)
        for s in (16, 64, 256))
    disc = models.init_params("discriminator", width=4, rng_seed=0)
    dmap = models.discriminator_forward(
        disc, Tensor(np.zeros((1, 1, 256, 256), np.float32))).data.shape
    secs = time.perf_counter() - t0
    ok = (rf == 70 and gen_ok and dmap == (1, 1, 30, 30)
          and models.disc_output_size(256) == 30 and secs < 60.0)
    _verdict(capsys, 3, "architecture", ok,
             f"receptive field {rf}; generator preserves 16/64/256: {gen_ok}; "
             f"discriminator 256->{dmap[2]}x{dmap[3]}; {secs:.1f}s")


def test_criterion_4_loss_identities(capsys):
    rng = np.random.default_rng(7)

    def t(a):
        return Tensor(np.asarray(a, dtype=np.float32))

    def full(v, shape=(2, 1, 3, 3)):
        return t(np.full(shape, v, np.float32))

    img = lambda: t(rng.uniform(-1, 1, (2, 1, 5, 5)).astype(np.float32))
    checks = {}

    checks["dis perfect"] = losses.loss_dis(full(1.0), full(0.0)).data.item()
    checks["dis half - 0.5"] = losses.loss_dis(full(0.5), full(0.5)).data.item() - 0.5
    checks["dis wrong - 2"] = losses.loss_dis(full(0.0), full(1.0)).data.item() - 2.0
    checks["gen fooled"] = losses.loss_gen_adv(full(1.0)).data.item()
    checks["gen caught - 1"] = losses.loss_gen_adv(full(0.0)).data.item() - 1.0
    checks["gen half - 0.25"] = losses.loss_gen_adv(full(0.5)).data.item() - 0.25

    a, b = img(), img()
    checks["cycle identity"] = losses.loss_cycle(a, a, b, b).data.item()
    off1 = t(a.data + 0.1)
    off2 = t(b.data + 0.1)
    checks["cycle offset - 0.2"] = losses.loss_cycle(a, off1, b, off2).data.item() - 0.2
    half = t(b.data + 0.5)
    checks["cycle one-path - 0.5"] = losses.loss_cycle(a, a, b, half).data.item() - 0.5

    real = img()
    checks["paired exact"] = losses.loss_paired(real, real, full(1.0)).data.item()
    near = t(real.data + 0.01)
    checks["paired 0.01*100 - 1"] = (
        losses.loss_paired(near, real, full(1.0), mu=100.0).data.item() - 1.0)
    score = t(rng.uniform(-1, 1, (2, 1, 3, 3)).astype(np.float32))
    checks["paired mu=0 = adv"] = (
        losses.loss_paired(near, real, score, mu=0.0).data.item()
        - losses.loss_gen_adv(score).data.item())

    adv_ct, adv_mr, cyc = full(0.37, (1,)), full(0.21, (1,)), full(0.93, (1,))
    lam = 0.7
    lo = losses.total_generator_loss(adv_ct, adv_mr, cyc, lam).data.item()
    hi = losses.total_generator_loss(adv_ct, adv_mr, cyc, 2 * lam).data.item()
    checks["lambda linearity"] = (hi - lo) - lam * cyc.data.item()

    worst = max(checks, key=lambda k: abs(checks[k]))
    ok = abs(checks[worst]) <= 1e-6
    _verdict(capsys, 4, "loss identities", ok,
             f"{len(checks)} identities, worst |err| {abs(checks[worst]):.1e} ({worst})")


def test_criterion_5_lr_schedule(capsys):
    cfg = train.TrainConfig()
    got = [optim.lr_at(e, cfg.base_lr, cfg.fixed_epochs, cfg.decay_epochs)
           for e in (0, 99, 150, 200)]
    ok = got == [2e-4, 2e-4, 1e-4, 0.0]
    _verdict(capsys, 5, "learning-rate schedule", ok,
             "lr(0)={:.6g} lr(99)={:.6g} lr(150)={:.6g} lr(200)={:.6g}".format(*got))


def test_criterion_6_learning_smoke(capsys, phantoms, smoke_run):
    t0 = time.perf_counter()
    log = smoke_run["res"]["log"]
    first = _epoch_mean(log, "cycle", 0)
    last = _epoch_mean(log, "cycle", sum(SMOKE_EPOCHS) - 1)
    ratio = last / first

    hold_mr, gt_ct, masks = _holdout(phantoms)
    synth = _holdout_maes(smoke_run["res"]["final_checkpoint"], hold_mr, gt_ct, masks)
    ident = [evalx.mae(ct, data.SliceVolume("SYNTH_CT", mr.voxels), m)
             for mr, ct, m in zip(hold_mr, gt_ct, masks)]
    beats = [s < i for s, i in zip(synth, ident)]
    minutes = smoke_run["minutes"] + (time.perf_counter() - t0) / 60.0
    ok = ratio <= 0.5 and all(beats) and minutes < 30.0
    _verdict(capsys, 6, "desk-scale learning smoke", ok,
             f"cycle {first:.3f}->{last:.3f} ratio {ratio:.2f}; holdout MAE "
             f"synth [{', '.join(_fmt1(v) for v in synth)}] vs identity "
             f"[{', '.join(_fmt1(v) for v in ident)}]; {minutes:.1f} min")


def test_criterion_7_misalignment_direction(capsys, phantoms, misalign_runs):
    t0 = time.perf_counter()
    hold_mr, gt_ct, masks = _holdout(phantoms)
    maes = {tag: _holdout_maes(run["res"]["final_checkpoint"], hold_mr, gt_ct, masks)
            for tag, run in misalign_runs.items()}
    mean_u = float(np.mean(maes["unpaired"]))
    mean_p = float(np.mean(maes["paired"]))
    minutes = (misalign_runs["unpaired"]["minutes"]
               + misalign_runs["paired"]["minutes"]
               + (time.perf_counter() - t0) / 60.0)
    ok = mean_u < mean_p and minutes < 60.0
    _verdict(capsys, 7, "misalignment direction", ok,
             f"holdout MAE unpaired {mean_u:.1f} vs paired {mean_p:.1f}; "
             f"{sum(C7_EPOCHS)} epochs each, seed {C7_SEED}; {minutes:.1f} min")


def test_criterion_8_reproducibility(capsys, training_data, smoke_run, tmp_path):
    res, minutes = _run_training(training_data["aligned"], "unpaired", tmp_path / "rerun",
                                 SMOKE_EPOCHS, SMOKE_SEED)
    a = Path(smoke_run["res"]["final_checkpoint"]).read_bytes()
    b = Path(res["final_checkpoint"]).read_bytes()
    try:
        selfcheck.check_svol_roundtrip(str(tmp_path))
        selfcheck.check_checkpoint_roundtrip(str(tmp_path))
        roundtrips = "bit-exact"
        roundtrips_ok = True
    except selfcheck.CheckFailure as e:
        roundtrips = str(e)
        roundtrips_ok = False
    ok = a == b and roundtrips_ok
    _verdict(capsys, 8, "reproducibility", ok,
             f"rerun checkpoint identical: {a == b} ({len(a)} bytes, "
             f"{minutes:.1f} min); svol and checkpoint round-trips {roundtrips}")
