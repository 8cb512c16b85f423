"""Output checks for the benchmark's operations.

Every check reads the program's files with its own parsers (SVOL, CSYN1,
CSV, report JSON) and compares them with the float64 reference in
``reference.py`` or with a plain numpy/scipy computation. A check that
fails raises ``CheckError``; the benchmark counts the operation as failed.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage, stats

import reference as ref

# documented file-format facts, restated here rather than imported
LOG_HEADER = ["epoch", "iter", "lr", "d_ct", "d_mr", "g_adv_ct", "g_adv_mr",
              "cycle", "total_g", "total_d"]
CT_WINDOW = (-600.0, 1400.0)
HEAD_THRESHOLD_HU = -300.0
PSNR_PEAK = 4095.0

# float32 program against the float64 reference
FORWARD_ATOL = 1e-3      # images and score maps, in model range units
LOSS_RTOL = 1e-3
# The central difference runs with every kink's side frozen at the base
# point (reference.frozen_kinks), so it converges as h^2; GRAD_H balances
# that against float64 roundoff.
GRAD_H = 1e-7
GRAD_RTOL = 1e-3         # relative to max(|central difference|, 1)
REPORT_RTOL = 1e-9       # report figures against numpy on the same voxels
TTEST_RTOL = 1e-8


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# -- file readers ---------------------------------------------------------------


def _framed(path, magic):
    raw = Path(path).read_bytes()
    require(raw[:len(magic)] == magic, f"{path}: magic is not {magic!r}")
    (hlen,) = struct.unpack_from("<I", raw, len(magic))
    start = len(magic) + 4
    return json.loads(raw[start:start + hlen]), raw, start + hlen


def read_svol(path):
    """(header dict, uint8 voxels [S,H,W]) of an SVOL file."""
    header, raw, off = _framed(path, b"SVOL1")
    dims = tuple(header["dims"])
    n = int(np.prod(dims))
    extra = n if header["has_mask"] else 0
    require(len(raw) == off + n + extra, f"{path}: payload size mismatch")
    return header, np.frombuffer(raw, np.uint8, n, off).reshape(dims)


def read_csyn(path):
    """name -> float32 array of a CSYN1 checkpoint."""
    manifest, raw, off = _framed(path, b"CSYN1")
    arrays = {}
    for ent in manifest["entries"]:
        count = int(np.prod(ent["shape"], dtype=np.int64))
        arrays[ent["name"]] = np.frombuffer(
            raw, "<f4", count, off + ent["offset"]).reshape(ent["shape"])
    return arrays, manifest["meta"]


def net_params(arrays, net):
    """float64 parameter dict of one network stored in a checkpoint."""
    prefix = net + "/"
    return {k[len(prefix):]: v.astype(np.float64)
            for k, v in arrays.items() if k.startswith(prefix)}


def model_range(levels):
    return np.asarray(levels, np.float64) / 255.0 * 2.0 - 1.0


def to_levels(y):
    return np.rint(255.0 * np.clip((y + 1.0) / 2.0, 0.0, 1.0)).astype(np.int64)


def dequantize(levels, window):
    lo, hi = window
    return lo + np.asarray(levels, np.float64) / 255.0 * (hi - lo)


def head_mask(levels, window):
    """Largest 4-connected component above -300 HU per slice, holes filled.

    A hole is background not 4-connected to the slice border.
    """
    native = dequantize(levels, window)
    out = np.zeros(native.shape, dtype=bool)
    for s, plane in enumerate(native):
        labels, n = ndimage.label(plane > HEAD_THRESHOLD_HU)
        require(n > 0, f"slice {s} has no foreground")
        sizes = np.bincount(labels.ravel())[1:]
        comp = labels == 1 + int(np.argmax(sizes))
        bg, _ = ndimage.label(~comp)
        border = np.unique(np.concatenate(
            [bg[0], bg[-1], bg[:, 0], bg[:, -1]]))
        out[s] = ~np.isin(bg, border[border > 0])
    return out


# -- training outputs -----------------------------------------------------------


def check_loss_log(path, epochs, iters_per_epoch, paired):
    """Documented header, one finite row per iteration, epochs in order."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    require(rows and rows[0] == LOG_HEADER, f"{path}: header {rows[:1]}")
    body = rows[1:]
    require(len(body) == epochs * iters_per_epoch,
            f"{path}: {len(body)} rows, expected {epochs * iters_per_epoch}")
    for k, row in enumerate(body):
        want = [k // iters_per_epoch, k % iters_per_epoch]
        require([int(row[0]), int(row[1])] == want, f"{path}: row {k} is {row[:2]}")
        vals = [float(v) for v in row[2:]]
        require(all(math.isfinite(v) for v in vals), f"{path}: row {k} not finite")
        if paired:
            require(vals[2] == 0.0 and vals[4] == 0.0,
                    f"{path}: row {k} has MR-side terms in paired mode")


def _program_nets(arrays, meta, engine_nets):
    """Program ParamGroups loaded from a checkpoint's float32 arrays."""
    from cyclesynth.models import init_params
    cfg = meta["config"]
    nets = {}
    for name in engine_nets:
        kind = "generator" if name.startswith("g_") else "discriminator"
        group = init_params(kind, cfg["width_f" if kind == "generator" else "width_d"])
        group.load_state_arrays({p: arrays[f"{name}/{p}"] for p in group.names()})
        nets[name] = group
    return nets


def _program_objective(nets, i_mr, i_ct, paired, weight):
    """Run the program's forward and losses; returns named float64 arrays."""
    from cyclesynth import engine, losses
    from cyclesynth.models import discriminator_forward as dis, generator_forward as gen
    x_mr, x_ct = engine.Tensor(i_mr), engine.Tensor(i_ct)
    if paired:
        fake_ct = gen(nets["g_mr2ct"], x_mr)
        score = dis(nets["d_ct"], fake_ct)
        out = {"fake_ct": fake_ct, "g_adv_ct": losses.loss_gen_adv(score),
               "total_g": losses.loss_paired(fake_ct, x_ct, score, mu=weight),
               "d_ct": losses.loss_dis(dis(nets["d_ct"], x_ct),
                                       dis(nets["d_ct"], fake_ct.detach()))}
    else:
        fake_ct = gen(nets["g_mr2ct"], x_mr)
        rec_mr = gen(nets["g_ct2mr"], fake_ct)
        fake_mr = gen(nets["g_ct2mr"], x_ct)
        rec_ct = gen(nets["g_mr2ct"], fake_mr)
        adv_ct = losses.loss_gen_adv(dis(nets["d_ct"], fake_ct))
        adv_mr = losses.loss_gen_adv(dis(nets["d_mr"], fake_mr))
        cyc = losses.loss_cycle(x_mr, rec_mr, x_ct, rec_ct)
        out = {"fake_ct": fake_ct, "rec_mr": rec_mr, "fake_mr": fake_mr,
               "rec_ct": rec_ct, "g_adv_ct": adv_ct, "g_adv_mr": adv_mr,
               "cycle": cyc,
               "total_g": losses.total_generator_loss(adv_ct, adv_mr, cyc, weight),
               "d_ct": losses.loss_dis(dis(nets["d_ct"], x_ct),
                                       dis(nets["d_ct"], fake_ct.detach())),
               "d_mr": losses.loss_dis(dis(nets["d_mr"], x_mr),
                                       dis(nets["d_mr"], fake_mr.detach()))}
    return out


def check_networks(ckpt, i_mr, i_ct, paired, weight, rng):
    """Epoch-0 forwards, losses and generator gradient against the reference.

    i_mr, i_ct: float64 [N,1,H,W] batches in model range. The gradient of
    the generator objective is projected on one random direction over all
    generator parameters and compared with a float64 central difference.
    Returns the worst relative errors seen.
    """
    from cyclesynth import engine
    arrays, meta = read_csyn(ckpt)
    names = ["g_mr2ct", "d_ct"] if paired else ["g_mr2ct", "g_ct2mr", "d_ct", "d_mr"]
    objective = ref.paired_objective if paired else ref.unpaired_objective
    ref_nets = {n: net_params(arrays, n) for n in names}
    with ref.frozen_kinks([]) as sides:
        want = objective(ref_nets, i_mr, i_ct, weight)

    nets = _program_nets(arrays, meta, names)
    got = _program_objective(nets, i_mr.astype(np.float32), i_ct.astype(np.float32),
                             paired, weight)
    errors = {}
    for key, t in got.items():
        a = np.asarray(t.data, np.float64)
        if a.size == 1:
            err = abs(float(a) - want[key]) / max(abs(want[key]), 1e-12)
            require(err <= LOSS_RTOL, f"loss {key}: program {float(a):.7g} "
                    f"vs reference {want[key]:.7g}")
        else:
            require(a.shape == want[key].shape, f"{key}: shape {a.shape}")
            err = float(np.abs(a - want[key]).max())
            require(err <= FORWARD_ATOL, f"forward {key}: max |diff| {err:.3g}")
        errors[key] = err

    # the gradient is checked in float64, where the engine is exact enough
    # for a random projection over ~10^5 parameters to be compared at all
    gens = [n for n in names if n.startswith("g_")]
    with engine.precision(np.float64):
        nets = _program_nets(arrays, meta, names)
        engine.backward(_program_objective(nets, i_mr, i_ct, paired, weight)["total_g"])
    direction = {(n, p): rng.standard_normal(ref_nets[n][p].shape)
                 for n in gens for p in ref_nets[n]}
    analytic = sum(float(np.sum(nets[n][p].grad * d))
                   for (n, p), d in direction.items())

    def at(sign):
        moved = dict(ref_nets)
        for n in gens:
            moved[n] = {p: v + sign * GRAD_H * direction[(n, p)]
                        for p, v in ref_nets[n].items()}
        with ref.frozen_kinks(sides):
            return objective(moved, i_mr, i_ct, weight)["total_g"]

    numeric = (at(1.0) - at(-1.0)) / (2.0 * GRAD_H)
    err = abs(analytic - numeric) / max(abs(numeric), 1.0)
    require(err <= GRAD_RTOL, f"generator gradient: engine {analytic:.7g} "
            f"vs central difference {numeric:.7g}")
    errors["grad"] = err
    return errors


# -- inference and evaluation outputs --------------------------------------------


def check_synth(out_path, in_path, gen_params, slice_index):
    """Synthesized CT header, and one slice within one level of the reference."""
    head_in, levels_in = read_svol(in_path)
    head, levels = read_svol(out_path)
    require(head["modality"] == "SYNTH_CT", f"{out_path}: modality {head['modality']}")
    require(tuple(head["dims"]) == tuple(head_in["dims"]), f"{out_path}: dims {head['dims']}")
    require(tuple(head["window"]) == CT_WINDOW, f"{out_path}: window {head['window']}")
    x = model_range(levels_in[slice_index])[None, None]
    want = to_levels(ref.generator(gen_params, x))[0, 0]
    worst = int(np.abs(levels[slice_index].astype(np.int64) - want).max())
    require(worst <= 1, f"{out_path}: slice {slice_index} is {worst} levels "
            f"from the reference")
    return worst


def masked_errors(real, real_window, synth, synth_window):
    """(MAE in native units, PSNR in dB or None, mask voxel count) by plain numpy."""
    mask = head_mask(real, real_window)
    diff = (dequantize(real, real_window) - dequantize(synth, synth_window))[mask]
    mse = float(np.mean(diff ** 2))
    psnr = 20.0 * math.log10(PSNR_PEAK / math.sqrt(mse)) if mse > 0 else None
    return float(np.mean(np.abs(diff))), psnr, int(mask.sum())


def volume_metrics(real_path, synth_path):
    head_r, real = read_svol(real_path)
    head_s, synth = read_svol(synth_path)
    return masked_errors(real, head_r["window"], synth, head_s["window"])


def _close(a, b, rtol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(b), 1e-12)


def _check_run(report, real_dir, synth_dir):
    require(report["metric_mode"] == "rmse_corrected", "unexpected PSNR mode")
    maes = []
    names = sorted(p.name for p in Path(real_dir).glob("*.svol"))
    require([r["id"] for r in report["rows"]] == [Path(n).stem for n in names],
            f"report ids {[r['id'] for r in report['rows']]}")
    for row, name in zip(report["rows"], names):
        mae, psnr, count = volume_metrics(Path(real_dir) / name, Path(synth_dir) / name)
        require(row["n_voxels"] == count, f"{name}: mask has {row['n_voxels']} "
                f"voxels, reference mask {count}")
        require(_close(row["mae_hu"], mae, REPORT_RTOL),
                f"{name}: MAE {row['mae_hu']} vs {mae}")
        require(_close(row["psnr_db"], psnr, REPORT_RTOL),
                f"{name}: PSNR {row['psnr_db']} vs {psnr}")
        maes.append(mae)
    agg = report["aggregate"]
    require(_close(agg["mean_mae"], float(np.mean(maes)), REPORT_RTOL),
            f"mean MAE {agg['mean_mae']}")
    if len(maes) > 1:
        require(_close(agg["sd_mae"], float(np.std(maes, ddof=1)), REPORT_RTOL),
                f"SD MAE {agg['sd_mae']}")
    return maes


def check_report(report_path, real_dir, synth_dir, synth_b_dir=None):
    """Every per-volume figure, the aggregates and the t-test of an eval report.

    Returns the report's mean MAE of the first (or only) synthesis run.
    """
    report = json.loads(Path(report_path).read_text())
    if synth_b_dir is None:
        _check_run(report, real_dir, synth_dir)
        return report["aggregate"]["mean_mae"]
    maes_a = _check_run(report["a"], real_dir, synth_dir)
    maes_b = _check_run(report["b"], real_dir, synth_b_dir)
    want = stats.ttest_rel(maes_a, maes_b)
    got = report["ttest"]
    require(_close(got["t"], float(want.statistic), TTEST_RTOL),
            f"t {got['t']} vs {want.statistic}")
    require(_close(got["p"], float(want.pvalue), TTEST_RTOL),
            f"p {got['p']} vs {want.pvalue}")
    return report["a"]["aggregate"]["mean_mae"]
