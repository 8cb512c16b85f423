"""Masked MAE/PSNR evaluation, per-volume aggregation, and the paired t-test.

Metrics are computed in dequantized native units (HU for CT) inside a
head-region mask. Aggregates use the sample (n-1) standard deviation.

PSNR has two modes. rmse_corrected (default) is the standard
20*log10(peak / RMSE). mse_denominator divides the peak by the MSE
itself, which goes negative at realistic error magnitudes; it is kept
behind a flag for comparability with results computed that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data

PSNR_PEAK = 4095.0
PSNR_MODES = ("rmse_corrected", "mse_denominator")


class DimsMismatchError(ValueError):
    pass


class EmptyMaskError(ValueError):
    pass


class ZeroMseError(ArithmeticError):
    """Identical volumes: PSNR is infinite and must be handled by the caller."""


class DegenerateVarianceError(ArithmeticError):
    pass


def _masked_diff(real, synth, mask):
    """Native-unit real - synth at the mask voxels, in C order (float64).

    Only the mask voxels are gathered, each through its window's level
    table, so every value has the bits `dequantize` would give it.
    """
    if real.dims != synth.dims:
        raise DimsMismatchError(f"volume dims differ: {real.dims} vs {synth.dims}")
    if mask is None or not np.any(mask):
        raise EmptyMaskError("evaluation mask is empty")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != real.dims:
        raise DimsMismatchError(f"mask shape {mask.shape} does not match dims {real.dims}")
    return (np.take(data.level_table(real.window), real.voxels[mask])
            - np.take(data.level_table(synth.window), synth.voxels[mask]))


def mae(real, synth, mask):
    """Mean absolute difference in native units over mask voxels."""
    return score(real, synth, mask)[0]


def mse(real, synth, mask):
    d = _masked_diff(real, synth, mask)
    return float(np.mean(d * d))


def psnr(real, synth, mask, mode="rmse_corrected"):
    """Peak signal-to-noise ratio in dB over mask voxels."""
    value = score(real, synth, mask, mode)[1]
    if value is None:
        raise ZeroMseError("infinite PSNR: volumes are identical inside the mask")
    return value


def score(real, synth, mask, mode="rmse_corrected"):
    """(MAE, PSNR) of one pair from one masked difference; PSNR is None
    where the volumes are identical inside the mask."""
    if mode not in PSNR_MODES:
        raise ValueError(f"psnr mode must be one of {PSNR_MODES}, got {mode!r}")
    d = _masked_diff(real, synth, mask)
    m = float(np.mean(d * d))
    denom = m if mode == "mse_denominator" else np.sqrt(m)
    return float(np.mean(np.abs(d))), (float(20.0 * np.log10(PSNR_PEAK / denom)) if m else None)


@dataclass
class EvalRow:
    id: str
    mae_hu: float
    psnr_db: float | None
    n_voxels: int


@dataclass
class EvalReport:
    rows: list
    aggregate: dict
    metric_mode: str

    def to_dict(self):
        return {
            "metric_mode": self.metric_mode,
            "rows": [{"id": r.id, "mae_hu": r.mae_hu, "psnr_db": r.psnr_db,
                      "n_voxels": r.n_voxels} for r in self.rows],
            "aggregate": self.aggregate,
        }


def aggregate(rows):
    """Mean and sample SD of MAE and PSNR over per-volume rows.

    With fewer than two rows the SDs are omitted (None).
    """
    if not rows:
        raise ValueError("aggregate needs at least one row")
    maes = np.array([r.mae_hu for r in rows], dtype=np.float64)
    psnrs = np.array([r.psnr_db for r in rows if r.psnr_db is not None],
                     dtype=np.float64)
    return {"mean_mae": float(maes.mean()),
            "mean_psnr": float(psnrs.mean()) if psnrs.size else None,
            "sd_mae": float(maes.std(ddof=1)) if len(rows) >= 2 else None,
            "sd_psnr": float(psnrs.std(ddof=1)) if psnrs.size >= 2 else None}


def build_report(rows, mode="rmse_corrected"):
    return EvalReport(rows=list(rows), aggregate=aggregate(rows), metric_mode=mode)


def paired_ttest(a, b):
    """Paired two-sided t-test; returns (t, p) with n-1 degrees of freedom."""
    from scipy import special

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired_ttest needs equal-length 1D inputs, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("paired_ttest needs at least two pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise DegenerateVarianceError("paired differences have zero variance")
    t = float(d.mean() / (sd / np.sqrt(n)))
    nu = n - 1
    # two-sided p via the regularized incomplete beta function
    p = float(special.betainc(nu / 2.0, 0.5, nu / (nu + t * t)))
    return t, p


def error_map(real, synth):
    """Absolute per-voxel difference re-quantized into a [0, window-span] display window."""
    if real.dims != synth.dims:
        raise DimsMismatchError(f"volume dims differ: {real.dims} vs {synth.dims}")
    a = data.dequantize(real.voxels, real.window)
    b = data.dequantize(synth.voxels, synth.window)
    span = real.window[1] - real.window[0]
    diff = np.abs(a - b)
    return data.SliceVolume(real.modality, data.quantize(diff, (0.0, span)),
                            spacing_mm=real.spacing_mm, window=(0.0, span))


def _fmt(x, width=10):
    return f"{x:{width}.1f}" if x is not None else " " * (width - 3) + "---"


def _mean_sd(agg, metric, width):
    """'mean +/- SD' of one aggregate; an undefined figure (no finite PSNR,
    fewer than two rows) reads n/a."""
    mean, sd = agg[f"mean_{metric}"], agg[f"sd_{metric}"]
    mean = f"{mean:{width}.1f}" if mean is not None else f"{'n/a':>{width}}"
    return f"{mean} +/- " + (f"{sd:.1f}" if sd is not None else "n/a")


def render_table(report_a, report_b=None, label_a="Run A", label_b="Run B"):
    """Fixed-width text table: per-volume MAE/PSNR rows plus the mean +/- SD line."""
    lines = []
    if report_b is None:
        lines.append(f"{'':12s}{'MAE':>10s}{'PSNR':>10s}")
        for r in report_a.rows:
            lines.append(f"{r.id:12s}{_fmt(r.mae_hu)}{_fmt(r.psnr_db)}")
        agg = report_a.aggregate
        lines.append(f"{'Mean +/- SD':12s}{_mean_sd(agg, 'mae', 10)}{_mean_sd(agg, 'psnr', 10)}")
        return "\n".join(lines)

    lines.append(f"{'':12s}{'MAE':>21s}{'PSNR':>21s}")
    lines.append(f"{'':12s}{label_a:>10s}{label_b:>11s}{label_a:>10s}{label_b:>11s}")
    for ra, rb in zip(report_a.rows, report_b.rows):
        lines.append(f"{ra.id:12s}{_fmt(ra.mae_hu)}{_fmt(rb.mae_hu, 11)}"
                     f"{_fmt(ra.psnr_db)}{_fmt(rb.psnr_db, 11)}")
    aggs = (report_a.aggregate, report_b.aggregate)
    lines.append(f"{'Mean +/- SD':12s}" + " ".join(
        _mean_sd(agg, metric, 6) for metric in ("mae", "psnr") for agg in aggs))
    return "\n".join(lines)
