import math
import warnings

import numpy as np
import pytest

from cyclesynth import evalx
from cyclesynth.data import SliceVolume
from cyclesynth.evalx import (
    EvalRow,
    aggregate,
    build_report,
    error_map,
    mae,
    paired_ttest,
    psnr,
    render_table,
)

# six frozen per-volume values for each training mode; oracle inputs for
# the aggregation and significance tests below
MAE_UNPAIRED = [70.3, 76.2, 75.5, 75.2, 72.0, 73.0]
MAE_PAIRED = [86.2, 98.8, 96.9, 86.0, 81.7, 87.0]
PSNR_UNPAIRED = [31.1, 32.1, 32.9, 32.9, 32.3, 32.5]
PSNR_PAIRED = [29.3, 30.1, 30.1, 31.7, 31.2, 30.9]


def level_volume(levels, window=(0.0, 255.0)):
    """Volume whose dequantized values equal the given u8 levels (unit window)."""
    vox = np.asarray(levels, dtype=np.uint8)
    return SliceVolume("CT", vox, window=window)


def full_mask(vol):
    return np.ones(vol.dims, dtype=bool)


class TestMae:
    def test_identical_is_zero(self):
        v = level_volume(np.full((1, 2, 2), 77))
        assert mae(v, v, full_mask(v)) == 0.0

    def test_constant_offset(self):
        a = level_volume(np.full((1, 2, 2), 100))
        b = level_volume(np.full((1, 2, 2), 110))
        assert mae(a, b, full_mask(a)) == pytest.approx(10.0, abs=1e-9)

    def test_hand_summed_toy(self):
        a = level_volume(np.zeros((1, 2, 2)))
        b = level_volume(np.array([[[0, 10], [20, 30]]]))
        assert mae(a, b, full_mask(a)) == pytest.approx(15.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = level_volume(rng.integers(0, 256, (2, 4, 4)))
        b = level_volume(rng.integers(0, 256, (2, 4, 4)))
        m = full_mask(a)
        assert mae(a, b, m) == mae(b, a, m)

    def test_translation_equivariant(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 200, (1, 4, 4))
        off = rng.integers(0, 200, (1, 4, 4))
        m = np.ones((1, 4, 4), bool)
        plain = mae(level_volume(base), level_volume(off), m)
        shifted = mae(level_volume(base + 50), level_volume(off + 50), m)
        assert plain == pytest.approx(shifted, abs=1e-9)

    def test_dim_mismatch(self):
        a = level_volume(np.zeros((1, 2, 2)))
        b = level_volume(np.zeros((1, 4, 4)))
        with pytest.raises(evalx.DimsMismatchError):
            mae(a, b, full_mask(a))

    def test_empty_mask(self):
        v = level_volume(np.zeros((1, 2, 2)))
        with pytest.raises(evalx.EmptyMaskError):
            mae(v, v, np.zeros((1, 2, 2), bool))

    def test_outside_mask_ignored(self):
        a = level_volume(np.full((1, 4, 4), 50))
        b_vox = np.full((1, 4, 4), 50, dtype=np.uint8)
        mask = np.zeros((1, 4, 4), bool)
        mask[0, :2, :] = True
        b_vox[0, 3, 3] = 255  # outside mask
        b = level_volume(b_vox)
        assert mae(a, b, mask) == 0.0


class TestPsnr:
    def test_full_scale_error_is_zero_db(self):
        a = level_volume(np.zeros((1, 2, 2)), window=(0.0, 4095.0))
        b = level_volume(np.full((1, 2, 2), 255), window=(0.0, 4095.0))
        assert psnr(a, b, full_mask(a)) == pytest.approx(0.0, abs=1e-9)

    def test_rmse_forty_point_nine_five(self):
        # one level of a (0, 255*40.95) window is exactly 40.95 native units,
        # so MSE = 40.95^2 = 1676.9025 and 4095 / RMSE = 100
        win = (0.0, 255.0 * 40.95)
        a = level_volume(np.zeros((1, 2, 2)), window=win)
        b = level_volume(np.ones((1, 2, 2)), window=win)
        assert psnr(a, b, full_mask(a), mode="rmse_corrected") == \
            pytest.approx(40.0, abs=1e-4)

    def test_mse_denominator_mode_divides_by_mse(self):
        win = (0.0, 255.0 * 40.95)
        a = level_volume(np.zeros((1, 2, 2)), window=win)
        b = level_volume(np.ones((1, 2, 2)), window=win)
        got = psnr(a, b, full_mask(a), mode="mse_denominator")
        assert got == pytest.approx(20.0 * math.log10(4095.0 / 1676.9025), abs=1e-4)

    def test_identical_raises(self):
        v = level_volume(np.full((1, 2, 2), 9))
        with pytest.raises(evalx.ZeroMseError, match="infinite PSNR"):
            psnr(v, v, full_mask(v))

    @pytest.mark.parametrize("mode", ["rmse_corrected", "mse_denominator"])
    def test_strictly_decreasing_in_mse(self, mode):
        a = level_volume(np.zeros((1, 4, 4)))
        small = level_volume(np.full((1, 4, 4), 10))
        big = level_volume(np.full((1, 4, 4), 60))
        m = full_mask(a)
        assert psnr(a, small, m, mode=mode) > psnr(a, big, m, mode=mode)

    def test_unknown_mode(self):
        v = level_volume(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            psnr(v, v, full_mask(v), mode="nonsense")

    def test_outside_mask_ignored(self):
        a = level_volume(np.full((1, 4, 4), 50))
        b_vox = np.full((1, 4, 4), 60, dtype=np.uint8)
        mask = np.zeros((1, 4, 4), bool)
        mask[0, :2, :] = True
        base = psnr(a, level_volume(b_vox), mask)
        b_vox2 = b_vox.copy()
        b_vox2[0, 3, 3] = 255
        assert psnr(a, level_volume(b_vox2), mask) == base


def rows_from(maes, psnrs):
    return [EvalRow(id=f"vol{i}", mae_hu=m, psnr_db=p, n_voxels=1000)
            for i, (m, p) in enumerate(zip(maes, psnrs))]


class TestAggregate:
    def within_decimal(self, x, target):
        assert abs(x - target) <= 0.05 + 1e-9

    def test_unpaired_columns(self):
        agg = aggregate(rows_from(MAE_UNPAIRED, PSNR_UNPAIRED))
        self.within_decimal(agg["mean_mae"], 73.7)
        self.within_decimal(agg["sd_mae"], 2.3)
        self.within_decimal(agg["mean_psnr"], 32.3)
        self.within_decimal(agg["sd_psnr"], 0.7)

    def test_paired_columns(self):
        agg = aggregate(rows_from(MAE_PAIRED, PSNR_PAIRED))
        self.within_decimal(agg["mean_mae"], 89.4)
        self.within_decimal(agg["sd_mae"], 6.8)
        self.within_decimal(agg["mean_psnr"], 30.6)
        self.within_decimal(agg["sd_psnr"], 0.9)

    def test_single_row_warns_without_sd(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the SD is omitted silently
            agg = aggregate(rows_from([50.0], [30.0]))
        assert agg["mean_mae"] == 50.0
        assert agg["sd_mae"] is None and agg["sd_psnr"] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_aggregates_recomputable_from_rows(self):
        rows = rows_from(MAE_UNPAIRED, PSNR_UNPAIRED)
        agg = aggregate(rows)
        assert agg["mean_mae"] == pytest.approx(
            sum(r.mae_hu for r in rows) / len(rows), abs=1e-12)


class TestPairedTtest:
    def test_zero_variance_rejected(self):
        with pytest.raises(evalx.DegenerateVarianceError):
            paired_ttest([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])

    def test_oracle_columns_significant(self):
        t, p = paired_ttest(MAE_UNPAIRED, MAE_PAIRED)
        assert t == pytest.approx(-7.2055, abs=1e-3)
        assert p < 0.05
        assert p == pytest.approx(8.022e-4, rel=1e-3)

    def test_closed_form_single_df(self):
        # n=2 pairs with differences [3, 1]: t = 2, nu = 1, and the
        # Student CDF has the arctangent closed form
        t, p = paired_ttest([3.0, 1.0], [0.0, 0.0])
        assert t == pytest.approx(2.0, abs=1e-12)
        assert p == pytest.approx(1.0 - (2.0 / math.pi) * math.atan(2.0), abs=1e-9)

    def test_constant_shift_with_tiny_noise(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=8)
        b = a - 5.0 + rng.normal(scale=1e-3, size=8)
        t, p = paired_ttest(a, b)
        assert abs(t) > 50
        assert p < 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0])


class TestErrorMap:
    def test_equal_volumes_all_zero(self):
        v = level_volume(np.full((1, 4, 4), 80))
        em = error_map(v, v)
        assert np.all(em.voxels == 0)
        assert em.window == (0.0, 255.0)

    def test_single_voxel_localized(self):
        a = np.full((1, 4, 4), 80, dtype=np.uint8)
        b = a.copy()
        b[0, 2, 1] = 200
        em = error_map(level_volume(a), level_volume(b))
        nz = np.argwhere(em.voxels != 0)
        assert nz.tolist() == [[0, 2, 1]]

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(6)
        a = level_volume(rng.integers(0, 256, (1, 4, 4)))
        b = level_volume(rng.integers(0, 256, (1, 4, 4)))
        assert np.array_equal(error_map(a, b).voxels, error_map(b, a).voxels)

    def test_dim_mismatch(self):
        with pytest.raises(evalx.DimsMismatchError):
            error_map(level_volume(np.zeros((1, 2, 2))),
                      level_volume(np.zeros((2, 2, 2))))


class TestReportRendering:
    def test_single_report_table_prints_one_decimal(self):
        rep = build_report(rows_from(MAE_UNPAIRED, PSNR_UNPAIRED))
        text = render_table(rep)
        assert "73.7 +/- 2.3" in text
        assert "32.3 +/- 0.7" in text

    def test_two_report_table_matches_frozen_aggregates(self):
        ra = build_report(rows_from(MAE_UNPAIRED, PSNR_UNPAIRED))
        rb = build_report(rows_from(MAE_PAIRED, PSNR_PAIRED))
        text = render_table(ra, rb, label_a="Unpaired", label_b="Paired")
        for frag in ("73.7 +/- 2.3", "89.4 +/- 6.8", "32.3 +/- 0.7", "30.6 +/- 0.9"):
            assert frag in text

    def test_undefined_aggregates_read_na(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the table shows n/a, so nothing warns
            one = build_report(rows_from(MAE_UNPAIRED[:1], PSNR_UNPAIRED[:1]))
        no_psnr = build_report(rows_from([0.0, 0.0], [None, None]))
        assert "70.3 +/- n/a" in render_table(one)
        assert "0.0 +/- 0.0       n/a +/- n/a" in render_table(no_psnr)
        both = render_table(one, no_psnr).splitlines()[-1]
        assert both.split()[3:] == ["70.3", "+/-", "n/a", "0.0", "+/-", "0.0",
                                    "31.1", "+/-", "n/a", "n/a", "+/-", "n/a"]

    def test_json_round_trip(self):
        import json

        rep = build_report(rows_from(MAE_UNPAIRED, PSNR_UNPAIRED))
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["metric_mode"] == "rmse_corrected"
        assert len(payload["rows"]) == 6
        assert payload["aggregate"]["mean_mae"] == pytest.approx(73.7, abs=1e-9)
