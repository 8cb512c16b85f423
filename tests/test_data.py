import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import data
from cyclesynth.data import (
    CT_WINDOW,
    MR_WINDOW,
    PhantomSpec,
    augment,
    dequantize,
    from_model_range,
    head_mask,
    load_volume,
    make_volume,
    pad_margin,
    phantom_generate,
    quantize,
    save_volume,
    to_model_range,
)

from helpers import bfs_largest_component_filled, file_size_limit


class TestQuantize:
    def test_ct_window_endpoints(self):
        assert quantize(-600.0, CT_WINDOW) == 0
        assert quantize(1400.0, CT_WINDOW) == 255

    def test_ct_window_midpoint(self):
        assert quantize(400.0, CT_WINDOW) == 128

    def test_clamps_outside_window(self):
        assert quantize(-5000.0, CT_WINDOW) == 0
        assert quantize(9000.0, CT_WINDOW) == 255

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            quantize(0.0, (100.0, 100.0))
        with pytest.raises(ValueError):
            dequantize(np.uint8(7), (5.0, -5.0))

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(-2e4, 2e4), lo=st.floats(-1e4, 1e4),
           width=st.floats(1.0, 1e4))
    def test_half_level_roundtrip_bound(self, v, lo, width):
        window = (lo, lo + width)
        back = float(dequantize(quantize(v, window), window))
        clamped = min(max(v, window[0]), window[1])
        assert abs(back - clamped) <= width / 510 + 1e-6 * width

    def test_array_input(self):
        q = quantize(np.array([-600.0, 400.0, 1400.0]), CT_WINDOW)
        assert q.dtype == np.uint8
        assert list(q) == [0, 128, 255]


class TestModelRange:
    def test_endpoints(self):
        assert to_model_range(np.uint8(0)) == pytest.approx(-1.0)
        assert to_model_range(np.uint8(255)) == pytest.approx(1.0)

    def test_exhaustive_roundtrip(self):
        q = np.arange(256, dtype=np.uint8)
        assert np.array_equal(from_model_range(to_model_range(q)), q)

    def test_overshoot_clamped(self):
        assert from_model_range(np.float32(1.7)) == 255
        assert from_model_range(np.float32(-3.0)) == 0


def toy_ct(native_slices):
    native = np.asarray(native_slices, dtype=np.float64)
    return make_volume("CT", quantize(native, CT_WINDOW))


class TestHeadMask:
    def test_all_air_errors(self):
        vol = toy_ct(np.full((2, 8, 8), -600.0))
        with pytest.raises(data.EmptyForegroundError):
            head_mask(vol)

    def test_disk_with_hole_filled(self):
        sl = np.full((16, 16), -600.0)
        yy, xx = np.mgrid[0:16, 0:16]
        disk = (yy - 8) ** 2 + (xx - 8) ** 2 <= 25
        sl[disk] = 50.0
        sl[8, 8] = -600.0  # interior air pocket
        vol = toy_ct(sl[None])
        m = head_mask(vol)[0]
        assert np.array_equal(m, disk)

    def test_keeps_largest_component_only(self):
        sl = np.full((16, 16), -600.0)
        sl[2:10, 2:10] = 50.0   # 64 px
        sl[12:15, 12:15] = 50.0  # 9 px satellite
        m = head_mask(toy_ct(sl[None]))[0]
        assert m[4, 4] and not m[13, 13]
        assert m.sum() == 64

    def test_matches_bfs_oracle_on_random_blobs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            fg = rng.random((16, 16)) < 0.45
            fg[0, 0] = True  # never empty
            native = np.where(fg, 100.0, -600.0)
            m = head_mask(toy_ct(native[None]))[0]
            assert np.array_equal(m, bfs_largest_component_filled(fg))

    def test_masking_twice_equals_once(self):
        rng = np.random.default_rng(10)
        native = np.where(rng.random((3, 16, 16)) < 0.4, 80.0, -600.0)
        native[:, 7, 7] = 80.0
        vol = toy_ct(native)
        m1 = head_mask(vol)
        # suppress everything outside the mask to air and recompute
        voxels = vol.voxels.copy()
        voxels[~m1] = quantize(-600.0, CT_WINDOW)
        m2 = head_mask(make_volume("CT", voxels))
        assert np.array_equal(m1, m2)

    def test_rejects_mr(self):
        vol = make_volume("MR", np.full((1, 8, 8), 128, dtype=np.uint8))
        with pytest.raises(ValueError):
            head_mask(vol)


class TestAugment:
    def test_pad_margin_values(self):
        assert pad_margin(256) == 30
        assert pad_margin(64) == 8

    def test_output_dims_and_window_membership(self):
        # every augmented image must be an exact window of the padded image
        rng = np.random.default_rng(11)
        img = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        pad_total = pad_margin(64)
        padded = np.pad(img, pad_total // 2, mode="edge")
        for _ in range(25):
            out = augment(img, 64, rng)
            assert out.shape == (64, 64)
            hits = [(oy, ox)
                    for oy in range(pad_total + 1)
                    for ox in range(pad_total + 1)
                    if np.array_equal(padded[oy:oy + 64, ox:ox + 64], out)]
            assert len(hits) >= 1

    def test_canary_borders_never_leak(self):
        # values not present in the edge-padded input can never appear
        rng = np.random.default_rng(12)
        img = np.full((32, 32), 7, dtype=np.uint8)
        for _ in range(50):
            out = augment(img, 32, rng)
            assert np.all(out == 7)

    def test_seeded_rng_reproducible(self):
        img = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
        a = augment(img, 64, np.random.default_rng(77))
        b = augment(img, 64, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_zero_margin_is_identity(self):
        img = np.arange(16 * 16, dtype=np.int64).reshape(16, 16)
        out = augment(img, 16, np.random.default_rng(0), pad_total=0)
        assert np.array_equal(out, img)

    def test_oversized_input_rejected(self):
        with pytest.raises(ValueError):
            augment(np.zeros((80, 80)), 64, np.random.default_rng(0))


class TestPhantom:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhantomSpec(height=30, width=64)
        with pytest.raises(ValueError):
            PhantomSpec(max_shift_px=-1)
        with pytest.raises(ValueError):
            PhantomSpec(shift_probability=1.5)

    def test_same_seed_identical(self):
        spec = PhantomSpec(n_volumes=2, slices_per_volume=3, height=32, width=32)
        a = phantom_generate(spec, seed=5)
        b = phantom_generate(spec, seed=5)
        for va, vb in zip(a.mr + a.ct, b.mr + b.ct):
            assert np.array_equal(va.voxels, vb.voxels)

    def test_different_seed_differs(self):
        spec = PhantomSpec(n_volumes=1, slices_per_volume=2, height=32, width=32)
        a = phantom_generate(spec, seed=1)
        b = phantom_generate(spec, seed=2)
        assert not np.array_equal(a.ct[0].voxels, b.ct[0].voxels)

    def test_zero_misalignment_records_zero_shifts(self):
        spec = PhantomSpec(n_volumes=2, slices_per_volume=4, height=32, width=32)
        out = phantom_generate(spec, seed=0)
        assert np.all(out.shifts == 0)

    def test_modalities_and_windows(self):
        out = phantom_generate(PhantomSpec(n_volumes=1, slices_per_volume=1,
                                           height=32, width=32), seed=0)
        assert out.mr[0].modality == "SYNTH_MR" and out.mr[0].window == MR_WINDOW
        assert out.ct[0].modality == "SYNTH_CT" and out.ct[0].window == CT_WINDOW

    def test_aligned_pair_has_identical_skull_masks(self):
        # noise is clipped at 3 SD, so the quantized level bands of the two
        # modalities separate exactly and the skull pixel sets must agree
        spec = PhantomSpec(n_volumes=2, slices_per_volume=4, height=48, width=48)
        out = phantom_generate(spec, seed=3)
        for mr, ct in zip(out.mr, out.ct):
            ct_skull = ct.voxels >= 150
            mr_skull = (mr.voxels >= 15) & (mr.voxels <= 60)
            assert ct_skull.sum() > 0
            assert np.array_equal(ct_skull, mr_skull)

    def test_ct_high_bin_absent_in_mr(self):
        spec = PhantomSpec(n_volumes=1, slices_per_volume=10, height=48, width=48)
        out = phantom_generate(spec, seed=4)
        for si in range(10):
            ct_sl = out.ct[0].voxels[si]
            mr_sl = out.mr[0].voxels[si]
            high = ct_sl > 200
            assert high.sum() > 0          # skull band present in CT
            assert np.all(mr_sl[high] < 80)  # same region is dark-ish in MR

    def test_shifts_are_recorded_and_invertible(self):
        spec = PhantomSpec(n_volumes=2, slices_per_volume=6, height=32, width=32,
                           max_shift_px=3, shift_probability=1.0)
        shifted = phantom_generate(spec, seed=6)
        aligned = phantom_generate(
            PhantomSpec(n_volumes=2, slices_per_volume=6, height=32, width=32),
            seed=6)
        assert np.abs(shifted.shifts).max() <= 3
        assert np.any(shifted.shifts != 0)
        for vi in range(2):
            for si in range(6):
                dy, dx = shifted.shifts[vi, si]
                back = np.roll(shifted.ct[vi].voxels[si], (-dy, -dx), axis=(0, 1))
                assert np.array_equal(back, aligned.ct[vi].voxels[si])
            # MR side is never shifted
            assert np.array_equal(shifted.mr[vi].voxels, aligned.mr[vi].voxels)

    def test_head_mask_on_phantom_ct(self):
        spec = PhantomSpec(n_volumes=1, slices_per_volume=2, height=64, width=64)
        out = phantom_generate(spec, seed=7)
        m = head_mask(out.ct[0])
        frac = m.mean()
        assert 0.2 < frac < 0.7
        # cavities sit inside the head: mask must be hole-free per the oracle
        for si in range(2):
            native = dequantize(out.ct[0].voxels[si], CT_WINDOW)
            assert np.array_equal(m[si], bfs_largest_component_filled(native > -300))


class TestSvolRoundTrip:
    def make_vol(self, with_mask):
        rng = np.random.default_rng(20)
        vox = rng.integers(0, 256, size=(3, 8, 10), dtype=np.uint8)
        mask = rng.random((3, 8, 10)) < 0.5 if with_mask else None
        return make_volume("SYNTH_CT", vox, spacing_mm=(1.0, 0.5, 0.5), mask=mask)

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_save_load_equal(self, tmp_path, with_mask):
        vol = self.make_vol(with_mask)
        path = tmp_path / "v.svol"
        save_volume(vol, path)
        back = load_volume(path)
        assert back.modality == vol.modality
        assert back.dims == vol.dims
        assert back.spacing_mm == vol.spacing_mm
        assert back.window == vol.window
        assert np.array_equal(back.voxels, vol.voxels)
        if with_mask:
            assert np.array_equal(back.mask, vol.mask)
        else:
            assert back.mask is None

    def test_file_bytes_stable(self, tmp_path):
        vol = self.make_vol(True)
        p1, p2 = tmp_path / "a.svol", tmp_path / "b.svol"
        save_volume(vol, p1)
        save_volume(load_volume(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_previous_volume(self, tmp_path):
        path = tmp_path / "v.svol"
        save_volume(self.make_vol(False), path)
        before = path.read_bytes()
        with file_size_limit(64), pytest.raises(OSError):
            save_volume(self.make_vol(True), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.svol"
        save_volume(self.make_vol(False), path)
        raw = bytearray(path.read_bytes())
        raw[:5] = b"SVOL9"
        path.write_bytes(bytes(raw))
        with pytest.raises(data.BadMagicError, match="bad magic"):
            load_volume(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.svol"
        save_volume(self.make_vol(False), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(data.TruncatedError):
            load_volume(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "v.svol"
        path.write_bytes(b"SVOL1" + (9999).to_bytes(4, "little") + b"{}")
        with pytest.raises(data.TruncatedError):
            load_volume(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "v.svol"
        save_volume(self.make_vol(False), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(data.HeaderError):
            load_volume(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "v.svol"
        blob = b"not json!!"
        path.write_bytes(b"SVOL1" + len(blob).to_bytes(4, "little") + blob)
        with pytest.raises(data.HeaderError):
            load_volume(path)

    def test_distinct_error_classes(self):
        kinds = {data.BadMagicError, data.TruncatedError, data.HeaderError}
        assert len(kinds) == 3
        assert all(issubclass(k, data.ContainerError) for k in kinds)


class TestSliceVolumeValidation:
    def test_window_order_enforced(self):
        with pytest.raises(ValueError):
            make_volume("CT", np.zeros((1, 4, 4), np.uint8), window=(10.0, -10.0))

    def test_mask_shape_enforced(self):
        with pytest.raises(ValueError):
            make_volume("CT", np.zeros((1, 4, 4), np.uint8),
                        mask=np.zeros((1, 4, 5), bool))

    def test_unknown_modality(self):
        with pytest.raises(ValueError):
            make_volume("XRAY", np.zeros((1, 4, 4), np.uint8))
