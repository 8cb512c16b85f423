import os

import numpy as np
import pytest

from cyclesynth import data
from cyclesynth.checkpoint import read_checkpoint, write_checkpoint
from cyclesynth.models import init_params
from cyclesynth.optim import AdamState, adam_step

from helpers import file_size_limit, traced_peak


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "g/stem.w": rng.normal(size=(4, 1, 7, 7)).astype(np.float32),
        "g/stem.b": np.zeros(4, dtype=np.float32),
        "opt/m/stem.w": rng.normal(size=(4, 1, 7, 7)).astype(np.float32),
    }


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "c.csyn"
        arrays = sample_arrays()
        meta = {"epoch": 7, "config": {"lam": 10.0}, "opt_t": {"g": 3}}
        write_checkpoint(path, arrays, meta)
        back, back_meta = read_checkpoint(path)
        assert list(back) == list(arrays)  # order preserved
        for name in arrays:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], arrays[name])
        assert back_meta == meta

    def test_file_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csyn", tmp_path / "b.csyn"
        write_checkpoint(p1, sample_arrays(), {"epoch": 1})
        arrays, meta = read_checkpoint(p1)
        write_checkpoint(p2, arrays, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_network_params_bitwise(self, tmp_path):
        p = init_params("generator", width=4, rng_seed=9)
        path = tmp_path / "g.csyn"
        write_checkpoint(path, {n: t.data for n, t in p.items()}, {})
        back, _ = read_checkpoint(path)
        q = init_params("generator", width=4, rng_seed=1)
        q.load_state_arrays(back)
        for name in p.names():
            assert np.array_equal(p[name].data, q[name].data)

    def test_optimizer_state_bitwise(self, tmp_path):
        p = init_params("discriminator", width=4, rng_seed=2)
        state = AdamState()
        rng = np.random.default_rng(3)
        for _ in range(3):
            for t in p.tensors():
                t.grad = rng.normal(size=t.data.shape).astype(np.float32)
            adam_step(p, state, lr=1e-3)
        arrays = {}
        for name in p.names():
            arrays[f"m/{name}"] = state.m[name]
            arrays[f"v/{name}"] = state.v[name]
        path = tmp_path / "o.csyn"
        write_checkpoint(path, arrays, {"t": state.t})
        back, meta = read_checkpoint(path)
        assert meta["t"] == 3
        for name in p.names():
            assert np.array_equal(back[f"m/{name}"], state.m[name])
            assert np.array_equal(back[f"v/{name}"], state.v[name])


class TestStreamedIO:
    """Each entry goes from its own array to the file and back, so neither direction
    holds a second copy of the payload."""

    def big_arrays(self):
        rng = np.random.default_rng(4)
        return {f"net/p{i}": rng.normal(size=(5, 100, 1000)).astype(np.float32)
                for i in range(5)}  # 10 MB

    def test_write_peak_is_a_sliver_of_the_payload(self, tmp_path):
        arrays = self.big_arrays()
        payload = sum(a.nbytes for a in arrays.values())
        _, peak = traced_peak(lambda: write_checkpoint(tmp_path / "c.csyn", arrays, {}))
        assert peak < 0.05 * payload, f"write peak {peak / payload:.2f}x the payload"

    def test_read_peak_is_the_arrays_alone(self, tmp_path):
        arrays = self.big_arrays()
        payload = sum(a.nbytes for a in arrays.values())
        write_checkpoint(tmp_path / "c.csyn", arrays, {"epoch": 1})
        (back, _), peak = traced_peak(lambda: read_checkpoint(tmp_path / "c.csyn"))
        assert peak <= 1.1 * payload, f"read peak {peak / payload:.2f}x the payload"
        for name in arrays:
            assert np.array_equal(back[name], arrays[name])


class TestCorruption:
    def write_one(self, tmp_path):
        path = tmp_path / "c.csyn"
        write_checkpoint(path, sample_arrays(), {"epoch": 0})
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(data.BadMagicError, match="bad magic"):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_one(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(data.TruncatedError):
            read_checkpoint(path)

    def test_file_shrunk_after_its_size_was_taken(self, tmp_path, monkeypatch):
        path = self.write_one(tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        with pytest.raises(data.TruncatedError, match=r"entry 'opt/m/stem.w' ends before its 784 bytes$"):
            read_checkpoint(path)

    def test_truncated_manifest(self, tmp_path):
        path = tmp_path / "c.csyn"
        path.write_bytes(b"CSYN1" + (9999).to_bytes(4, "little") + b"{}")
        with pytest.raises(data.TruncatedError):
            read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.write_one(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(data.HeaderError):
            read_checkpoint(path)

    def test_non_f32_dtype_rejected(self, tmp_path):
        path = self.write_one(tmp_path)
        raw = path.read_bytes()
        raw = raw.replace(b'"dtype":"f32"', b'"dtype":"f64"', 1)
        # keep manifest length valid: f32 and f64 have equal byte length
        path.write_bytes(raw)
        with pytest.raises(data.HeaderError):
            read_checkpoint(path)

    def test_negative_dimension_is_a_malformed_entry(self, tmp_path):
        # one replaced byte turns [14] into [-4]; the JSON and its length stay valid
        path = tmp_path / "c.csyn"
        write_checkpoint(path, {"w": np.zeros(14, np.float32)}, {})
        path.write_bytes(path.read_bytes().replace(b'"shape":[14]', b'"shape":[-4]', 1))
        with pytest.raises(data.HeaderError, match=rf"^{path}: malformed entry .*negative"):
            read_checkpoint(path)

    def test_empty_checkpoint_is_legal(self, tmp_path):
        path = tmp_path / "c.csyn"
        write_checkpoint(path, {}, {"note": "init"})
        arrays, meta = read_checkpoint(path)
        assert arrays == {} and meta == {"note": "init"}

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt_epoch1.csyn"
        write_checkpoint(path, sample_arrays(), {"epoch": 1})
        before = path.read_bytes()
        with file_size_limit(256), pytest.raises(OSError):
            write_checkpoint(path, sample_arrays(), {"epoch": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]
