"""cyclesynth benchmark: training, inference and evaluation throughput.

    python3 perfbench/run.py --workload train-unpaired --seed 1 --seconds 25 --trace 0

Drives the ``cyclesynth`` commands in-process through ``cyclesynth.cli.main``
on phantom data generated from ``--seed``, with one BLAS thread. A run sets
up its inputs several times, each time after importing the program in a
fresh interpreter (``setup_s`` is the median), then repeats whole rounds of
commands until ``--seconds`` have passed. Each command is one operation; it
fails on a non-zero exit or when its output check (checks.py) fails. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of layertrace.py with ``--trace 1``. README.md describes
the workloads and the metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy loads: single-threaded runs are bitwise
# reproducible, and this machine has two cores
for _var in ("CYCLESYNTH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
WIDTH = 16
# 8 volumes x 8 slices of 64x64: the first 4 train, the other 4 are held out
TRAIN_PHANTOM = {"volumes": 8, "slices": 8, "size": 64, "train_volumes": 4}
TRAIN = {
    "train-unpaired": {"mode": "unpaired", "batch": 1, "epochs": (1, 0),
                       "misalign": False, "weight": 10.0},
    "train-paired": {"mode": "paired", "batch": 4, "epochs": (2, 1),
                     "misalign": True, "weight": 100.0},
}
INFER_PHANTOM = {"volumes": 4, "slices": 8, "size": 128}
INFER_CKPT_SEEDS = (0, 1)
INFER_CHUNK = 8          # slices per generator call in `cyclesynth infer`
WORKLOADS = (*TRAIN, "infer-eval")
# `eval` commands are short (15-100 ms); repeats give them enough samples
TRAIN_EVAL_REPEATS = 16
INFER_EVAL_REPEATS = 8
MIN_STEP_ATTRIBUTED_PCT = 90.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_hashes(root):
    """Relative path -> hash of every file under root except the timestamped
    training manifest."""
    return {p.relative_to(root).as_posix(): sha256(p)
            for p in sorted(Path(root).rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class Ledger:
    """Counts operations: one CLI command together with its output check.

    Checks run when the round's commands are done (``settle``), so that the
    first round's peak RSS is the program's, not the float64 reference's.
    """

    def __init__(self, cli, probe=None):
        self.cli = cli
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.pending = []
        self.rss_mb = None

    def op(self, argv, check=None):
        """Run `cyclesynth <argv>` and queue check(); returns (seconds, host
        probe seconds just before), or None if the command failed."""
        self.attempted += 1
        probe = self.probe() if self.probe else None
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = self.cli.main([str(a) for a in argv])
        except Exception:  # a traceback fails this operation, not the run
            log(f"{argv[0]} raised:\n{traceback.format_exc()}")
            rc = None
        secs = time.perf_counter() - t0
        if rc != 0:
            log(f"{argv[0]} exited with {rc}: {captured.getvalue()[-300:]}")
            self.failed += 1
            return None
        if check is not None:
            self.pending.append((argv[0], check))
        return secs, probe

    def settle(self):
        """Run the queued checks in order; each failure fails its operation."""
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pending, self.pending = self.pending, []
        for command, check in pending:
            try:
                check()
            except Exception:  # a malformed output fails this operation only
                log(f"check of {command} failed:\n{traceback.format_exc()}")
                self.failed += 1


class Workload:
    """Shared bookkeeping: the first round's files are the reference for the
    byte-identical later rounds (one thread, same inputs, same commands)."""

    def __init__(self, seed, checks):
        self.seed = seed
        self.checks = checks
        self.first = None
        self.mae = None

    def same_as_first(self, work, *rels):
        for rel in rels:
            self.checks.require(self.first.get(rel) == sha256(work / rel),
                                f"{rel} differs from the first round's")

    def infer(self, ledger, ckpt, src, out, work, slice_index, gen):
        """`infer` one volume. The first round checks the output's header and
        one slice against the reference generator (its parameters cached in
        `gen`); later rounds check the bytes against the first round's."""
        first = self.first is None

        def check():
            if not first:
                return self.same_as_first(work, out.relative_to(work).as_posix())
            if not gen:
                gen.update(self.checks.net_params(self.checks.read_csyn(ckpt)[0], "g_mr2ct"))
            self.checks.check_synth(out, src, gen, slice_index)

        return ledger.op(["infer", "--ckpt", ckpt, "--in", src, "--direction", "mr2ct",
                          "--out", out], check)

    def check_mae(self, mae):
        self.checks.require(self.mae is None or mae == self.mae,
                            f"mean MAE {mae} differs from the first round's {self.mae}")
        self.mae = mae


class TrainWorkload(Workload):
    """`train` on the first volumes, then `infer` and `eval` on the held-out ones."""

    def __init__(self, name, seed, train_seed, checks, clock):
        super().__init__(seed, checks)
        self.clock = clock
        self.cfg = TRAIN[name]
        self.train_seed = train_seed
        self.epoch0_mae = None
        ph = TRAIN_PHANTOM
        self.slices = ph["train_volumes"] * ph["slices"] * sum(self.cfg["epochs"])
        self.holdout = ph["volumes"] - ph["train_volumes"]
        self.gemm_cols = self.cfg["batch"] * (ph["size"] // 4) ** 2

    def setup(self, root, ledger):
        ph = TRAIN_PHANTOM
        common = ["--volumes", ph["volumes"], "--slices", ph["slices"],
                  "--size", f"{ph['size']}x{ph['size']}", "--seed", self.seed]
        ledger.op(["phantom", "--out", root / "aligned", *common])
        if self.cfg["misalign"]:
            # +-3 px shifts on half the CT slices, as in acceptance criterion 7
            ledger.op(["phantom", "--out", root / "shifted", *common,
                       "--misalign-px", 3, "--misalign-prob", 0.5])
        for tag in ("mr", "ct"):
            (root / f"hold_{tag}").mkdir()
            for v in range(ph["train_volumes"], ph["volumes"]):
                shutil.copy(root / "aligned" / f"{tag}_{v:03d}.svol",
                            root / f"hold_{tag}" / f"h{v:03d}.svol")

    def round(self, root, work, ledger):
        cfg, ph, checks = self.cfg, TRAIN_PHANTOM, self.checks
        paired = cfg["mode"] == "paired"
        epochs = sum(cfg["epochs"])
        run = work / "run"
        final = run / f"ckpt_epoch{epochs}.csyn"
        first = self.first is None

        def check_train():
            checks.check_loss_log(run / "loss_log.csv", epochs,
                                  -(-ph["train_volumes"] * ph["slices"] // cfg["batch"]),
                                  paired)
            if first:
                self.check_epoch0(root, run / "ckpt_epoch0.csyn")
            else:
                self.same_as_first(work, "run/ckpt_epoch0.csyn",
                                   f"run/ckpt_epoch{epochs}.csyn", "run/loss_log.csv")

        data = root / ("shifted" if cfg["misalign"] else "aligned")
        n0 = len(self.clock.samples)
        t_train = ledger.op(
            ["train", "--data", data, "--out", run, "--mode", cfg["mode"],
             "--batch", cfg["batch"], "--width-f", WIDTH, "--width-d", WIDTH,
             "--pool-size", 50, "--epochs-fixed", cfg["epochs"][0],
             "--epochs-decay", cfg["epochs"][1], "--checkpoint-every", epochs,
             "--limit-volumes", ph["train_volumes"], "--seed", self.train_seed],
            check_train)

        synth = work / "synth"
        synth.mkdir()
        gen = {}
        t_infer = [self.infer(ledger, final, src, synth / src.name, work,
                              (self.seed + k) % ph["slices"], gen)
                   for k, src in enumerate(sorted((root / "hold_mr").glob("*.svol")))]

        def check_eval():
            mae = checks.check_report(work / "report.json", root / "hold_ct", synth)
            checks.require(mae < self.epoch0_mae,
                           f"held-out MAE {mae:.2f} HU after training is not below "
                           f"the epoch-0 networks' {self.epoch0_mae:.2f} HU")
            self.check_mae(mae)

        t_eval = [ledger.op(["eval", "--real", root / "hold_ct", "--synth", synth,
                             "--mask-from", "compute", "--report", work / "report.json"],
                            check_eval) for _ in range(TRAIN_EVAL_REPEATS)]
        return {"train_s": t_train, "steps": self.clock.samples[n0:],
                "infer_s": t_infer, "eval_s": t_eval,
                "infer_slices": self.holdout * ph["slices"],
                "eval_pairs": self.holdout * TRAIN_EVAL_REPEATS}

    def throughput(self, results):
        """Training slices/s and evaluated volumes/s of a run's rounds.

        A train command's time at reference speed is its step count times the
        run's median step, plus the median over rounds of its time outside
        the steps (volume loads, checkpoint writes, the loop itself), each
        scaled by the host probes.
        """
        done = [r for r in results if r["train_s"] is not None]
        if not done:
            return 0.0, 0.0
        outside = [((r["train_s"][0] - sum(s + p for s, p in r["steps"])),
                    statistics.median(p for _, p in r["steps"])) for r in done]
        command_s = (len(done[0]["steps"]) * at_reference([s for r in done for s in r["steps"]])
                     + at_reference(outside))
        return (rate(self.slices, command_s),
                rate(self.holdout, at_reference([s for r in results for s in r["eval_s"]])))

    def check_epoch0(self, root, ckpt):
        """Reference forwards, losses and gradient on a batch of the workload's
        slices, and the held-out MAE of the untrained networks."""
        import numpy as np
        from cyclesynth import cli, data
        checks, cfg, ph = self.checks, self.cfg, TRAIN_PHANTOM
        rng = np.random.default_rng(self.seed)
        src = root / ("shifted" if cfg["misalign"] else "aligned")
        paired = cfg["mode"] == "paired"
        _, mr = checks.read_svol(src / "mr_000.svol")
        _, ct = checks.read_svol(src / ("ct_000.svol" if paired else "ct_001.svol"))
        take = np.sort(rng.choice(ph["slices"], size=cfg["batch"], replace=False))
        # the held-out MAE first: the eval checks compare with it even when
        # the network check below fails
        gen, _, modality = cli.load_generator(ckpt, "mr2ct")
        maes = []
        for path in sorted((root / "hold_mr").glob("*.svol")):
            head, real = checks.read_svol(root / "hold_ct" / path.name)
            synth = cli.synthesize_volume(gen, data.load_volume(path), modality)
            maes.append(checks.masked_errors(real, head["window"], synth.voxels,
                                             checks.CT_WINDOW)[0])
        self.epoch0_mae = float(np.mean(maes))
        checks.check_networks(ckpt, checks.model_range(mr[take])[:, None],
                              checks.model_range(ct[take])[:, None], paired,
                              cfg["weight"], rng)


class InferEvalWorkload(Workload):
    """`infer` over held-out 128x128 volumes from two epoch-0 checkpoints,
    then one comparative `eval` of the two output directories."""

    def __init__(self, seed, checks):
        super().__init__(seed, checks)
        ph = INFER_PHANTOM
        self.slices = len(INFER_CKPT_SEEDS) * ph["volumes"] * ph["slices"]
        self.pairs = len(INFER_CKPT_SEEDS) * ph["volumes"]
        self.gemm_cols = INFER_CHUNK * (ph["size"] // 4) ** 2

    def setup(self, root, ledger):
        ph = INFER_PHANTOM
        ledger.op(["phantom", "--out", root / "data", "--volumes", ph["volumes"],
                   "--slices", ph["slices"], "--size", f"{ph['size']}x{ph['size']}",
                   "--seed", self.seed])
        for tag, sub in (("mr", "mr"), ("ct", "real")):
            (root / sub).mkdir()
            for v in range(ph["volumes"]):
                shutil.copy(root / "data" / f"{tag}_{v:03d}.svol", root / sub / f"v{v:03d}.svol")
        for s in INFER_CKPT_SEEDS:
            ledger.op(["train", "--data", root / "data", "--out", root / f"ckpt{s}",
                       "--width-f", WIDTH, "--width-d", WIDTH, "--epochs-fixed", 0,
                       "--epochs-decay", 0, "--seed", s])

    def round(self, root, work, ledger):
        checks, ph = self.checks, INFER_PHANTOM
        t_infer = []
        for s, label in zip(INFER_CKPT_SEEDS, "ab"):
            ckpt = root / f"ckpt{s}" / "ckpt_epoch0.csyn"
            (work / label).mkdir()
            gen = {}
            t_infer += [self.infer(ledger, ckpt, src, work / label / src.name, work,
                                   (self.seed + k) % ph["slices"], gen)
                        for k, src in enumerate(sorted((root / "mr").glob("*.svol")))]
        t_eval = [ledger.op(
            ["eval", "--real", root / "real", "--synth", work / "a", "--synth-b", work / "b",
             "--mask-from", "compute", "--report", work / "report.json"],
            lambda: self.check_mae(checks.check_report(work / "report.json", root / "real",
                                                       work / "a", work / "b")))
            for _ in range(INFER_EVAL_REPEATS)]
        return {"infer_s": t_infer, "eval_s": t_eval, "infer_slices": self.slices,
                "eval_pairs": self.pairs * INFER_EVAL_REPEATS}

    def throughput(self, results):
        """Inferred slices/s and evaluated volumes/s of a run's rounds.

        `infer` times are bimodal (about 0.8 s and 1.15 s, alternating with
        no link to the host probe), so a run's median flips between the two
        modes; their first decile reads the fast mode.
        """
        infers = [s for r in results for s in r["infer_s"]]
        evals = [s for r in results for s in r["eval_s"]]
        return (rate(INFER_PHANTOM["slices"], at_reference(infers, quantile=1)),
                rate(self.pairs, at_reference(evals)))


# -- measurement ------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


def import_program():
    """`import cyclesynth.cli` (numpy and scipy with it) in a fresh
    interpreter, as each `cyclesynth` command pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", "import cyclesynth.cli"], env=env)
    if done.returncode != 0:
        raise SetupError(f"importing the program exited with {done.returncode}")


def set_up(wl, run_dir, cli, repeats):
    """Import the program in a fresh interpreter and set the workload up,
    `repeats` times; returns (input dir, median seconds)."""
    times, hashes, root = [], None, None
    for i in range(repeats):
        if root is not None:
            shutil.rmtree(root)
        root = run_dir / f"setup{i}"
        root.mkdir(parents=True)
        ledger = Ledger(cli)
        t0 = time.perf_counter()
        import_program()
        wl.setup(root, ledger)
        times.append(time.perf_counter() - t0)
        if ledger.failed:
            raise SetupError(f"{ledger.failed} set-up commands failed")
        now = tree_hashes(root)
        if hashes is not None and now != hashes:
            raise SetupError("set-up outputs differ between repeats")
        hashes = now
    return root, statistics.median(times)


def one_round(wl, root, work, ledger):
    """One round and its checks; the first round's files become the reference."""
    work.mkdir()
    result = wl.round(root, work, ledger)
    ledger.settle()
    if wl.first is None:
        wl.first = tree_hashes(work)
    else:
        shutil.rmtree(work)
    return result


def measure(wl, root, run_dir, ledger, seconds):
    """Whole rounds until `seconds` have passed (at least one)."""
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        results.append(one_round(wl, root, run_dir / f"round{len(results)}", ledger))
    return results


class HostProbe:
    """Seconds for a fixed float32 GEMM and elementwise numpy mix, 3-4 ms on
    this host; it runs no program code.

    This host's speed wanders: the probe alone reads 15-20% apart between
    10-second windows, with slow phases of up to 40% that last from seconds
    to whole runs. A sample divided by the probe taken just before it, times
    REFERENCE_S, is the sample at the host's reference speed.
    """

    REFERENCE_S = 0.0035

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((64, 576), dtype=np.float32)
        self.b = rng.standard_normal((576, 256), dtype=np.float32)
        self.x = rng.standard_normal((16, 64, 64), dtype=np.float32)
        self()  # the first call pays for BLAS start-up

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(12):
            self.a @ self.b
            self.np.tanh(self.x).sum(axis=(1, 2))
        return time.perf_counter() - t0


def at_reference(samples, quantile=None):
    """Median (or the given decile) of seconds / probe over (seconds, probe)
    samples, times REFERENCE_S; None without samples."""
    ratios = [x[0] / x[1] for x in samples if x is not None]
    if len(ratios) < 2:
        return ratios[0] * HostProbe.REFERENCE_S if ratios else None
    pick = (statistics.quantiles(ratios, n=10, method="inclusive")[quantile - 1]
            if quantile else statistics.median(ratios))
    return pick * HostProbe.REFERENCE_S


class StepClock:
    """Wall time of each training step, with a host probe just before it,
    from a wrapper on the trainer's step functions: the only instrumentation
    of an untraced run."""

    def __init__(self, probe):
        self.probe = probe
        self.samples = []
        self._saved = []

    def __enter__(self):
        from cyclesynth import train
        for attr in ("train_step_unpaired", "train_step_paired"):
            fn = getattr(train, attr)
            self._saved.append((attr, fn))
            setattr(train, attr, self._timed(fn))
        return self

    def _timed(self, fn):
        def timed(*args, **kwargs):
            probe = self.probe()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.samples.append((time.perf_counter() - t0, probe))
        return timed

    def __exit__(self, *exc):
        from cyclesynth import train
        while self._saved:
            setattr(train, *self._saved.pop())


def rate(work, seconds):
    return work / seconds if seconds else 0.0


def command_seconds(result):
    samples = [result.get("train_s")] + result["infer_s"] + result["eval_s"]
    return sum(s for s, _ in filter(None, samples))


def gemm_roof(m, k, n, seconds=0.5):
    """GFLOP/s of a bare float32 [m,k] @ [k,n], median over repeats."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        a @ b
        samples.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / statistics.median(samples) / 1e9


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(args, run_dir):
    import checks
    from cyclesynth import cli

    probe = HostProbe()
    clock = StepClock(probe)
    if args.workload == "infer-eval":
        wl = InferEvalWorkload(args.seed, checks)
    else:
        wl = TrainWorkload(args.workload, args.seed, args.train_seed, checks, clock)
    root, setup_s = set_up(wl, run_dir, cli, SETUP_REPEATS)
    ledger = Ledger(cli, probe)

    if not args.trace:
        with clock:
            results = measure(wl, root, run_dir, ledger, args.seconds)
        slices_per_s, volumes_per_s = wl.throughput(results)
        probes = [p for r in results for key in ("infer_s", "eval_s")
                  for _, p in filter(None, r[key])]
        log(f"{len(results)} rounds; median host probe {1e3 * statistics.median(probes):.2f} ms "
            f"(reference {1e3 * HostProbe.REFERENCE_S:.2f} ms)")
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "slices_per_s": metric(slices_per_s, "slices/s"),
            "eval_volumes_per_s": metric(volumes_per_s, "volumes/s"),
            "holdout_mae_hu": metric(wl.mae or 0.0, "HU"),
            "peak_rss_mb": metric(ledger.rss_mb, "MB"),
        }
        return ledger, True, metrics

    import layertrace
    # an untraced first round makes the reference files; then traced and
    # untraced rounds alternate, so that host drift hits both alike
    tracer = layertrace.Tracer()
    t0 = time.perf_counter()
    one_round(wl, root, run_dir / "first", ledger)
    traced, plain = [], []
    while not traced or time.perf_counter() - t0 < args.seconds:
        tracer.install()
        try:
            if not traced:
                set_up(wl, run_dir / "traced", cli, 1)
            traced.append(one_round(wl, root, run_dir / f"traced{len(traced)}", ledger))
        finally:
            tracer.uninstall()
        plain.append(one_round(wl, root, run_dir / f"plain{len(plain)}", ledger))
    overhead = 100.0 * (statistics.median(command_seconds(r) for r in traced)
                        / statistics.median(command_seconds(r) for r in plain) - 1.0)
    training = args.workload in TRAIN
    main_cmd = "cli.cmd_train" if training else "cli.cmd_infer"
    units = (tracer.count([main_cmd], "train.step") if training
             else sum(r["infer_slices"] for r in traced))
    roof = gemm_roof(4 * WIDTH, 4 * WIDTH * 9, wl.gemm_cols)
    layers = layertrace.layer_metrics(
        tracer, main_cmd, units, eval_pairs=sum(r["eval_pairs"] for r in traced),
        infer_slices=sum(r["infer_slices"] for r in traced),
        overhead_pct=overhead, roof_gflops=roof)
    consistent = True
    if training:
        share = layers["trace.step_attributed_pct"][0]
        consistent = share >= MIN_STEP_ATTRIBUTED_PCT
        if not consistent:
            log(f"per-layer self times cover {share:.1f}% of a traced step, "
                f"below {MIN_STEP_ATTRIBUTED_PCT}%")
    return ledger, consistent, {k: metric(v, u) for k, (v, u) in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="phantom data seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat rounds of commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-seed", type=int, default=0,
                        help="`cyclesynth train --seed` (network init and epoch streams)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cyclesynth" / "cli.py").is_file():
        log(f"no cyclesynth sources under {src}")
        return 2
    sys.path.insert(0, str(src))
    try:
        import cyclesynth.cli  # noqa: F401
    except ImportError as e:
        log(f"cannot import cyclesynth: {e}")
        return 2

    run_dir = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        ledger, consistent, metrics = run(args, run_dir)
    except SetupError as e:
        log(f"set-up failed: {e}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": consistent and ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
