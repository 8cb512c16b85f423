"""Command line front end: phantom data, training, inference, evaluation, selfcheck.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
inputs, bad configuration), 3 numeric failure (non-finite losses,
degenerate statistics, failed gradient checks).
"""

import argparse
import csv
import hashlib
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import thread_cap

# honor the thread cap before numpy spins up its BLAS pools
if thread_cap() is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, str(thread_cap()))

import numpy as np

from . import __version__, data, engine, evalx, forked, selfcheck, train
from .checkpoint import read_checkpoint
from .models import generator_forward


def _parse_size(text):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"size must look like 64x64, got {text!r}")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utc_now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# -- phantom --------------------------------------------------------------


def cmd_phantom(args):
    for flag, value, low in (("--volumes", args.volumes, 1), ("--slices", args.slices, 1),
                             ("--seed", args.seed, 0), ("--shape-seed", args.shape_seed, 0)):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    h, w = args.size
    if h < 4 or w < 4:
        raise ValueError(f"--size sides must be >= 4, got {h}x{w}")
    spec = data.PhantomSpec(n_volumes=args.volumes,
                            slices_per_volume=args.slices,
                            height=h, width=w,
                            shape_seed=args.shape_seed,
                            max_shift_px=args.misalign_px,
                            shift_probability=args.misalign_prob)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phantoms = data.phantom_generate(spec, seed=args.seed)
    files = []
    for i, (mr, ct) in enumerate(zip(phantoms.mr, phantoms.ct)):
        for tag, vol in (("mr", mr), ("ct", ct)):
            path = out / f"{tag}_{i:03d}.svol"
            data.save_volume(vol, path)
            files.append(path.name)
    meta = {"seed": args.seed, "spec": asdict(spec),
            "shifts": phantoms.shifts.tolist(), "files": files,
            "tool": f"cyclesynth {__version__}"}
    data.write_json(out / "alignment.json", meta)
    print(f"wrote {len(files)} volumes + alignment.json to {out}")
    return 0


# -- train ----------------------------------------------------------------


def _load_modality(data_dir, prefix, limit):
    paths = sorted(Path(data_dir).glob(f"{prefix}_*.svol"))
    if limit is not None:
        paths = paths[:limit]
    if not paths:
        raise FileNotFoundError(f"no {prefix}_*.svol volumes in {data_dir}")
    return paths, [data.load_volume(p) for p in paths]


def cmd_train(args):
    cfg = train.TrainConfig(
        mode={"unpaired": "unpaired_cycle", "paired": "paired_baseline"}[args.mode],
        lam=args.lam, mu=args.mu, base_lr=args.lr,
        fixed_epochs=args.epochs_fixed, decay_epochs=args.epochs_decay,
        batch_size=args.batch, image_pool_size=args.pool_size,
        use_pool=not args.no_pool, seed=args.seed,
        width_f=args.width_f, width_d=args.width_d,
        crop_size=args.crop, checkpoint_every=args.checkpoint_every,
    )
    if args.limit_volumes is not None and args.limit_volumes < 1:
        raise ValueError(f"--limit-volumes must be >= 1, got {args.limit_volumes}")

    mr_paths, mr_vols = _load_modality(args.data, "mr", args.limit_volumes)
    ct_paths, ct_vols = _load_modality(args.data, "ct", args.limit_volumes)
    provenance = {
        "tool": f"cyclesynth {__version__}",
        "created": _utc_now(),
        "command": "train",
        "threads": os.environ.get("CYCLESYNTH_THREADS"),
        "inputs": {str(p): _sha256(p) for p in mr_paths + ct_paths},
    }
    summary = train.run_training(mr_vols, ct_vols, cfg, args.out,
                                 resume_from=args.resume, provenance=provenance)
    print(f"trained {summary['epochs_run']} epochs; "
          f"final checkpoint {summary['final_checkpoint']}")
    return 0


# -- infer ----------------------------------------------------------------

_DIRECTIONS = {
    # direction -> (network key, input modality family, output modality)
    "mr2ct": ("g_mr2ct", "MR", "SYNTH_CT"),
    "ct2mr": ("g_ct2mr", "CT", "SYNTH_MR"),
}


def load_generator(ckpt_path, direction):
    """The generator of `direction` in a training checkpoint, read by train's checked
    reader (train.read_generator, the load --resume makes); returns it with the modality
    family it reads and the modality it writes."""
    net_key, family, out_modality = _DIRECTIONS[direction]
    group = train.read_generator(ckpt_path, *read_checkpoint(ckpt_path), net_key)
    return group, family, out_modality


# pixels per generator call: 8 slices of 64x64. A call's largest transient, the
# stem's im2col columns, grows with its pixels (8 slices of 512x512 would build
# 411 MB of them), so larger slices go in fewer per call, alone from 256x256 up.
INFER_PIXELS = 8 * 64 * 64


def _synthesize(group, voxels, synth, starts, step):
    """Write into synth the generator's output for the calls of `step` slices of voxels
    that begin at `starts`."""
    with engine.no_grad():
        for k in starts:
            batch = engine.Tensor(data.to_model_range(voxels[k:k + step, None]))
            synth[k:k + step] = data.from_model_range(generator_forward(group, batch).data[:, 0])


def _synthesize_in_worker(conn, *args):
    _synthesize(*args)
    conn.send(("done",))


def synthesize_volume(group, vol, out_modality):
    """Push every slice through a generator; returns the synthesized volume.

    Each call takes max(1, INFER_PIXELS // (H*W)) slices. Instance norm is per
    sample, so the split never changes the output. When the volume takes two calls
    or more and forked.processes() is 2, a forked worker makes the second half of
    the calls, writing into the shared output, while this process makes the first
    half. Each call and its bytes are the same in one process and in two.
    """
    n, h, w = vol.dims
    step = max(1, INFER_PIXELS // (h * w))
    starts = range(0, n, step)
    if len(starts) < 2 or forked.processes() == 1:
        synth = np.empty(vol.dims, dtype=np.uint8)
        _synthesize(group, vol.voxels, synth, starts, step)
    else:
        synth = forked.shared_zeros(vol.dims, np.uint8)
        half = len(starts) // 2
        worker = forked.Worker("infer", _synthesize_in_worker, group, vol.voxels, synth,
                               starts[half:], step)
        try:
            _synthesize(group, vol.voxels, synth, starts[:half], step)
            worker.recv()
        finally:
            worker.close()
    return data.SliceVolume(out_modality, synth, spacing_mm=vol.spacing_mm, mask=vol.mask)


def cmd_infer(args):
    group, family, out_modality = load_generator(args.ckpt, args.direction)
    vol = data.load_volume(args.input)
    if data.base_modality(vol.modality) != family:
        raise ValueError(f"direction {args.direction} expects a volume with "
                         f"modality in {(family, 'SYNTH_' + family)}, got {vol.modality!r}")
    data.check_output_paths(args.out)
    start = time.perf_counter()
    synth = synthesize_volume(group, vol, out_modality)
    rate = synth.dims[0] / (time.perf_counter() - start)
    data.save_volume(synth, args.out)
    print(f"synthesized {synth.dims[0]} slices -> {args.out} ({rate:.1f} slices/s)")
    return 0


# -- eval -----------------------------------------------------------------


def _kind(path):
    if path.is_dir():
        return "is a directory"
    return "is a file" if path.exists() else "does not exist"


def _collect_pairs(real_path, synth_path, synth_flag):
    """(id, real, synth) paths of every pair to score: the two paths if both are files,
    each real *.svol and its namesake in synth if both are directories. Any other two
    paths raise ValueError naming both, as --real and synth_flag, and what each is."""
    real_path, synth_path = Path(real_path), Path(synth_path)
    kinds = _kind(real_path), _kind(synth_path)
    if kinds[0] != kinds[1] or "does not exist" in kinds:
        raise ValueError(f"--real {real_path} {kinds[0]} and {synth_flag} {synth_path} "
                         f"{kinds[1]}; they must be two files or two directories")
    if not real_path.is_dir():
        return [(real_path.stem, real_path, synth_path)]
    pairs = []
    for rp in sorted(real_path.glob("*.svol")):
        sp = synth_path / rp.name
        if not sp.exists():
            raise FileNotFoundError(f"no synthesized counterpart for {rp.name} "
                                    f"in {synth_path}")
        pairs.append((rp.stem, rp, sp))
    if not pairs:
        raise FileNotFoundError(f"no *.svol volumes in {real_path}")
    return pairs


def _mask_for(real, synth, source, real_path, synth_path):
    """The mask `source` gives; a volume that cannot give one is named by its file."""
    if source == "compute":
        try:
            return data.head_mask(real)
        except ValueError as e:
            raise ValueError(f"{real_path}: {e}") from e
    vol, path = (real, real_path) if source == "real" else (synth, synth_path)
    if vol.mask is None:
        raise ValueError(f"{path}: --mask-from {source}: volume carries no mask; "
                         "use --mask-from compute to derive one")
    return vol.mask


def _eval_rows(pairs_a, pairs_b, mask_from, mode, keep_first):
    """Rows of run A and, if pairs_b, run B, one real volume at a time: each is read
    once and scored against its A and B volumes, and its real or computed mask is
    taken at most once. pairs_b, if given, holds the same real paths in order.
    With keep_first, also returns the first real volume and its A volume (for the
    error map), else None: no other pair outlives its scoring."""
    rows_a, rows_b, first = [], [], None
    for k, (vol_id, real_path, synth_a) in enumerate(pairs_a):
        real = data.load_volume(real_path)
        mask = None
        runs = [(rows_a, synth_a)] + ([(rows_b, pairs_b[k][2])] if pairs_b else [])
        for rows, synth_path in runs:
            synth = data.load_volume(synth_path)
            base = data.base_modality(real.modality), data.base_modality(synth.modality)
            if base[0] != base[1]:
                raise ValueError(f"{real_path} vs {synth_path}: modality {base[0]} vs {base[1]}")
            if keep_first and first is None:
                first = real, synth
            if mask is None or mask_from == "synth":
                mask = _mask_for(real, synth, mask_from, real_path, synth_path)
            try:
                mae_v, psnr_v = evalx.score(real, synth, mask, mode=mode)
            except evalx.DimsMismatchError as e:
                raise evalx.DimsMismatchError(f"{real_path} vs {synth_path}: {e}") from e
            rows.append(evalx.EvalRow(id=vol_id, mae_hu=mae_v, psnr_db=psnr_v,
                                      n_voxels=int(np.count_nonzero(mask))))
    return rows_a, rows_b, first


def _rows_from_csv(path):
    """Fixture mode: id,mae,psnr or id,mae_a,psnr_a,mae_b,psnr_b with header."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not a UTF-8 CSV") from e
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty CSV, expected a header row")
    if len(header) not in (3, 5):
        raise ValueError(f"{path}: expected 3 or 5 columns, got {len(header)}")
    body = []
    for r in filter(None, reader):
        if len(r) != len(header):
            raise ValueError(f"{path}: line {reader.line_num} has {len(r)} columns, "
                             f"expected {len(header)}")
        try:
            vals = [float(v) for v in r[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {reader.line_num} has a non-numeric value") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}: line {reader.line_num} has a non-finite value")
        body.append((r[0], vals))
    def rows(i):
        return [evalx.EvalRow(id=rid, mae_hu=vals[i], psnr_db=vals[i + 1], n_voxels=0)
                for rid, vals in body]
    return rows(0), (rows(2) if len(header) == 5 else None)


def cmd_eval(args):
    if args.error_map and args.from_csv:
        raise ValueError("--error-map needs volume inputs, not --from-csv")
    ttest = rate_line = first = None
    if args.from_csv:
        rows_a, rows_b = _rows_from_csv(args.from_csv)
        data.check_output_paths(args.report)
    else:
        if not args.real or not args.synth:
            raise ValueError("eval needs --real and --synth (or --from-csv)")
        pairs_a = _collect_pairs(args.real, args.synth, "--synth")
        pairs_b = _collect_pairs(args.real, args.synth_b, "--synth-b") if args.synth_b else []
        data.check_output_paths(args.report, args.error_map)
        if args.mask_from == "compute":
            # head_mask's first call would import scipy inside the timed span
            import scipy.ndimage  # noqa: F401
        start = time.perf_counter()
        rows_a, rows_b, first = _eval_rows(pairs_a, pairs_b, args.mask_from,
                                           args.psnr_mode, keep_first=bool(args.error_map))
        scored = len(pairs_a) + len(pairs_b)
        rate = scored / (time.perf_counter() - start)
        rate_line = f"evaluated {scored} volumes ({rate:.1f} volumes/s)"
    report_a = evalx.build_report(rows_a, mode=args.psnr_mode)
    report_b = evalx.build_report(rows_b, mode=args.psnr_mode) if rows_b else None

    lines = [evalx.render_table(report_a, report_b,
                                label_a=args.label_a, label_b=args.label_b)]
    if report_b is not None and len(report_a.rows) >= 2:
        t, p = evalx.paired_ttest([r.mae_hu for r in report_a.rows],
                                  [r.mae_hu for r in report_b.rows])
        ttest = {"t": t, "p": p}
        verdict = "significant at p < 0.05" if p < 0.05 else "not significant"
        lines.append(f"paired t-test on MAE: t = {t:.4f}, p = {p:.4g} ({verdict})")
    if rate_line:
        lines.append(rate_line)
    print("\n".join(lines))

    if args.report:
        data.write_json(args.report, report_a.to_dict() if report_b is None else
                        {"a": report_a.to_dict(), "b": report_b.to_dict(), "ttest": ttest})

    if args.error_map:
        data.save_volume(evalx.error_map(*first), args.error_map)
    return 0


# -- selfcheck ------------------------------------------------------------


def cmd_selfcheck(args):
    if args.probes < 1:
        raise ValueError(f"--probes must be >= 1, got {args.probes}")
    if args.corrupt_op is not None and args.corrupt_op not in selfcheck.PROBED_OPS:
        raise ValueError(f"--corrupt-op: {args.corrupt_op!r} is not an op the gradient "
                         f"suite probes; choose one of {', '.join(selfcheck.PROBED_OPS)}")
    results = selfcheck.run_all(corrupt_op=args.corrupt_op,
                                probes=args.probes, report=print)
    failed = [r for r in results if not r.ok]
    total = sum(r.seconds for r in results)
    if failed:
        print(f"first failing check: {failed[0].name}")
        return 3
    print(f"all {len(results)} checks passed in {total:.1f}s")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclesynth",
        description="Unpaired MR/CT synthesis: phantom data, training, "
                    "inference, evaluation, diagnostics.")
    parser.add_argument("--version", action="version",
                        version=f"cyclesynth {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    # the defaults are the recipe's, read from the dataclasses that own them
    spec, cfg = data.PhantomSpec(), train.TrainConfig()

    p = sub.add_parser("phantom", help="generate a paired synthetic head dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--volumes", type=int, default=spec.n_volumes)
    p.add_argument("--slices", type=int, default=spec.slices_per_volume)
    p.add_argument("--size", type=_parse_size, default=(spec.height, spec.width),
                   help=f"slice size as HxW (default {spec.height}x{spec.width})")
    p.add_argument("--misalign-px", type=int, default=spec.max_shift_px)
    p.add_argument("--misalign-prob", type=float, default=spec.shift_probability)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape-seed", type=int, default=spec.shape_seed)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train", help="train the translation networks")
    p.add_argument("--data", required=True, help="directory of mr_*/ct_* volumes")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("unpaired", "paired"), default="unpaired")
    p.add_argument("--epochs-fixed", type=int, default=cfg.fixed_epochs)
    p.add_argument("--epochs-decay", type=int, default=cfg.decay_epochs)
    p.add_argument("--lambda", dest="lam", type=float, default=cfg.lam)
    p.add_argument("--mu", type=float, default=cfg.mu)
    p.add_argument("--lr", type=float, default=cfg.base_lr)
    p.add_argument("--batch", type=int, default=cfg.batch_size)
    p.add_argument("--width-f", type=int, default=cfg.width_f)
    p.add_argument("--width-d", type=int, default=cfg.width_d)
    p.add_argument("--crop", type=int, default=cfg.crop_size)
    p.add_argument("--pool-size", type=int, default=cfg.image_pool_size)
    p.add_argument("--no-pool", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=cfg.checkpoint_every)
    p.add_argument("--limit-volumes", type=int, default=None,
                   help="use only the first N volumes per modality")
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run a trained generator over a volume")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--direction", choices=tuple(_DIRECTIONS), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="masked MAE/PSNR report, optionally comparative")
    p.add_argument("--real", help="reference volume or directory")
    p.add_argument("--synth", help="synthesized volume or directory")
    p.add_argument("--synth-b", default=None,
                   help="second synthesized set for comparison + t-test")
    p.add_argument("--mask-from", choices=("real", "synth", "compute"),
                   default="real")
    p.add_argument("--psnr-mode", choices=evalx.PSNR_MODES, default=evalx.PSNR_MODES[0])
    p.add_argument("--from-csv", default=None,
                   help="read per-volume metrics from a CSV fixture instead")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--error-map", default=None,
                   help="write |real - synth| of the first pair as SVOL")
    p.add_argument("--label-a", default="A")
    p.add_argument("--label-b", default="B")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selfcheck", help="gradient, architecture and format checks")
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--corrupt-op", default=None,
                   help="test hook: break this op's backward on purpose")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        # numpy's float warnings would print before the one-line error; the loss
        # and epoch-end finite checks catch every non-finite value instead
        with np.errstate(all="ignore"):
            rc = args.func(args)
        return 0 if rc is None else rc
    except (train.NumericError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, data.ContainerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
