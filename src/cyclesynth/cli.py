"""Command line front end: phantom data, training, inference, evaluation, selfcheck.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
inputs, bad configuration), 3 numeric failure (non-finite losses,
degenerate statistics, failed gradient checks).
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

# honor the thread cap before numpy spins up its BLAS pools
_threads = os.environ.get("CYCLESYNTH_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import numpy as np

from . import __version__, data, engine, evalx, selfcheck, train
from .checkpoint import read_checkpoint
from .models import generator_forward, params_from_arrays


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
    if args.volumes < 1:
        raise ValueError(f"--volumes must be >= 1, got {args.volumes}")
    if args.slices < 1:
        raise ValueError(f"--slices must be >= 1, got {args.slices}")
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
    (out / "alignment.json").write_text(json.dumps(meta, indent=2,
                                                   sort_keys=True))
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
    ).validate()
    if args.limit_volumes is not None and args.limit_volumes < 1:
        raise ValueError(f"--limit-volumes must be >= 1, got {args.limit_volumes}")

    mr_paths, mr_vols = _load_modality(args.data, "mr", args.limit_volumes)
    ct_paths, ct_vols = _load_modality(args.data, "ct", args.limit_volumes)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": f"cyclesynth {__version__}",
        "created": _utc_now(),
        "command": "train",
        "config": cfg.to_dict(),
        "threads": os.environ.get("CYCLESYNTH_THREADS"),
        "resume_from": str(args.resume) if args.resume else None,
        "inputs": {str(p): _sha256(p) for p in mr_paths + ct_paths},
        "outputs": {"dir": str(out), "log": str(out / "loss_log.csv"),
                    "checkpoints": str(out / "ckpt_epoch{N}.csyn")},
    }
    data.write_atomic(out / "manifest.json",
                      [json.dumps(manifest, indent=2, sort_keys=True).encode()])

    summary = train.run_training(mr_vols, ct_vols, cfg, out,
                                 resume_from=args.resume)
    print(f"trained {summary['epochs_run']} epochs; "
          f"final checkpoint {summary['final_checkpoint']}")
    return 0


# -- infer ----------------------------------------------------------------

_DIRECTIONS = {
    # direction -> (network key, accepted input modalities, output modality)
    "mr2ct": ("g_mr2ct", ("MR", "SYNTH_MR"), "SYNTH_CT"),
    "ct2mr": ("g_ct2mr", ("CT", "SYNTH_CT"), "SYNTH_MR"),
}


def load_generator(ckpt_path, direction):
    """Rebuild one generator from a training checkpoint."""
    arrays, meta = read_checkpoint(ckpt_path)
    net_key, accepted, out_modality = _DIRECTIONS[direction]
    width = int(meta.get("config", {}).get("width_f", 64))
    prefix = f"{net_key}/"
    net = {k[len(prefix):]: a for k, a in arrays.items() if k.startswith(prefix)}
    try:
        group = params_from_arrays("generator", width, net)
    except KeyError:
        raise ValueError(
            f"checkpoint {ckpt_path} has no {net_key} network "
            f"(mode {meta.get('config', {}).get('mode')!r})")
    return group, accepted, out_modality


def synthesize_volume(group, vol, out_modality, chunk=8):
    """Push every slice through a generator; returns the synthesized volume."""
    planes = data.to_model_range(vol.voxels)
    out_slices = []
    with engine.no_grad():
        for k in range(0, planes.shape[0], chunk):
            batch = engine.Tensor(planes[k:k + chunk][:, None, :, :])
            out_slices.append(generator_forward(group, batch).data[:, 0])
    synth = data.from_model_range(np.concatenate(out_slices))
    return data.SliceVolume(modality=out_modality, dims=vol.dims,
                            spacing_mm=vol.spacing_mm,
                            window=data.window_for(out_modality),
                            voxels=synth, mask=vol.mask)


def cmd_infer(args):
    group, accepted, out_modality = load_generator(args.ckpt, args.direction)
    vol = data.load_volume(args.input)
    if vol.modality not in accepted:
        raise ValueError(f"direction {args.direction} expects a volume with "
                         f"modality in {accepted}, got {vol.modality!r}")
    start = time.perf_counter()
    synth = synthesize_volume(group, vol, out_modality)
    rate = synth.dims[0] / (time.perf_counter() - start)
    data.save_volume(synth, args.out)
    print(f"synthesized {synth.dims[0]} slices -> {args.out} ({rate:.1f} slices/s)")
    return 0


# -- eval -----------------------------------------------------------------


def _collect_pairs(real_path, synth_path):
    real_path, synth_path = Path(real_path), Path(synth_path)
    if real_path.is_dir() != synth_path.is_dir():
        raise ValueError("real and synth must both be files or both be directories")
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


def _mask_for(real, synth, source):
    if source == "compute":
        return data.head_mask(real)
    vol = real if source == "real" else synth
    if vol.mask is None:
        raise ValueError(f"--mask-from {source}: volume carries no mask; "
                         "use --mask-from compute to derive one")
    return vol.mask


def _eval_pairs(pairs, mask_from, mode):
    rows = []
    for vol_id, real_path, synth_path in pairs:
        real = data.load_volume(real_path)
        synth = data.load_volume(synth_path)
        mask = _mask_for(real, synth, mask_from)
        mae_v = evalx.mae(real, synth, mask)
        try:
            psnr_v = evalx.psnr(real, synth, mask, mode=mode)
        except evalx.ZeroMseError:
            psnr_v = None  # identical inside the mask; PSNR unbounded
        rows.append(evalx.EvalRow(id=vol_id, mae_hu=mae_v, psnr_db=psnr_v,
                                  n_voxels=int(np.count_nonzero(mask))))
    return evalx.build_report(rows, mode=mode)


def _rows_from_csv(path):
    """Fixture mode: id,mae,psnr or id,mae_a,psnr_a,mae_b,psnr_b with header."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        body = [r for r in reader if r]
    def row(vals, i, j, rid):
        return evalx.EvalRow(id=rid, mae_hu=float(vals[i]),
                             psnr_db=float(vals[j]), n_voxels=0)
    if len(header) == 3:
        return [row(r, 1, 2, r[0]) for r in body], None
    if len(header) == 5:
        return ([row(r, 1, 2, r[0]) for r in body],
                [row(r, 3, 4, r[0]) for r in body])
    raise ValueError(f"{path}: expected 3 or 5 columns, got {len(header)}")


def _ttest_lines(rows_a, rows_b):
    t, p = evalx.paired_ttest([r.mae_hu for r in rows_a],
                              [r.mae_hu for r in rows_b])
    verdict = "significant at p < 0.05" if p < 0.05 else "not significant"
    return t, p, [f"paired t-test on MAE: t = {t:.4f}, p = {p:.4g} ({verdict})"]


def cmd_eval(args):
    report_b = ttest = rate_line = None
    if args.from_csv:
        rows_a, rows_b = _rows_from_csv(args.from_csv)
        report_a = evalx.build_report(rows_a, mode=args.psnr_mode)
        if rows_b:
            report_b = evalx.build_report(rows_b, mode=args.psnr_mode)
    else:
        if not args.real or not args.synth:
            raise ValueError("eval needs --real and --synth (or --from-csv)")
        pairs_a = _collect_pairs(args.real, args.synth)
        pairs_b = _collect_pairs(args.real, args.synth_b) if args.synth_b else []
        start = time.perf_counter()
        report_a = _eval_pairs(pairs_a, args.mask_from, args.psnr_mode)
        if pairs_b:
            report_b = _eval_pairs(pairs_b, args.mask_from, args.psnr_mode)
        scored = len(pairs_a) + len(pairs_b)
        rate = scored / (time.perf_counter() - start)
        rate_line = f"evaluated {scored} volumes ({rate:.1f} volumes/s)"

    lines = [evalx.render_table(report_a, report_b,
                                label_a=args.label_a, label_b=args.label_b)]
    if report_b is not None and len(report_a.rows) >= 2:
        t, p, extra = _ttest_lines(report_a.rows, report_b.rows)
        ttest = {"t": t, "p": p}
        lines += extra
    if rate_line:
        lines.append(rate_line)
    print("\n".join(lines))

    if args.report:
        if report_b is None:
            payload = report_a.to_json()
        else:
            payload = json.dumps(
                {"a": json.loads(report_a.to_json()),
                 "b": json.loads(report_b.to_json()),
                 "ttest": ttest}, indent=2, sort_keys=True)
        Path(args.report).write_text(payload)

    if args.error_map:
        if args.from_csv or not args.real:
            raise ValueError("--error-map needs volume inputs, not --from-csv")
        vol_id, rp, sp = _collect_pairs(args.real, args.synth)[0]
        emap = evalx.error_map(data.load_volume(rp), data.load_volume(sp))
        data.save_volume(emap, args.error_map)
    return 0


# -- selfcheck ------------------------------------------------------------


def cmd_selfcheck(args):
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

    p = sub.add_parser("phantom", help="generate a paired synthetic head dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--volumes", type=int, default=8)
    p.add_argument("--slices", type=int, default=16)
    p.add_argument("--size", type=_parse_size, default=(64, 64),
                   help="slice size as HxW (default 64x64)")
    p.add_argument("--misalign-px", type=int, default=0)
    p.add_argument("--misalign-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape-seed", type=int, default=0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train", help="train the translation networks")
    p.add_argument("--data", required=True, help="directory of mr_*/ct_* volumes")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("unpaired", "paired"), default="unpaired")
    p.add_argument("--epochs-fixed", type=int, default=100)
    p.add_argument("--epochs-decay", type=int, default=100)
    p.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--width-f", type=int, default=64)
    p.add_argument("--width-d", type=int, default=64)
    p.add_argument("--crop", type=int, default=None)
    p.add_argument("--pool-size", type=int, default=50)
    p.add_argument("--no-pool", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=25)
    p.add_argument("--limit-volumes", type=int, default=None,
                   help="use only the first N volumes per modality")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--psnr-mode", choices=("rmse_corrected", "mse_denominator"),
                   default="rmse_corrected")
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
