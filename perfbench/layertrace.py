"""Per-module tracer for the benchmark's traced runs.

The tracer wraps each module's public functions in the namespace that calls
them (``cyclesynth.models.conv2d``, ``cyclesynth.train.adam_step``,
``cyclesynth.train.ImagePool.query``, ...) and the ``_backward`` closure of
every tensor an engine op returns. Each call is a span; a span's self time
is its duration minus the durations of the spans it directly contains, so
self times partition the traced wall time. Spans are grouped by the CLI
command that contains them (``cli.cmd_train``, ``cli.cmd_infer``, ...).
Convolution FLOPs and column-buffer bytes are computed from shapes; nothing
here reads a hardware counter. Nothing in the program is edited: ``install``
patches attributes and ``uninstall`` restores them.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

POINTWISE = ("add", "sub", "mul", "square", "absolute", "tanh", "relu",
             "leaky_relu", "tsum", "tmean")
CONV_ROLES = ("g_stem", "g_down", "g_res", "g_up", "g_head", "d_s2", "d_s1")
# Adam touches seven float32 arrays per parameter element:
# reads p, g, m, v and writes m, v, p
ADAM_BYTES_PER_PARAM = 7 * 4


def conv_role(k, stride, cin, cout, transposed=False):
    """Which layer of the two networks a conv call belongs to, by its shape."""
    if transposed:
        return "g_up"
    if k == 7:
        return "g_stem" if cin == 1 else "g_head"
    if k == 3:
        return "g_down" if stride == 2 else "g_res"
    return "d_s2" if stride == 2 else "d_s1"


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Span recorder; all figures are kept per (command scope, label)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.scope = None
        self.stack = []                       # [label, start, child seconds]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(list)    # labels whose durations are kept
        self.cover = defaultdict(list)        # label -> child/duration shares
        self.flop = defaultdict(float)        # (scope, role) -> FLOP
        self.conv_s = defaultdict(float)      # (scope, role) -> seconds
        self.nbytes = defaultdict(float)      # (scope, label) -> bytes
        self.cols_bytes = defaultdict(float)  # scope -> largest column buffer
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, label):
        self.stack.append([label, self.clock(), 0.0])

    def _exit(self):
        label, start, child = self.stack.pop()
        dur = self.clock() - start
        key = (self.scope, label)
        self.self_s[key] += dur - child
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][2] += dur
        return key, dur, child

    def span(self, label, fn, keep=False, after=None):
        """fn wrapped in a span; keep=True records inclusive durations."""
        tracer = self

        def wrapped(*args, **kwargs):
            tracer._enter(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                key, dur, child = tracer._exit()
            if keep:
                tracer.inclusive[key].append(dur)
                tracer.cover[key].append(child / dur if dur > 0 else 1.0)
            if after is not None:
                after(key, dur, out, args, kwargs)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def command(self, label, fn):
        """A CLI command: the scope every span inside it is filed under."""
        inner = self.span(label, fn, keep=True)
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.scope = label
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.scope = None

        return wrapped

    def _wrap_backward(self, out, label, done=None):
        inner = getattr(out, "_backward", None)
        if inner is None:
            return
        tracer = self

        def bwd(g):
            tracer._enter(label)
            try:
                inner(g)
            finally:
                key, dur, _ = tracer._exit()
            if done is not None:
                done(key[0], dur)

        out._backward = bwd

    # -- engine ops -------------------------------------------------------------

    def engine_op(self, name, fn):
        return self.span(f"engine.{name}.fwd", fn,
                         after=lambda key, dur, out, a, kw:
                         self._wrap_backward(out, f"engine.{name}.bwd"))

    def pointwise(self, fn):
        return self.span("engine.pointwise.fwd", fn,
                         after=lambda key, dur, out, a, kw:
                         self._wrap_backward(out, "engine.pointwise.bwd"))

    def conv(self, fn, transposed=False):
        name = "conv_transpose2d" if transposed else "conv2d"
        tracer = self

        def after(key, dur, out, args, kwargs):
            x, w = args[0], args[1]
            stride = _arg(args, kwargs, 3, "stride", 1)
            n = x.data.shape[0]
            k = w.data.shape[2]
            if transposed:
                cin, cout = w.data.shape[0], w.data.shape[1]
                positions = x.data.shape[2] * x.data.shape[3]
                cols = cout * k * k * n * positions
            else:
                cout, cin = w.data.shape[0], w.data.shape[1]
                positions = out.data.shape[2] * out.data.shape[3]
                cols = cin * k * k * n * positions
            flop = 2.0 * n * cin * cout * k * k * positions
            role = conv_role(k, stride, cin, cout, transposed)
            scope = key[0]
            tracer.flop[(scope, role)] += flop
            tracer.conv_s[(scope, role)] += dur
            tracer.cols_bytes[scope] = max(tracer.cols_bytes[scope],
                                           cols * x.data.itemsize)

            def done(bwd_scope, bwd_dur):
                # weight gradient always; input gradient only when it is needed
                passes = int(w.requires_grad) + int(x.requires_grad)
                tracer.flop[(bwd_scope, role)] += flop * passes
                tracer.conv_s[(bwd_scope, role)] += bwd_dur

            tracer._wrap_backward(out, f"engine.{name}.bwd", done)

        return self.span(f"engine.{name}.fwd", fn, after=after)

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        from cyclesynth import cli, data, engine, evalx, models, train

        def bytes_of(measure):
            def after(key, dur, out, args, kwargs):
                self.nbytes[key] += measure(out, args)
            return after

        for attr in ("conv2d", "conv_transpose2d"):
            self._patch(models, attr, self.conv(getattr(models, attr),
                                                transposed=attr != "conv2d"))
        self._patch(models, "instance_norm",
                    self.engine_op("instance_norm", models.instance_norm))
        for attr in POINTWISE:
            self._patch(engine, attr, self.pointwise(getattr(engine, attr)))
        self._patch(engine, "backward", self.span("engine.backward", engine.backward))

        for ns in (train, cli):
            self._patch(ns, "generator_forward",
                        self.span("models.generator_forward", ns.generator_forward,
                                  keep=True))
        self._patch(train, "discriminator_forward",
                    self.span("models.discriminator_forward",
                              train.discriminator_forward, keep=True))
        for attr in ("loss_cycle", "loss_dis", "loss_gen_adv", "loss_paired",
                     "total_generator_loss"):
            self._patch(train, attr, self.span("losses", getattr(train, attr), keep=True))
        self._patch(train, "adam_step", self.span(
            "optim.adam_step", train.adam_step,
            after=bytes_of(lambda out, a: a[0].param_count() * ADAM_BYTES_PER_PARAM)))
        for attr in ("augment", "pad_and_crop", "to_model_range",
                     "_batch_tensor", "_paired_batch"):
            self._patch(train, attr, self.span("data.augment", getattr(train, attr)))
        self._patch(train.ImagePool, "query",
                    self.span("train.pool", train.ImagePool.query))
        for attr in ("train_step_unpaired", "train_step_paired"):
            self._patch(train, attr, self.span("train.step", getattr(train, attr),
                                               keep=True))
        self._patch(train, "run_training",
                    self.span("train.run_training", train.run_training))
        self._patch(train, "write_checkpoint", self.span(
            "checkpoint.write", train.write_checkpoint,
            after=bytes_of(lambda out, a: sum(np.asarray(v).nbytes
                                              for v in a[1].values()))))
        for ns in (train, cli):
            self._patch(ns, "read_checkpoint", self.span(
                "checkpoint.read", ns.read_checkpoint,
                after=bytes_of(lambda out, a: sum(v.nbytes for v in out[0].values()))))

        for attr in ("load_volume", "save_volume", "head_mask", "phantom_generate"):
            self._patch(data, attr, self.span(f"data.{attr}", getattr(data, attr)))
        for attr in ("mae", "mse", "psnr"):
            self._patch(evalx, attr, self.span("evalx.metrics", getattr(evalx, attr)))
        for attr in ("build_report", "aggregate", "paired_ttest", "render_table"):
            self._patch(evalx, attr, self.span("evalx.report", getattr(evalx, attr)))
        for attr in ("load_generator", "synthesize_volume"):
            self._patch(cli, attr, self.span(f"cli.{attr}", getattr(cli, attr)))
        for attr in ("cmd_phantom", "cmd_train", "cmd_infer", "cmd_eval"):
            self._patch(cli, attr, self.command(f"cli.{attr}", getattr(cli, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- figures ------------------------------------------------------------------

    def total(self, scopes, label, table=None):
        table = self.self_s if table is None else table
        return sum(table[(s, label)] for s in scopes)

    def count(self, scopes, label):
        return sum(self.calls[(s, label)] for s in scopes)

    def per_call_ms(self, scopes, label):
        n = self.count(scopes, label)
        return 1e3 * self.total(scopes, label) / n if n else 0.0

    def mean_inclusive_ms(self, scope, label):
        d = self.inclusive[(scope, label)]
        return 1e3 * statistics.fmean(d) if d else 0.0


COMMANDS = ("cli.cmd_phantom", "cli.cmd_train", "cli.cmd_infer", "cli.cmd_eval")


def layer_metrics(tr, main, units, eval_pairs, infer_slices, overhead_pct, roof_gflops):
    """Per-layer figures of one traced run.

    main: the command whose work the per-unit figures describe (cli.cmd_train
    on the training workloads, cli.cmd_infer on infer-eval); units: training
    steps or inferred slices within it. File and evaluation figures are per
    call or per evaluated volume.
    """
    def per_unit_ms(label, scope=main):
        return 1e3 * tr.self_s[(scope, label)] / units if units else 0.0

    m = {}
    for op in ("conv2d", "conv_transpose2d", "instance_norm", "pointwise"):
        for phase in ("fwd", "bwd"):
            m[f"engine.{op}.{phase}_ms"] = (per_unit_ms(f"engine.{op}.{phase}"), "ms")
    m["engine.backward.self_ms"] = (per_unit_ms("engine.backward"), "ms")
    for role in CONV_ROLES:
        secs = tr.conv_s[(main, role)]
        flop = tr.flop[(main, role)]
        m[f"engine.conv.{role}.ms"] = (1e3 * secs / units if units else 0.0, "ms")
        m[f"engine.conv.{role}.gflops"] = (flop / secs / 1e9 if secs else 0.0, "GFLOP/s")
    m["engine.gemm_roof.gflops"] = (roof_gflops, "GFLOP/s")
    op_calls = sum(tr.calls[(main, f"engine.{op}.fwd")] for op in
                   ("conv2d", "conv_transpose2d", "instance_norm", "pointwise"))
    m["engine.op_calls"] = (op_calls / units if units else 0.0, "count")
    conv_flop = sum(tr.flop[(main, r)] for r in CONV_ROLES)
    m["engine.conv_gflop"] = (conv_flop / units / 1e9 if units else 0.0, "GFLOP")
    m["engine.conv_cols_mb"] = (tr.cols_bytes[main] / 1e6, "MB")

    m["models.generator_forward_ms"] = (
        tr.mean_inclusive_ms(main, "models.generator_forward"), "ms")
    m["models.discriminator_forward_ms"] = (
        tr.mean_inclusive_ms(main, "models.discriminator_forward"), "ms")
    losses = sum(tr.inclusive[(main, "losses")])
    m["losses.ms"] = (1e3 * losses / units if units else 0.0, "ms")
    m["optim.adam_step_ms"] = (per_unit_ms("optim.adam_step"), "ms")
    m["optim.mb_moved"] = (tr.nbytes[(main, "optim.adam_step")] / units / 1e6
                           if units else 0.0, "MB")

    m["data.augment_ms"] = (per_unit_ms("data.augment"), "ms")
    for attr in ("load_volume", "save_volume", "head_mask"):
        m[f"data.{attr}_ms"] = (tr.per_call_ms(COMMANDS, f"data.{attr}"), "ms")
    m["data.phantom_generate_s"] = (
        tr.per_call_ms(COMMANDS, "data.phantom_generate") / 1e3, "s")

    steps = tr.inclusive[("cli.cmd_train", "train.step")]
    m["train.step_ms"] = (1e3 * statistics.median(steps) if steps else 0.0, "ms")
    m["train.pool_ms"] = (per_unit_ms("train.pool"), "ms")
    m["train.loop_self_ms"] = (per_unit_ms("train.run_training"), "ms")

    m["checkpoint.write_ms"] = (tr.per_call_ms(COMMANDS, "checkpoint.write"), "ms")
    m["checkpoint.read_ms"] = (tr.per_call_ms(COMMANDS, "checkpoint.read"), "ms")
    label = "checkpoint.write" if tr.count(COMMANDS, "checkpoint.write") else "checkpoint.read"
    n = tr.count(COMMANDS, label)
    m["checkpoint.mb"] = (tr.total(COMMANDS, label, tr.nbytes) / n / 1e6 if n else 0.0, "MB")

    for attr in ("metrics", "report"):
        secs = tr.self_s[("cli.cmd_eval", f"evalx.{attr}")]
        m[f"evalx.{attr}_ms"] = (1e3 * secs / eval_pairs if eval_pairs else 0.0, "ms")
    m["cli.load_generator_ms"] = (tr.per_call_ms(["cli.cmd_infer"], "cli.load_generator"), "ms")
    secs = tr.self_s[("cli.cmd_infer", "cli.synthesize_volume")]
    m["cli.synthesize_volume_ms"] = (1e3 * secs / infer_slices if infer_slices else 0.0, "ms")

    m["trace.overhead_pct"] = (overhead_pct, "%")
    unit_span = ("cli.cmd_train", "train.step") if main == "cli.cmd_train" \
        else ("cli.cmd_infer", "cli.cmd_infer")
    shares = tr.cover[unit_span]
    m["trace.step_attributed_pct"] = (100.0 * statistics.median(shares) if shares else 0.0, "%")
    return m
