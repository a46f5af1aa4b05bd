"""Span tracer for the benchmark's traced runs.

`Tracer.install` replaces public functions of `sqwa` with timing wrappers
wherever a `sqwa` module binds them (the defining module, the modules that
import the name, and the package re-exports), so calls between `sqwa`
modules are caught as well as calls from the benchmark. `uninstall` puts
the originals back. Nothing under `src/` is modified on disk.

Each span records name, start, end, parent and run id. Spans stay in
memory and are written out once, by `write_spans`, when the run ends. A
span's self time is its duration minus the time its child spans cover.

Bookkeeping that a wrapper does besides reading the clock (weight digests
for `nn.evaluate`, FLOP counts, checkpoint byte counts) runs outside the
span it belongs to, so it lands in the caller's self time and in the
reported tracing overhead, not in the wrapped function's self time.

`CallCounter` counts the calls of one function the same way, without
spans; every run, traced or not, uses it to count SGD steps.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from pathlib import Path

# (module, attribute path) of every wrapped callable; span names are
# "<module>.<attribute path>".
TRACED = [
    ("pipeline", "build_datasets"),
    ("nn", "forward"),
    ("nn", "loss_and_backward"),
    ("nn", "sgd_momentum_step"),
    ("nn", "evaluate"),
    ("quantizer", "quantize_tensor"),
    ("quantizer", "select_step_size"),
    ("qat", "qat_train_step"),
    ("qat", "ShadowModel.refresh_applied"),
    ("data", "shuffle_batches"),
    ("data", "synthetic_blobs"),
    ("data", "load_idx"),
    ("averaging", "average_models"),
    ("averaging", "requantize_averaged"),
    ("checkpoint", "save"),
    ("checkpoint", "load"),
    ("losscape", "evaluate_surface"),
    ("losscape", "vector_to_network"),
    ("losscape", "quantized_grid_point"),
]

# Spans of these names count in set-up as well as in the workload body:
# they explain `setup_s` (inputs, the source run's checkpoints on
# surface-quantized). Every other name counts only inside the body, so its
# figures describe the body's work.
SETUP_TOO = {"pipeline.build_datasets", "data.synthetic_blobs", "data.load_idx",
             "checkpoint.save", "checkpoint.load"}

# Span record fields.
NAME, START, END, PARENT, WORK = range(5)


def patch_everywhere(mod_name: str, attr: str, make_wrapper, undo: list) -> None:
    """Replace `sqwa.<mod_name>.<attr>` by `make_wrapper(original)` wherever
    a `sqwa` module binds it; for "Class.method" only on the class. Appends
    (owner, attribute, old value) to `undo` for each replacement."""
    home = sys.modules[f"sqwa.{mod_name}"]
    if "." in attr:     # a method: patch it on its class
        cls_name, attr = attr.split(".")
        home = getattr(home, cls_name)
        owners = [home]
    else:               # a function: patch every module that binds it
        owners = [m for n, m in sys.modules.items() if n == "sqwa" or n.startswith("sqwa.")]
    original = home.__dict__[attr]
    wrapper = make_wrapper(original)
    for owner in owners:
        if owner.__dict__.get(attr) is original:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)


class CallCounter:
    """Counts the calls of one public `sqwa` function, with no timing."""

    def __init__(self, mod_name: str, attr: str):
        self.calls = 0

        def make(fn):
            def counted(*args, **kwargs):
                self.calls += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        patch_everywhere(mod_name, attr, make, [])


def _payload_bytes(path) -> int:
    # Bytes of the tensor payload in one checkpoint directory. A capture
    # bank has none of its own: its entries are saved and loaded through
    # nested (and separately counted) calls.
    p = Path(path) / "payload.bin"
    return p.stat().st_size if p.is_file() else 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Span count at each QuantizerConfig construction, so constructions
        # can be placed in set-up or in the body.
        self._config_marks: list[int] = []
        self.load_repeats = 0
        self._evaluated: set[tuple[bytes, bytes]] = set()
        self._loaded: set[str] = set()
        self._dataset_digests: dict[int, tuple[object, bytes]] = {}
        self._macs: dict[int, tuple[object, int]] = {}

    # --- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            work = before(args, kwargs) if before is not None else 0
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, work]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[WORK] = after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # --- per-call bookkeeping -------------------------------------------------

    def _net_macs(self, net) -> int:
        # Multiply-accumulates per sample of one forward pass, from the
        # layer shapes. Keyed by the identity of the spec list, which is
        # held so the id cannot be reused.
        hit = self._macs.get(id(net.specs))
        if hit is not None:
            return hit[1]
        from sqwa.nn import output_shapes
        shapes = output_shapes(net.specs, net.input_shape)
        macs = 0
        for spec, shape in zip(net.specs, shapes):
            if spec.kind == "dense":
                macs += spec.fan_in * spec.fan_out
            elif spec.kind == "conv2d":
                macs += (spec.in_channels * spec.kernel_size ** 2
                         * shape[0] * shape[1] * shape[2])
        self._macs[id(net.specs)] = (net.specs, macs)
        return macs

    def _forward_flops(self, args, kwargs):
        net, batch = args[0], args[1]
        return 2 * len(batch) * self._net_macs(net)

    def _backward_flops(self, args, kwargs):
        # Weight gradient plus input gradient: twice the forward matmuls.
        net, logits = args[0], args[2]
        return 4 * len(logits) * self._net_macs(net)

    def _dataset_digest(self, dataset) -> bytes:
        hit = self._dataset_digests.get(id(dataset))
        if hit is None:
            h = hashlib.sha1(dataset.images.tobytes())
            h.update(dataset.labels.tobytes())
            hit = (dataset, h.digest())
            self._dataset_digests[id(dataset)] = hit
        return hit[1]

    def _evaluate_seen(self, args, kwargs):
        net, dataset = args[0], args[1]
        h = hashlib.sha1()
        for arrays in (net.weights, net.biases):
            for a in arrays:
                if a is not None:
                    h.update(a.tobytes())
        key = (h.digest(), self._dataset_digest(dataset))
        repeat = key in self._evaluated
        self._evaluated.add(key)
        return int(repeat)      # the span's work: 1 for a repeated evaluation

    def _load_seen(self, args, kwargs):
        path = str(Path(args[0]).resolve())
        if path in self._loaded:
            self.load_repeats += 1
        self._loaded.add(path)
        return _payload_bytes(path)

    def _saved(self, args, kwargs, result):
        return _payload_bytes(result)

    # --- install / uninstall --------------------------------------------------

    def install(self) -> None:
        from sqwa.quantizer import QuantizerConfig

        hooks = {
            "nn.forward": (self._forward_flops, None),
            "nn.loss_and_backward": (self._backward_flops, None),
            "nn.evaluate": (self._evaluate_seen, None),
            "checkpoint.load": (self._load_seen, None),
            "checkpoint.save": (None, self._saved),
        }
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            before, after = hooks.get(name, (None, None))
            patch_everywhere(mod_name, attr,
                             functools.partial(self._wrap, name, before=before, after=after),
                             self._undo)

        original_init = QuantizerConfig.__init__
        marks, spans = self._config_marks, self.spans

        def counted_init(obj, *args, **kwargs):
            marks.append(len(spans))
            original_init(obj, *args, **kwargs)

        self._undo.append((QuantizerConfig, "__init__", original_init))
        QuantizerConfig.__init__ = counted_init

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def summary(self, body: int) -> dict:
        """Per span name: calls, total_s, self_s and work (FLOPs, bytes, or
        repeats for `nn.evaluate`), plus the counters and the FLOP rate of
        training passes. `body` is the index of the workload body's span;
        spans before it count only if their name is in SETUP_TOO."""
        self_s = self.self_times()
        by_name: dict[str, dict] = {}
        train_flops = 0
        train_self = 0.0
        for i, (rec, s) in enumerate(zip(self.spans, self_s)):
            if i < body and rec[NAME] not in SETUP_TOO:
                continue
            st = by_name.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                "work": 0})
            st["calls"] += 1
            st["total_s"] += rec[END] - rec[START]
            st["self_s"] += s
            st["work"] += rec[WORK]
            training = rec[NAME] == "nn.loss_and_backward" or (
                rec[NAME] == "nn.forward"
                and (rec[PARENT] < 0 or self.spans[rec[PARENT]][NAME] != "nn.evaluate"))
            if training:
                train_flops += rec[WORK]
                train_self += s
        # bench.body is the last root span, so every later span is inside it.
        return {
            "spans": by_name,
            "span_count": len(self.spans),
            "quantizer_configs": sum(1 for m in self._config_marks if m > body),
            "evaluate_repeats": by_name.get("nn.evaluate", {}).get("work", 0),
            "load_repeats": self.load_repeats,
            "train_flops": train_flops,
            "train_self_s": train_self,
            "body_s": self.spans[body][END] - self.spans[body][START],
            "unwrapped_s": self_s[body],
            "wrapped_self_s": sum(self_s[body + 1:]),
        }

    def write_spans(self, path) -> None:
        """Every span as one tab-separated line, parents by span id."""
        lines = ["run_id\tid\tparent\tname\tstart_s\tend_s\twork"]
        rid = self.run_id
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            lines.append(f"{rid}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{work}")
        Path(path).write_text("\n".join(lines) + "\n")
