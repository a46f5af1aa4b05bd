"""One run of one workload in a fresh process.

Started by run.py with the BLAS thread count fixed in its environment and
`--spawned-at` set to the monotonic clock reading taken just before the
process was created, so that `setup_s` covers interpreter start, imports,
config resolution and input generation. Writes its measurements and check
results to `<out>/result.json`; with `--trace 1` also writes every span to
`<out>/spans.tsv`.

Usage: python3 perfbench/worker.py --workload W --seed N --trace 0|1
           --out DIR --spawned-at T
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["recipe-mlp", "recipe-cnn", "surface-quantized"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    out = Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    import sqwa
    if Path(sqwa.__file__).resolve().parent != ROOT / "src" / "sqwa":
        raise SystemExit(f"imported sqwa from {sqwa.__file__}, not from {ROOT / 'src'}")
    import workloads as wl
    from tracer import CallCounter, Tracer

    # Counted, not worked out from the config, so a change that makes fewer
    # steps fails the step check instead of overstating throughput.
    steps = CallCounter("nn", "sgd_momentum_step")
    tracer = None
    span = wl.no_span
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{out.name}")
        tracer.install()
        span = tracer.span

    result = {"workload": args.workload, "seed": args.seed, "trace": None}
    with span("bench.setup"):
        if args.workload == "recipe-mlp":
            cfg = wl.mlp_config(out / "run", args.seed)
        elif args.workload == "recipe-cnn":
            fixtures = wl.write_cnn_fixtures(out / "fixtures", args.seed)
            cfg = wl.cnn_config(out / "run", args.seed, fixtures)
        else:
            cfg = wl.mlp_config(out / "source", args.seed)
            source_paths = wl.run_recipe(cfg, span)
            surface = wl.Surface(cfg, source_paths)
    setup_steps = steps.calls

    body_start = time.perf_counter()
    result["setup_s"] = time.monotonic() - args.spawned_at
    with span("bench.body"):
        if args.workload == "surface-quantized":
            grid = surface.run(out / "surface.csv")
            result["work_units"] = grid.loss.size
        else:
            paths = wl.run_recipe(cfg, span)
    result["wall_s"] = time.perf_counter() - body_start
    # On surface-quantized the SGD steps are the source run's, made in set-up.
    result["sgd_steps"] = steps.calls
    if args.workload != "surface-quantized":
        result["work_units"] = steps.calls - setup_steps
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        body = next(i for i, rec in enumerate(tracer.spans) if rec[0] == "bench.body")
        result["trace"] = tracer.summary(body)

    if args.workload == "surface-quantized":
        failures, facts = wl.check_surface(surface, grid, out / "surface.csv")
        source_failures, source_facts = wl.check_recipe(cfg, source_paths)
        failures += [f"source run: {f}" for f in source_failures]
        facts["final_test_accuracy"] = source_facts["final_test_accuracy"]
    else:
        failures, facts = wl.check_recipe(cfg, paths)
    result.update(facts)
    result["failures"] = failures

    if tracer is not None:
        tracer.write_spans(out / "spans.tsv")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
