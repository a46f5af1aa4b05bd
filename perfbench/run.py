"""The sqwa benchmark: one workload, repeated in fresh processes for a fixed
time, with every run's outputs checked.

    python3 perfbench/run.py --workload recipe-mlp --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. Each repetition is one worker process
(worker.py) that builds its inputs from the seed, runs the workload body
once and checks the outputs. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics (medians over the
repetitions); with `--trace 1` untraced and traced repetitions alternate
and the JSON holds the per-layer metrics from the traced ones. A
repetition whose checks fail, or whose process fails, counts as a failed
operation. Exits 2 without a result if the checkout has no `src/sqwa`, and
1 if no repetition produced a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ["recipe-mlp", "recipe-cnn", "surface-quantized"]

# The whole command must end within this many seconds.
DEADLINE_S = 170.0
MIN_REPS = 3                # untraced repetitions with --trace 0
MIN_TRACE_PAIRS = 2         # untraced + traced pairs with --trace 1
BLAS_THREADS = "1"
# SGD steps each recipe makes, ceil(train size / batch) in every epoch of
# pretrain, cyclical retraining and fine-tuning; on surface-quantized those
# of its source run. Fixed here so a change cannot buy speed by
# shrinking the recipe.
EXPECTED_STEPS = {"recipe-mlp": 20096, "recipe-cnn": 399, "surface-quantized": 20096}

# Functions whose calls, self time and time per call are reported.
TRACED_FUNCTIONS = [f"{module}.{attr}" for module, attr in TRACED]
# sqwa.pipeline.STAGES; run.py itself does not import sqwa.
STAGES = ["pretrain", "quantize", "retrain-cyclical", "average", "finetune", "report"]


def provenance(seed: int) -> dict:
    """Machine, toolchain and source facts recorded with every result."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS}
    probe = (
        "import ctypes, json, pathlib, sys, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "threads = None\n"
        "libs = pathlib.Path(numpy.__file__).parent.parent / 'numpy.libs'\n"
        "for lib in sorted(libs.glob('*openblas*')):\n"
        "    for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',\n"
        "                'openblas_get_num_threads'):\n"
        "        f = getattr(ctypes.CDLL(str(lib)), sym, None)\n"
        "        if f is not None:\n"
        "            f.restype = ctypes.c_int\n"
        "            threads = f()\n"
        "            break\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),\n"
        "                  'blas_version': blas.get('version'), 'blas_threads': threads}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    info = json.loads(out.stdout) if out.returncode == 0 else {}
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **info,
        "blas_threads_env": BLAS_THREADS,
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def run_worker(workload: str, seed: int, trace: bool, out: Path, deadline: float) -> dict:
    """One repetition in a fresh process. Returns its result, or a result
    with a failure if the process failed."""
    env = {**os.environ,
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
           "MKL_NUM_THREADS": BLAS_THREADS, "PYTHONHASHSEED": "0"}
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": ["worker timed out"], "trace": None}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"failures": [f"worker exited {proc.returncode}: " + " | ".join(tail)],
                "trace": None}
    return json.loads((out / "result.json").read_text())


def _measured(r: dict) -> bool:
    return "wall_s" in r


def cross_checks(results: list[dict], expected_steps: int) -> None:
    """Checks across the repetitions of one run: identical output digests,
    the exact SGD step count (counted in every repetition), and identical
    deterministic counts in every traced repetition. A repetition that
    disagrees gets a failure."""
    measured = [r for r in results if _measured(r)]
    if not measured:
        return
    ref = measured[0]
    traced = [r for r in measured if r.get("trace")]
    for r in measured:
        if r["digest"] != ref["digest"]:
            r["failures"].append("output digest differs from the first repetition")
        if r["sgd_steps"] != expected_steps:
            r["failures"].append(f"{r['sgd_steps']} SGD steps, expected {expected_steps}")
    if traced:
        ref_counts = counts(traced[0])
        for r in traced:
            c = counts(r)
            if c != ref_counts:
                r["failures"].append(f"deterministic counts {c} differ from {ref_counts}")


def counts(r: dict) -> dict:
    """The counts a traced repetition must repeat exactly."""
    spans = r["trace"]["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    return {
        "evaluate_calls": calls("nn.evaluate"),
        "quantize_tensor_calls": calls("quantizer.quantize_tensor"),
        "quantizer_configs": r["trace"]["quantizer_configs"],
        "checkpoint_save_bytes": spans.get("checkpoint.save", {}).get("work", 0),
        "checkpoint_load_bytes": spans.get("checkpoint.load", {}).get("work", 0),
    }


def end_to_end(results: list[dict]) -> dict:
    def med(key):
        return statistics.median(r[key] for r in results)

    return {
        "setup_s": {"value": med("setup_s"), "unit": "s"},
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "throughput_per_s": {
            "value": statistics.median(r["work_units"] / r["wall_s"] for r in results),
            "unit": "1/s"},
        "peak_rss_mib": {"value": med("peak_rss_mib"), "unit": "MiB"},
        "final_test_accuracy": {"value": med("final_test_accuracy"), "unit": "fraction"},
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def med(values):
        return statistics.median(list(values))

    metrics = {}

    def put(name, values, unit):
        # Counts repeat exactly (cross_checks), so they stay whole numbers.
        pick = statistics.median_low if unit in ("count", "B") else statistics.median
        metrics[name] = {"value": pick(list(values)), "unit": unit}

    for stage in STAGES:
        put(f"pipeline.{stage}.total_s",
            (r["trace"]["spans"].get(f"pipeline.{stage}", {}).get("total_s", 0.0)
             for r in traced), "s")
    for fn in TRACED_FUNCTIONS:
        stats = [r["trace"]["spans"].get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                 for r in traced]
        put(f"{fn}.calls", (s["calls"] for s in stats), "count")
        put(f"{fn}.self_s", (s["self_s"] for s in stats), "s")
        put(f"{fn}.us_per_call",
            (1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0 for s in stats), "us")
    put("nn.train_gflop_per_s",
        (r["trace"]["train_flops"] / r["trace"]["train_self_s"] / 1e9
         if r["trace"]["train_self_s"] else 0.0 for r in traced), "GFLOP/s")
    put("quantizer.QuantizerConfig.constructed",
        (r["trace"]["quantizer_configs"] for r in traced), "count")

    def ratio(r, name, repeats):
        calls = r["trace"]["spans"].get(name, {}).get("calls", 0)
        return r["trace"][repeats] / calls if calls else 0.0

    put("nn.evaluate.repeat_ratio", (ratio(r, "nn.evaluate", "evaluate_repeats")
                                     for r in traced), "ratio")
    put("checkpoint.load.repeat_ratio", (ratio(r, "checkpoint.load", "load_repeats")
                                         for r in traced), "ratio")
    put("checkpoint.save.bytes",
        (r["trace"]["spans"].get("checkpoint.save", {}).get("work", 0) for r in traced), "B")
    put("checkpoint.load.bytes",
        (r["trace"]["spans"].get("checkpoint.load", {}).get("work", 0) for r in traced), "B")
    traced_wall = med(r["wall_s"] for r in traced)
    untraced_wall = med(r["wall_s"] for r in untraced)
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    put("trace.wrapped_self_s", (r["trace"]["wrapped_self_s"] for r in traced), "s")
    put("trace.unwrapped_s", (r["trace"]["unwrapped_s"] for r in traced), "s")
    put("trace.spans", (r["trace"]["span_count"] for r in traced), "count")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep starting repetitions until this much time has passed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sqwa" / "__init__.py").is_file():
        print(f"error: no sqwa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM unwind normally, so subprocess.run kills and reaps the
    # running worker and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    results: list[dict] = []
    try:
        info = provenance(args.seed)
        print("provenance " + json.dumps(info, sort_keys=True), flush=True)
        longest = 0.0
        needed = 2 * MIN_TRACE_PAIRS if args.trace else MIN_REPS
        while True:
            # Stop once the minimum is met and the next repetition would run
            # past --seconds; with --trace 1 stop only after a traced one.
            elapsed = time.monotonic() - start
            if len(results) >= needed and elapsed + longest > args.seconds \
                    and len(results) % (2 if args.trace else 1) == 0:
                break
            if elapsed + longest > DEADLINE_S - 10:
                break
            # With --trace 1, even repetitions run untraced, odd ones traced.
            traced = bool(args.trace) and len(results) % 2 == 1
            t0 = time.monotonic()
            rep_dir = work / f"rep{len(results):02d}"
            r = run_worker(args.workload, args.seed, traced, rep_dir, deadline)
            longest = max(longest, time.monotonic() - t0)
            results.append(r)
            if traced and (rep_dir / "spans.tsv").is_file():
                os.replace(rep_dir / "spans.tsv", WORK / f"{args.workload}.spans.tsv")
            shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cross_checks(results, EXPECTED_STEPS[args.workload])
    for k, r in enumerate(results):
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        if _measured(r):
            print(f"rep {k} {'traced' if r['trace'] else 'untraced'} "
                  f"setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} {status}")
        else:
            print(f"rep {k} {status}")
    measured = [r for r in results if _measured(r)]
    untraced = [r for r in measured if not r["trace"]]
    traced = [r for r in measured if r["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: no repetition produced a measurement", file=sys.stderr)
        return 1
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    failed = sum(1 for r in results if r["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
