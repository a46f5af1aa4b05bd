"""Two sets of ten runs per workload, as the acceptance rule measures them,
and the check that deterministic counts repeat across seeds.

    python3 perfbench/spread.py [--out FILE]

Runs `run.py --trace 0` on seeds 100 to 109 of each workload for the
`run_seconds` in BENCHMARK.json, twice per seed: set 1 and set 2 take
turns, seed by seed, so slow drift of the machine's speed falls on both
sets alike. For every end-to-end metric and set it prints the median of
the ten runs, the quartile spread (q3 - q1) / median from
`statistics.quantiles(values, n=4)` against the metric's bound, and how
much worse set 2's median is than set 1's, as a share of set 1's. It then
makes two traced runs per workload, on seeds 100 and 101, and requires
every per-layer count (unit `count` or `B`) to be identical across them.
With `--out` it writes every run's values, the summary, the counts and the
machine provenance as JSON. Run it from the root of the checkout. Exits 1
if a run fails a check, a count differs between seeds, a spread (except
that of `setup_s`) exceeds its bound, or set 2 is worse than set 1 by
more than a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(100, 110)
SETS = 2
TRACED_SEEDS = range(100, 102)


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """One benchmark run. Returns its JSON result and its provenance line."""
    proc = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def worse_by(better: str, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write all runs and the summary to this JSON file")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    count_names = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "B")]
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[] for _ in range(SETS)]
        for seed in SEEDS:
            for k, runs in enumerate(sets, 1):
                result, prov = run_once(bench, workload, seed, trace=False)
                report.setdefault("provenance", {n: v for n, v in prov.items() if n != "seed"})
                values = {n: m["value"] for n, m in result["metrics"].items()}
                runs.append({"seed": seed, "attempted": result["attempted"],
                             "failed": result["failed"], "correct": result["correct"],
                             "metrics": values})
                ok &= result["correct"]
                print(f"{workload} set {k} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} "
                      + " ".join(f"{n}={v:.6g}" for n, v in values.items()), flush=True)
        entry = {"sets": [{"runs": runs, "summary": {}} for runs in sets]}
        for name, m in metrics.items():
            medians = []
            for k, s in enumerate(entry["sets"], 1):
                values = [r["metrics"][name] for r in s["runs"]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                medians.append(median)
                s["summary"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": m["bound"], "spread_over_bound": spread / m["bound"]}
                ok &= name == "setup_s" or spread <= m["bound"]
                print(f"  {workload:18s} set {k} {name:20s} median {median:<12.6g} "
                      f"spread {spread:.4f}  bound {m['bound']}  "
                      f"spread/bound {spread / m['bound']:.2f}", flush=True)
            drift = worse_by(m["better"], medians[0], medians[1])
            entry.setdefault("set2_worse_by", {})[name] = drift
            ok &= drift <= m["bound"]
            print(f"  {workload:18s} {name:20s} set 2 worse than set 1 by {drift:+.4f} "
                  f"(bound {m['bound']})", flush=True)
        traced = []
        for seed in TRACED_SEEDS:
            result, _ = run_once(bench, workload, seed, trace=True)
            ok &= result["correct"]
            traced.append({n: result["metrics"][n]["value"] for n in count_names})
        differ = sorted(n for n in count_names if len({t[n] for t in traced}) > 1)
        entry["counts"] = traced[0]
        entry["counts_differ_across_seeds"] = differ
        ok &= not differ
        print(f"  {workload:18s} counts over {len(traced)} traced seeds: "
              + (f"DIFFER in {differ}" if differ else "identical"), flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
