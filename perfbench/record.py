"""Run the benchmark over several seeds and record the medians and their spread.

    python3 perfbench/record.py --seeds 1-10 --traced-seeds 1 --out perfbench/baseline.json

Each run is `BENCHMARK.json`'s command in a fresh process, one after another,
from the root of the checkout.  For every workload and end-to-end metric it
prints the median, the quartiles and the spread (quartile distance over the
median) next to the metric's bound; the traced runs give the per-layer
medians.  With `--out` the whole record, raw runs included, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["summary"] = lines[:-1]
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10 or 3,5,8")
    ap.add_argument("--traced-seeds", default="", help="seeds for traced runs (none by default)")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": seed_list(args.seeds),
        "traced_seeds": seed_list(args.traced_seeds) if args.traced_seeds else [],
        "workloads": {},
    }
    for wl in (w["name"] for w in SPEC["workloads"]):
        entry = {}
        untraced = [run_once(wl, s, 0) for s in record["seeds"]]
        entry["end_to_end"] = summarize(untraced)
        entry["attempted"] = [r["attempted"] for r in untraced]
        entry["failed"] = [r["failed"] for r in untraced]
        print(f"{wl}: {len(untraced)} runs", flush=True)
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] is not None and s["spread"] < bounds[name] / 3 else "  <-- spread not below bound/3"
            print(f"  {name:<16} median {s['median']:<12.6g} {s['unit']:<6} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if record["traced_seeds"]:
            traced = [run_once(wl, s, 1) for s in record["traced_seeds"]]
            entry["per_layer"] = {n: {"median": v["median"], "unit": v["unit"]} for n, v in summarize(traced).items()}
            entry["traced_summary"] = traced[0]["summary"]
            print("\n".join("  " + line for line in traced[0]["summary"]))
        record["workloads"][wl] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
