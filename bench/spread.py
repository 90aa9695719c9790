"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload kuranishi --seeds 1-10 [--out FILE]

Runs run.py untraced once per seed, one run at a time, with the run length
from BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median.  --out merges the summary into a
JSON file keyed by workload and then by seed range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr[-3000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
    for name, s in summary.items():
        print(f"{name:<36} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} "
              f"q3 {s['q3']:<12.5g} spread {s['spread']:.3f} {s['unit']}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault(args.workload, {})[args.seeds] = {
            "run_seconds": seconds, "metrics": summary}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
