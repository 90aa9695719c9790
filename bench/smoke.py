"""Self-test of the benchmark; takes about two minutes.

    python3 bench/smoke.py

Checks, in order:

* the oracle accepts a value written another way and rejects a wrong one;
* BENCHMARK.json names exactly the metrics run.py reports, with the same units;
* each workload, run briefly untraced, prints every end-to-end metric by
  name with its unit and an error_rate of 0, and its JSON result is correct;
* each workload, run briefly traced, reports every per-layer metric;
* run.py fails without printing a result where the ihg sources are missing.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(ok: bool, message: str, detail: str = "") -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}\n{detail}")
    print(f"ok: {message}")


def check_oracle() -> None:
    o = Oracle(seed=5)
    check(o.same_coefficient("(t + 1)/2", "1/2*t + 1/2"), "oracle: rewritten sum")
    check(o.same_coefficient("t*conj(t)/(t - 1)", "conj(t)*t/(-1 + t)"),
          "oracle: reordered quotient with conj")
    check(o.same_coefficient("(t^2 - 1)/(t - 1)", "t + 1"), "oracle: uncancelled factor")
    check(not o.same_coefficient("(t + i)/2", "(t - i)/2"), "oracle: wrong sign of i")
    check(o.same_form({"phi[1|2]": "2*t", "phi[3]": "0"}, {"phi[1|2]": "t + t"}),
          "oracle: forms with an explicit zero")
    check(o.same_up_to_scale(["t11*t12 - 1/2*t13"], ["2*t11*t12 - t13"]),
          "oracle: generators up to a constant")
    check(o.same_ideal(["x*y", "x - y"], ["x - y", "y^2"]), "oracle: same ideal")
    check(not o.same_ideal(["x*y"], ["x"]), "oracle: different ideals")
    image = [{"phi[1|2]": "x*y - 1"}]
    basis = [{"phi[1|1]": "1"}, {"phi[1|2]": "-x", "phi[2|1]": "1"}]
    check(o.same_basis([{"phi[1|1]": "2*i"}, {"phi[1|2]": "x^2", "phi[2|1]": "-x"}],
                       basis, image), "oracle: rescaled Bott-Chern basis")
    check(o.same_basis([basis[0], {"phi[1|2]": "x*y - x - 1", "phi[2|1]": "1"}],
                       basis, image), "oracle: Bott-Chern representative moved by im(ddbar)")
    check(not o.same_basis([basis[0], {"phi[1|2]": "1"}], basis, image),
          "oracle: Bott-Chern basis inside im(ddbar)")
    check(o.in_ideal({"1": {"phi[|1,2]": "E1*(x*y - z)/(x - 1)"}}, ["x*y - z"]),
          "oracle: residual in ideal")
    check(not o.in_ideal({"1": {"phi[|1,2]": "x"}}, ["x*y - z"]),
          "oracle: residual outside ideal")


def check_declaration() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES),
          "BENCHMARK.json workloads match workloads.py and run.py")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "101",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_runs() -> None:
    for workload in WORKLOADS:
        proc = bench(ROOT, workload, 0)
        check(proc.returncode == 0, f"{workload}: untraced run exits 0", proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        for name, unit in run.END_TO_END.items():
            check(any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines),
                  f"{workload}: prints {name} in {unit}")
        check(any(ln.split() == ["error_rate", "0", "ratio"] for ln in lines),
              f"{workload}: error_rate is 0")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: result is correct")
        check(set(result["metrics"]) == set(run.END_TO_END), f"{workload}: end-to-end metrics")

        proc = bench(ROOT, workload, 1)
        check(proc.returncode == 0, f"{workload}: traced run exits 0", proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        check(result["correct"], f"{workload}: traced result is correct")
        check({k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER,
              f"{workload}: every per-layer metric with its unit")


def check_bare_directory() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(bare, "invariants", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "fails without a result where src/ihg is missing")


def main() -> int:
    check_oracle()
    check_declaration()
    check_bare_directory()
    check_runs()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
