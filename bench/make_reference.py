"""Regenerate reference.json: one pass of every workload, in query order.

    python3 bench/make_reference.py

Each workload runs in its own process, as in the benchmark, so that the
registry holds the same symbols in the same order.  The script refuses to
write answers that fail the checks that need no reference: every round
trip returns its input, the Iwasawa family is integrable, both dbar_t
routes agree, and every branch's Maurer-Cartan residual lies in the
branch ideal.

Each Bott-Chern answer is stored with ``ddbar_image``, forms spanning
im(ddbar) in its bidegree, against which the oracle compares bases.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def answers_of(workload_name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from oracle import Oracle

    workload = workloads.WORKLOADS[workload_name]
    state = workload.setup()
    out = {q.key: q.run() for q in workload.queries(state)}
    for key, answer in out.items():
        if key.startswith("bott_chern/"):
            name, pq = key.split("/")[1:]
            p, q = map(int, pq.split(","))
            sector = workloads.ihg.BottChernSector(state["geoms"][name], p, q)
            answer["ddbar_image"] = [
                workloads.render_form(sector.complex.vector_to_form(v, p, q))
                for v in sector.image
            ]
    oracle = Oracle(0)
    for key, answer in out.items():
        if key.startswith("round_trip/"):
            holo, anti = key.rsplit("/", 1)[1].split("|")
            mono = "phi[" + holo + ("|" + anti if anti else "") + "]"
            if answer["round_trip"] != {mono: "1"}:
                raise SystemExit(f"{key}: round trip does not return its input")
        if answer.get("integrable") is False or answer.get("agrees") is False:
            raise SystemExit(f"{key}: check failed")
        if "mc_residual" in answer and not oracle.in_ideal(
                answer["mc_residual"], answer["relations"]):
            raise SystemExit(f"{key}: residual outside the branch ideal")
    return out


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--workload":
        print(json.dumps(answers_of(sys.argv[2]), sort_keys=True))
        return 0
    reference = {}
    for name in ("invariants", "deformation", "kuranishi"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        reference[name] = json.loads(proc.stdout)
        print(f"{name}: {len(reference[name])} answers")
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
