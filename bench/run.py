"""ihg benchmark: one workload, one closed-loop client, exact answers.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload invariants --seed 1 --seconds 15 --trace 0

The client sends each query when the previous one has returned.  Queries
run in whole passes over the workload's query mix, each pass in an order
drawn from the seed; a run keeps starting passes until it has measured at
least ``--seconds`` seconds and at least MIN_QUERIES queries.  Answers are
checked exactly against ``reference.json`` after the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it traces the cold set-up, times some passes
untraced on the state it built, then traces the same number of passes,
and reports the per-layer values of one set-up plus one pass, together
with the tracing overhead.  Human-readable lines come first; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("invariants", "deformation", "kuranishi")
MIN_QUERIES = 100        # so that p90 has at least ten samples beyond it
QUERY_LIMIT_S = 60.0     # a query running longer counts as failed
HARD_CAP_S = 140.0       # no query starts after this much measuring
SETUP_PROBES = 4         # extra set-ups, each in a fresh process

# Host speed.  On a shared host the machine's speed drifts by 40 % and more
# in spells of a minute or more, which swamps changes in the engine from
# one run to the next.  So every run also times a fixed pure-Python loop
# that owes nothing to ihg, once per CALIBRATE_EVERY_S of query time, and
# scales each query's time to the loop's time on an unloaded host: a query
# time t is reported as t / slowdown, slowdown = median(the LOCAL_SAMPLES
# loop times nearest the query) / REFERENCE_LOOP_S.  The drift also moves
# within a run, so the nearest samples track it better than a run median.
CALIBRATION_LOOP = 100_000
REFERENCE_LOOP_S = 0.0065
CALIBRATE_EVERY_S = 0.25
LOCAL_SAMPLES = 8

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics computed from span statistics: (kind, span names)
# kind "calls" counts calls, "self" sums self time, "total" sums duration
DIVMOD = "sympy:PolyElement.__divmod__"
_D = [f"geometry:Geometry.{m}" for m in ("d", "del_op", "dbar", "ddbar")]
SPAN_METRICS = {
    "coefficients.mul_calls": ("calls", ["coefficients:Coefficient.__mul__"]),
    "coefficients.mul_s": ("self", ["coefficients:Coefficient.__mul__"]),
    "coefficients.add_calls": ("calls", ["coefficients:Coefficient.__add__"]),
    "coefficients.add_s": ("self", ["coefficients:Coefficient.__add__"]),
    "coefficients.div_calls": ("calls", ["coefficients:Coefficient.__truediv__",
                                         "coefficients:Coefficient.__rtruediv__"]),
    "coefficients.conjugate_calls": ("calls", ["coefficients:Coefficient.conjugate"]),
    "coefficients.eq_s": ("self", ["coefficients:Coefficient.__eq__"]),
    "coefficients.divmod_calls": ("calls", [DIVMOD]),
    "coefficients.divmod_s": ("self", [DIVMOD]),
    "coefficients.reduce_modulo_calls": ("calls", ["coefficients:Coefficient.reduce_modulo"]),
    "coefficients.squarefree_s": ("self", ["coefficients:Coefficient.squarefree_numerator"]),
    "coefficients.gcd_s": ("self", ["sympy:PolyElement.gcd"]),
    "exterior.wedge_calls": ("calls", ["exterior:Form.wedge"]),
    "exterior.wedge_s": ("self", ["exterior:Form.wedge"]),
    "exterior.wedge_power_s": ("self", ["exterior:Form.wedge_power"]),
    "exterior.substitute_coframe_calls": ("calls", ["exterior:Form.substitute_coframe"]),
    "exterior.substitute_coframe_s": ("self", ["exterior:Form.substitute_coframe"]),
    "geometry.d_calls": ("calls", _D),
    "geometry.d_s": ("self", _D),
    "cohomology.matrix_calls": ("calls", ["cohomology:SectorComplex.matrix"]),
    "cohomology.matrix_s": ("self", ["cohomology:SectorComplex.matrix"]),
    "cohomology.sector_s": ("self", ["cohomology:BottChernSector.__init__"]),
    "linalg.nullspace_s": ("self", ["linalg:nullspace"]),
    "linalg.extend_to_basis_s": ("self", ["linalg:extend_to_basis"]),
    "linalg.solve_min_norm_s": ("self", ["linalg:solve_min_norm"]),
    "linalg.invert_s": ("self", ["linalg:invert"]),
    "metrics.check_condition_s": ("self", ["metrics:check_condition"]),
    "deformation.construct_s": ("self", ["deformation:Deformation.__init__"]),
    "deformation.to_deformed_coords_s": ("self", ["deformation:Deformation.to_deformed_coords"]),
    "deformation.to_base_coords_s": ("self", ["deformation:Deformation.to_base_coords"]),
    "deformation.formula_check_s": ("self", ["deformation:Deformation.extension_formula_check"]),
    "deformation.vector_bracket_s": ("self", ["deformation:vector_bracket"]),
    "kuranishi.build_s": ("self", ["kuranishi:kuranishi_build"]),
    "kuranishi.branch_reduce_s": ("self", ["kuranishi:branch_reduce"]),
    # the catalog layer only assembles geometries, so its cost is what
    # the assembly calls: duration, not self time
    "catalog.build_s": ("total", ["catalog:catalog"]),
}
LAYERS = ("symbols", "coefficients", "exterior", "geometry", "cohomology",
          "linalg", "metrics", "deformation", "kuranishi", "catalog")

PER_LAYER = {
    "symbols.ring_width": "count",
    **{name: ("s" if name.endswith("_s") else "count") for name in SPAN_METRICS},
    "coefficients.divmod_hit_ratio": "ratio",
    "cohomology.matrix_cells": "count",
    "linalg.max_dim": "count",
    "kuranishi.ideal_size": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead": "ratio",
}


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query exceeded {QUERY_LIMIT_S:.0f} s")


def load_engine():
    """Import ihg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ihg
    if Path(ihg.__file__).resolve().parent != SRC / "ihg":
        raise SystemExit(f"error: ihg imported from {ihg.__file__}, not {SRC}")
    import workloads
    return workloads


def loop_sample() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def host_slowdown(samples: list[float]) -> float:
    return statistics.median(samples) / REFERENCE_LOOP_S


def timed_setup(workload_name: str):
    start = time.perf_counter()
    workloads = load_engine()
    workload = workloads.WORKLOADS[workload_name]
    state = workload.setup()
    return time.perf_counter() - start, workloads, workload, state


def probe_setups(workload_name: str, count: int) -> list[float]:
    """Host-scaled set-up time of fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(probe["setup_s"] / probe["slowdown"])
    return out


class Client:
    """Closed-loop client: runs passes, keeps query times and answers."""

    def __init__(self, workloads, workload, seed: int, deadline: float):
        self.workloads = workloads
        # registry policy: unless every query resets the registry, the ring
        # width seen by every query is the one the set-up left
        self.fixed_width = None if workload.resets_registry else workloads.ring_width()
        self.rng = random.Random(seed)
        self.deadline = deadline
        # query id -> (seconds, loop samples taken before the query ended)
        self.times: dict[int, tuple[float, int]] = {}
        self.widths: list[int] = []
        self.failures: dict[int, str] = {}       # query id -> reason
        self.answers: dict[str, dict[str, list[int]]] = {}  # key -> answer json -> query ids
        self.attempted = 0
        self.pass_times: list[float] = []
        self.loop_samples = [loop_sample() for _ in range(3)]
        self._since_sample = 0.0

    def run_pass(self, queries, tracer=None) -> bool:
        """One pass in seeded order; False if the hard cap cut it short."""
        order = list(queries)
        self.rng.shuffle(order)
        for query in order:
            remaining = self.deadline - time.monotonic()
            if remaining < 1.0:
                return False
            qid = self.attempted
            self.attempted += 1
            signal.setitimer(signal.ITIMER_REAL, min(QUERY_LIMIT_S, remaining))
            start = time.perf_counter()
            try:
                if tracer is None:
                    answer = query.run()
                else:
                    with tracer.root(f"query:{query.kind}"):
                        answer = query.run()
                elapsed = time.perf_counter() - start
            except Exception as exc:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.times[qid] = (time.perf_counter() - start, len(self.loop_samples))
                self.failures[qid] = f"{query.key}: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
                continue
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.times[qid] = (elapsed, len(self.loop_samples))
            self._since_sample += elapsed
            if self._since_sample >= CALIBRATE_EVERY_S:
                self.loop_samples.append(loop_sample())
                self._since_sample = 0.0
            width = self.workloads.ring_width()
            self.widths.append(width)
            if self.fixed_width is not None and width != self.fixed_width:
                self.failures[qid] = (
                    f"{query.key}: registry width changed {self.fixed_width} -> {width}")
                continue
            text = json.dumps(answer, sort_keys=True)
            self.answers.setdefault(query.key, {}).setdefault(text, []).append(qid)
        return True

    def run(self, queries, seconds: float, min_queries: int, tracer=None,
            passes: int | None = None) -> tuple[int, float]:
        """Whole passes until both limits are met (or exactly `passes`)."""
        done, start = 0, time.perf_counter()
        first = self.attempted
        while True:
            if passes is not None:
                if done >= passes:
                    break
            elif done and time.perf_counter() - start >= seconds \
                    and self.attempted - first >= min_queries:
                break
            pass_start = time.perf_counter()
            if not self.run_pass(queries, tracer):
                break
            self.pass_times.append(time.perf_counter() - pass_start)
            done += 1
        return done, time.perf_counter() - start

    def scaled_times(self) -> dict[int, float]:
        """Each query's time divided by the host slowdown around it."""
        out = {}
        for qid, (elapsed, at) in self.times.items():
            lo = max(0, at - LOCAL_SAMPLES // 2)
            out[qid] = elapsed / host_slowdown(self.loop_samples[lo:lo + LOCAL_SAMPLES])
        return out

    def verify(self, oracle, reference: dict) -> None:
        """Check every distinct answer; wrong ones fail all their queries."""
        for key, variants in self.answers.items():
            for text, qids in variants.items():
                want = reference.get(key)
                if want is None:
                    reason = f"{key}: no reference answer"
                else:
                    bad = oracle.check(json.loads(text), want)
                    reason = f"{key}: wrong {', '.join(bad)}" if bad else None
                if reason:
                    for qid in qids:
                        self.failures[qid] = reason


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density (midpoint
    rule).  A single order statistic jumps between the costs of
    neighbouring query kinds where the mix leaves gaps between them; this
    weighted mean does not."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((k + 0.5) / n) + (b - 1) * math.log1p(-(k + 0.5) / n)
            for k in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def layer_metrics(tracer, setup_snap: dict, passes: int, widths: list[int],
                  overhead: float) -> dict[str, float]:
    """Per-layer values of one traced set-up plus one traced pass."""
    def unit(value_total, value_setup):
        return value_setup + (value_total - value_setup) / passes

    col = {"calls": 0, "self": 1, "total": 2}
    zero = [0, 0.0, 0.0]
    out: dict[str, float] = {"symbols.ring_width": statistics.fmean(widths)}
    for name, (kind, spans) in SPAN_METRICS.items():
        k = col[kind]
        out[name] = sum(
            unit(tracer.stats.get(s, zero)[k], setup_snap["stats"].get(s, zero)[k])
            for s in spans
        )
    calls = tracer.stats.get(DIVMOD, zero)[0]
    out["coefficients.divmod_hit_ratio"] = tracer.divmod_hits / calls if calls else 0.0
    out["cohomology.matrix_cells"] = unit(tracer.matrix_cells, setup_snap["matrix_cells"])
    out["linalg.max_dim"] = tracer.linalg_max_dim
    out["kuranishi.ideal_size"] = sum(tracer.ideal_sizes.values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            unit(rec[1], setup_snap["stats"].get(span, zero)[1])
            for span, rec in tracer.stats.items()
            if span.startswith(f"{layer}:")
        )
    out["trace.overhead"] = overhead
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ihg" / "__init__.py").is_file():
        print(f"error: no ihg sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_s = timed_setup(args.workload)[0]
        slowdown = host_slowdown([loop_sample() for _ in range(5)])
        print(json.dumps({"setup_s": setup_s, "slowdown": slowdown}))
        return 0

    started = time.monotonic()
    if args.trace:
        # trace the cold set-up that setup_s times, then keep its state
        workloads = load_engine()
        workload = workloads.WORKLOADS[args.workload]
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root("setup"):
                state = workload.setup()
        finally:
            tracer.uninstall()
        setup_snap = tracer.snapshot()
    else:
        probes = probe_setups(args.workload, SETUP_PROBES)
        setup_main, workloads, workload, state = timed_setup(args.workload)
        setup_samples = probes + [setup_main / host_slowdown([loop_sample() for _ in range(5)])]

    from oracle import Oracle  # after the timed import of ihg, which it would speed up

    reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
    signal.signal(signal.SIGALRM, _on_alarm)
    client = Client(workloads, workload, args.seed, started + HARD_CAP_S)
    queries = workload.queries(state)

    if not args.trace:
        passes, wall = client.run(queries, args.seconds, MIN_QUERIES)
        rss = peak_rss_mb()
        client.verify(Oracle(args.seed), reference)
        raw = {qid: t for qid, (t, _) in client.times.items()}
        scaled = client.scaled_times()

        def timings(times: dict[int, float]) -> dict[str, float]:
            ok = [t for qid, t in times.items() if qid not in client.failures]
            return {
                "queries_per_s": len(ok) / sum(times.values()),
                "query_p50_ms": 1000 * quantile(ok, 0.5),
                "query_p90_ms": 1000 * quantile(ok, 0.9),
            }

        if len(client.failures) == client.attempted:
            return _no_result(client)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            **timings(scaled),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        extra = {
            "error_rate": ("ratio", len(client.failures) / client.attempted),
            "host_slowdown": ("ratio", host_slowdown(client.loop_samples)),
            **{f"unscaled_{k}": (END_TO_END[k], v) for k, v in timings(raw).items()},
        }
        print(f"workload={workload.name} seed={args.seed} passes={passes} "
              f"queries={client.attempted} wall_s={wall:.3f} "
              f"setup_samples_s={[round(s, 4) for s in setup_samples]} "
              f"pass_s={[round(s, 3) for s in client.pass_times]}")
    else:
        passes, wall_plain = client.run(queries, args.seconds / 2, 0)
        plain_attempted = client.attempted
        plain_qps = plain_attempted / wall_plain * host_slowdown(client.loop_samples)
        client.widths.clear()
        client.loop_samples = [loop_sample() for _ in range(3)]
        tracer.install()
        try:
            _, wall_traced = client.run(queries, 0, 0, tracer=tracer, passes=passes)
        finally:
            tracer.uninstall()
        client.verify(Oracle(args.seed), reference)
        if not client.widths:
            return _no_result(client)
        traced_attempted = client.attempted - plain_attempted
        traced_qps = traced_attempted / wall_traced * host_slowdown(client.loop_samples)
        overhead = 1 - traced_qps / plain_qps
        metrics = layer_metrics(tracer, setup_snap, passes, client.widths, overhead)
        units = PER_LAYER
        extra = {
            "untraced_queries_per_s": ("1/s", plain_qps),
            "traced_queries_per_s": ("1/s", traced_qps),
        }
        print(f"workload={workload.name} seed={args.seed} passes={passes} "
              f"untraced+traced queries={client.attempted}")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "passes": passes,
             "metrics": metrics, **tracer.to_json()}, indent=1))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        _print_layer_table(tracer, setup_snap, passes)

    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, (unit, value) in extra.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for qid, reason in sorted(client.failures.items()):
        print(f"  FAILED query {qid}: {reason}")
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _no_result(client) -> int:
    for qid, reason in sorted(client.failures.items()):
        print(f"  FAILED query {qid}: {reason}", file=sys.stderr)
    print("error: no query completed", file=sys.stderr)
    return 1


def _print_layer_table(tracer, setup_snap: dict, passes: int, top: int = 25) -> None:
    """Spans with the most self time, per traced set-up plus one pass."""
    zero = [0, 0.0, 0.0]
    rows = []
    for span, rec in tracer.stats.items():
        base = setup_snap["stats"].get(span, zero)
        rows.append((span, *(b + (r - b) / passes for r, b in zip(rec, base))))
    total = sum(r[2] for r in rows) or 1.0
    print(f"  {'span':<56} {'calls':>10} {'self_s':>10} {'share':>7} {'total_s':>10}")
    for span, calls, self_s, total_s in sorted(rows, key=lambda r: -r[2])[:top]:
        print(f"  {span:<56} {calls:>10.0f} {self_s:>10.4f} "
              f"{self_s / total:>7.1%} {total_s:>10.4f}")


if __name__ == "__main__":
    sys.exit(main())
