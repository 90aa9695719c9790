"""The benchmark's answers, checked in the test suite.

One pass of each workload of bench/workloads.py runs in-process, and the
oracle of bench/oracle.py compares every answer with bench/reference.json
by value, as the benchmark runner does after its timed region: an answer
may differ from the stored text in normal form (say, generator order) and
still pass.  Nothing under bench/ is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
oracle = _load("oracle")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_matches_the_reference(name):
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    workload = workloads.WORKLOADS[name]
    queries = workload.queries(workload.setup())
    assert sorted(q.key for q in queries) == sorted(reference)
    check = oracle.Oracle(0).check
    wrong = {}
    for q in queries:
        # the runner stores each answer as JSON text and checks it parsed
        answer = json.loads(json.dumps(q.run(), sort_keys=True))
        bad = check(answer, reference[q.key])
        if bad:
            wrong[q.key] = bad
    assert wrong == {}
