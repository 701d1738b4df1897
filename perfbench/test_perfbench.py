"""Checks of the benchmark itself.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_committed_random_digests_match_the_oracle():
    """A wrong verdict cannot have been blessed into the expected file."""
    digests = json.loads((HERE / "expected" / "random_checks.json")
                         .read_text())["digests"]
    assert str(run.DEFAULT_SEED) in digests
    seed = min(digests, key=int)
    cases = workloads.make_cases("random_checks", int(seed))
    assert run.digest(run.oracle_verdicts(cases)) == digests[seed]


def test_generators_repeat_per_seed_and_build_regular_graphs():
    for name in ("parity_unsat", "random_checks"):
        assert workloads.make_cases(name, 3) == workloads.make_cases(name, 3)
        assert workloads.make_cases(name, 3) != workloads.make_cases(name, 4)
    import random
    edges = workloads.regular_edges(10, random.Random(0))
    degree = [0] * 10
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    assert degree == [4] * 10 and len(set(edges)) == 20


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
               ["d", 5.0, 6.0, 0]]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]


def _child(cases, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload",
           "random_checks", "--t0", "0"]
    proc = subprocess.run(cmd + (["--trace"] if traced else []),
                          input=json.dumps({"cases": cases}), text=True,
                          capture_output=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracing_changes_no_verdict_or_count():
    cases = workloads.make_cases("random_checks", 5)[:20]
    plain, traced = _child(cases, False), _child(cases, True)
    assert plain["verdicts"] == traced["verdicts"]
    assert plain["counts"] == traced["counts"]
    layers = traced["layers"]
    assert layers["bmc.checks"] == layers["netlist.elaborate_calls"] == 20
    assert layers["sat.conflicts"] == sum(c[0] for c in plain["counts"])
    assert layers["bmc.vars"] == sum(c[1] for c in plain["counts"])
    fails = [v for v in plain["verdicts"] if v[2] == "FAIL"]
    assert layers["bmc.replays"] == len(fails)
    assert layers["sim.cycles"] == sum(v[3] + 1 for v in fails)
