"""Spans around the checker's layers, recorded from outside the package.

A `Tracer` replaces module attributes and class methods of `semiform`
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.
Counters are taken at the same boundaries, for example the solver's
conflict count before and after each `Solver.solve`.

Callers sometimes import a function by name (`flow.py` has its own
`elaborate`, `cli.py` its own `parse_netlist`), so a function is
replaced under every name any loaded `semiform` module binds it to.
Methods are replaced on the class.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

PARSERS = ("parse_netlist", "parse_design", "parse_props", "parse_esw",
           "parse_regmap")
PHASES = ("phase1_preprocess", "phase2_formal_ips", "phase3_semiformal_ips",
          "phase4_formal_subsystems", "phase5_semiformal_subsystems")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` with a span per call.

        `before(args)` runs just before the call and its result is passed
        to `after(counts, args, result, state)` once the call returns.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args) if before else None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(counts, args, result, state)
            return result

        return traced

    def patch_function(self, fn, name, **hooks):
        wrapped = self.wrap(name, fn, **hooks)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("semiform"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

    def patch_method(self, cls, method, name, **hooks):
        setattr(cls, method, self.wrap(name, getattr(cls, method), **hooks))

    def first_start(self, name: str) -> float | None:
        return next((s[1] for s in self.spans if s[0] == name), None)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install_check_clock(tracer: Tracer):
    """The only hook of an untraced run: when each `bmc.check` runs."""
    from semiform import bmc
    tracer.patch_function(bmc.check, "bmc.check")


def install_layers(tracer: Tracer):
    """Spans and counters around every layer the benchmark reports."""
    from semiform import bmc, flow, frontend, kernels, netlist, sat, sim, sra

    for fn in PARSERS:
        tracer.patch_function(getattr(frontend, fn), "frontend.parse")

    def elaborated(counts, args, model, state):
        counts["netlist.nodes"] += len(model.nodes)

    tracer.patch_function(netlist.elaborate, "netlist.elaborate",
                          after=elaborated)
    tracer.patch_method(netlist.FlatModel, "compile", "netlist.compile")

    def evaluated(counts, args, result, state):
        counts["kernels.gate_evals"] += len(args[0])

    tracer.patch_function(kernels.eval_comb, "kernels.eval_comb",
                          after=evaluated)

    def stepped(counts, args, result, cycle):
        counts["sim.cycles"] += args[0].cycle - cycle

    for method in ("step", "run_statement"):
        tracer.patch_method(sim.Simulator, method, "sim.step",
                            before=lambda args: args[0].cycle, after=stepped)

    def ranked(counts, args, result, state):
        counts["sra.registers"] += len(args[1])

    tracer.patch_function(sra.do_sra, "sra.do_sra", after=ranked)

    def checked(counts, args, run, state):
        counts["bmc.vars"] += run.n_vars
        counts["bmc.clauses"] += run.n_clauses
        counts["bmc.outcomes"] += len(run.outcomes)
        counts["bmc.resolved"] += sum(o.status in ("PASS", "FAIL")
                                      for o in run.outcomes.values())

    tracer.patch_function(bmc.check, "bmc.check", after=checked)
    tracer.patch_function(bmc.xprop_encode, "bmc.xprop_encode")
    tracer.patch_function(bmc.replay_counterexample, "bmc.replay")

    def solver_counts(args):
        s = args[0]
        return s.n_conflicts, s.n_propagations, s.n_learnts

    def solved(counts, args, result, state):
        now = solver_counts(args)
        counts["sat.conflicts"] += now[0] - state[0]
        counts["sat.propagations"] += now[1] - state[1]
        counts["sat.learnts"] += now[2] - state[2]
        counts["sat.timeouts"] += result == "timeout"

    tracer.patch_method(sat.Solver, "solve", "sat.solve",
                        before=solver_counts, after=solved)
    for i, method in enumerate(PHASES, start=1):
        tracer.patch_method(flow.Flow, method, f"flow.phase{i}")


def layer_metrics(tracer: Tracer, wall: float, report: dict | None) -> dict:
    """Per-layer metrics of one traced workload run, zero where idle.

    `wall` is the run's `wall_s`; `report` is the flow's JSON report when
    the run went through the five-phase flow.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _ in tracer.spans:
        total[name] += end - start
        calls[name] += 1
    own = tracer.self_times()
    encode = sum(t for s, t in zip(tracer.spans, own) if s[0] == "bmc.check")
    c = tracer.counts

    def rate(n, secs):
        return n / secs if secs > 0 else 0.0

    m = {
        "frontend.parse_s": total["frontend.parse"],
        "frontend.parse_calls": calls["frontend.parse"],
        "netlist.elaborate_s": total["netlist.elaborate"],
        "netlist.elaborate_calls": calls["netlist.elaborate"],
        "netlist.compile_s": total["netlist.compile"],
        "netlist.nodes": c["netlist.nodes"],
        "kernels.eval_comb_s": total["kernels.eval_comb"],
        "kernels.gate_evals": c["kernels.gate_evals"],
        "sim.step_s": total["sim.step"],
        "sim.cycles": c["sim.cycles"],
        "sim.cycles_per_s": rate(c["sim.cycles"], total["sim.step"]),
        "sra.do_sra_s": total["sra.do_sra"],
        "sra.registers": c["sra.registers"],
        "bmc.checks": calls["bmc.check"],
        "bmc.check_s": total["bmc.check"],
        "bmc.encode_s": encode,
        "bmc.xprop_encode_s": total["bmc.xprop_encode"],
        "bmc.replay_s": total["bmc.replay"],
        "bmc.replays": calls["bmc.replay"],
        "bmc.vars": c["bmc.vars"],
        "bmc.clauses": c["bmc.clauses"],
        "bmc.vars_per_s": rate(c["bmc.vars"], encode),
        "bmc.resolved_ratio": rate(c["bmc.resolved"], c["bmc.outcomes"]),
        "sat.solve_s": total["sat.solve"],
        "sat.solve_calls": calls["sat.solve"],
        "sat.conflicts": c["sat.conflicts"],
        "sat.propagations": c["sat.propagations"],
        "sat.learnts": c["sat.learnts"],
        "sat.conflicts_per_s": rate(c["sat.conflicts"], total["sat.solve"]),
        "sat.propagations_per_s": rate(c["sat.propagations"],
                                       total["sat.solve"]),
        "sat.timeouts": c["sat.timeouts"],
    }
    for i in range(1, 6):
        m[f"flow.phase{i}_s"] = total[f"flow.phase{i}"]
    rows = report["rows"] if report else []
    charged = sum(r["elapsed"] for r in rows)
    m["flow.charged_s"] = charged
    m["flow.unbudgeted_s"] = wall - charged if report else 0.0
    m["flow.iterations"] = sum(r["iterations"] for r in rows)
    m["flow.checks"] = calls["bmc.check"] if report else 0
    return m
