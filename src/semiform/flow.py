"""Five-phase verification flow.

Phase 1 parses and cross-checks all inputs.  Phase 2 model-checks each
IP alone; IPs that do not finish inside the time limit are marked.
Phase 3 re-proves marked IPs semiformally: registers are ranked by
influence, a simulation of the boot script supplies concrete values,
and each iteration cuts and pins one more register until the proof
finishes or the list runs out (then the IP is blackboxed or the flow
aborts).  Phase 4 grows a subsystem from the two best-connected
instances, formally checking each growth step; the first incomplete
step hands over to Phase 5, which applies the same semiformal loop at
subsystem scale until the full design is covered or a register list is
exhausted.

One method, `Flow._refine`, is that loop at both scales.  An IP ranks
its own mapped registers, and all marked IPs share one simulation
session.  A subsystem ranks the registers of its instances that are
not blackboxed, opens a session of its own, keeps its blackboxed
instances boxed, and starts from the registers earlier refinements
pinned (`FlowState.carryover`).  A check's cuts, pins and boxes are
plain data: a map from each cut register to its pinned value, or None
for a cut the session left unknown, and a set of boxed instance names.

Every model the flow checks or simulates comes from `Flow._model(keep)`,
which flattens the design once per distinct set of kept instances: one
instance for an IP, the first k+1 ranked instances for subsystem-k, and
all of them for the boot-script sessions.  The last subsystem and the
sessions therefore share one model, lowered for the kernel once.  A
blackboxed instance is a set of cuts on that model, and each model's
dual-rail graph, with each box set's base kinds, is kept with the
model, so iterations that check one model again reuse both.

The status is read from the rows once the flow stops
(`Flow.emit_report`), so a run that leaves a property undetermined,
such as one whose phase list skips phase 2, cannot read as complete.

Reports are deterministic: rows carry charged time (an invocation that
hits its budget charges exactly the budget, anything else charges
zero) so identical runs serialize identically.  Checks that ran out of
budget are kept in one store (`bmc.check`'s `reuse`), per model, box
set, bound, budget and properties, each with the kinds its cone walk
met.  A later check on that key whose kinds equal a stored run's
there, as after a pin outside every cone, would walk and solve the same
problem: it is neither walked nor solved again, and charges what the
first one charged.  Under seconds budgets this stands in for a rerun of
the same clauses at the same budget; under work limits it would be
exact.  A check whose every property a blackboxed instance makes
vacuous, with no pin to validate, returns before it reads a box.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass, field

from . import bmc, sim, sra
from .errors import ExhaustedRegisters
from .frontend import divide_props
from .netlist import (Design, FlatModel, IpNetlist, elaborate,
                      rank_ips_by_connection)

RESULT_FINISHED = "Finished"
RESULT_TIMEOUT = "Timeout"
RESULT_BLACKBOXED = "Blackboxed"
RESULT_SEMIFORMAL_FAIL = "SemiformalFail"
RESULT_SKIPPED = "Skipped"

STATUS_FORMAL_COMPLETE = "FORMAL_COMPLETE"
STATUS_SEMIFORMAL_COMPLETE = "SEMIFORMAL_COMPLETE"
STATUS_SEMIFORMAL_FAIL = "SEMIFORMAL_FAIL"
STATUS_INCOMPLETE = "FORMAL_INCOMPLETE"


@dataclass
class FlowConfig:
    ip_time_limit: float = 3600.0
    subsystem_time_limit: float = 5400.0
    blackbox_failing_ips: bool = True
    bound: int = 20
    phases: tuple[int, ...] = (1, 2, 3, 4, 5)
    dump_icnf: str | None = None
    dump_trace: str | None = None

    def __post_init__(self):
        if self.ip_time_limit <= 0 or self.subsystem_time_limit <= 0:
            raise ValueError("time limits must be positive")
        if self.bound < 0:
            raise ValueError("bound must be >= 0")
        bad = set(self.phases) - {1, 2, 3, 4, 5}
        if bad:
            raise ValueError(f"unknown phases {sorted(bad)}")

    def echo(self) -> dict:
        return {
            "ip_time_limit": self.ip_time_limit,
            "subsystem_time_limit": self.subsystem_time_limit,
            "blackbox_failing_ips": self.blackbox_failing_ips,
            "bound": self.bound,
            "phases": sorted(set(self.phases) | {1}),
        }


@dataclass
class FlowState:
    marked: list[str] = field(default_factory=list)
    ranked_ips: list[str] = field(default_factory=list)
    carryover: list[str] = field(default_factory=list)
    blackboxed: set[str] = field(default_factory=set)


@dataclass
class Row:
    """One architecture's record, updated as the flow runs."""
    name: str
    engine: str = "formal"
    result: str = RESULT_SKIPPED
    elapsed: float = 0.0
    iterations: int = 0
    properties: dict[str, str] = field(default_factory=dict)

    def note(self, run: bmc.BmcRun):
        for pname, o in run.outcomes.items():
            self.properties[pname] = o.status

    @property
    def resolved(self) -> int:
        return sum(1 for s in self.properties.values() if s in ("PASS", "FAIL"))

    @property
    def undetermined(self) -> int:
        return sum(1 for s in self.properties.values()
                   if s not in ("PASS", "FAIL", "VACUOUS"))

    @property
    def vacuous(self) -> int:
        return sum(1 for s in self.properties.values() if s == "VACUOUS")


@dataclass
class VerifReport:
    design: str
    status: str
    rows: list[Row]
    config: dict
    warnings: list[str]

    @property
    def totals(self) -> tuple[int, int, int, int]:
        r = sum(x.resolved for x in self.rows)
        u = sum(x.undetermined for x in self.rows)
        v = sum(x.vacuous for x in self.rows)
        return r, u, v, r + u + v

    @property
    def no_obligations(self) -> bool:
        return self.totals[3] == 0

    @property
    def coverage(self) -> float:
        r, _, _, t = self.totals
        return 1.0 if t == 0 else r / t

    @property
    def abstracted(self) -> float:
        _, _, v, t = self.totals
        return 0.0 if t == 0 else v / t

    def to_json(self) -> str:
        doc = {
            "design": self.design,
            "status": self.status,
            "config": self.config,
            "coverage": self.coverage,
            "abstracted": self.abstracted,
            "no_obligations": self.no_obligations,
            "warnings": list(self.warnings),
            "rows": [{
                "name": r.name,
                "engine": r.engine,
                "result": r.result,
                "elapsed": r.elapsed,
                "iterations": r.iterations,
                "resolved": r.resolved,
                "undetermined": r.undetermined,
                "vacuous": r.vacuous,
                "properties": dict(sorted(r.properties.items())),
            } for r in self.rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        out = [f"design: {self.design}"]
        for w in self.warnings:
            out.append(f"warning: {w}")
        out.append("")
        hdr = f"{'architecture':<14} {'engine':<11} {'result':<15} " \
              f"{'time':<14} properties"
        out.append(hdr)
        out.append("-" * len(hdr))
        for r in self.rows:
            t = f"{r.elapsed:.2f}s"
            if r.engine == "semiformal" and r.iterations:
                t += f" ({r.iterations} iter)"
            tally = f"{r.resolved}/{len(r.properties)} resolved"
            if r.vacuous:
                tally += f", {r.vacuous} vacuous"
            if r.undetermined:
                tally += f", {r.undetermined} open"
            out.append(f"{r.name:<14} {r.engine:<11} {r.result:<15} "
                       f"{t:<14} {tally}")
        res, und, vac, tot = self.totals
        out.append("")
        if self.no_obligations:
            out.append("coverage: no obligations")
        else:
            out.append(f"coverage: {res}/{tot} resolved "
                       f"({self.coverage:.2f}), {vac} vacuous by "
                       f"abstraction, {und} undetermined")
        out.append(f"status: {self.status}")
        return "\n".join(out) + "\n"


def _charge(run: bmc.BmcRun, budget: float | None) -> float:
    """Deterministic cost of one checker invocation."""
    if budget is None:
        return 0.0
    for o in run.outcomes.values():
        if o.status == "UNDETERMINED" and o.reason == "timeout":
            return float(budget)
    return 0.0


class Flow:
    def __init__(self, design: Design, library: dict[str, IpNetlist],
                 regmap, script, props, config: FlowConfig | None = None):
        self.design = design
        self.library = library
        self.regmap = regmap
        self.script = script
        self.props = list(props)
        self.config = config or FlowConfig()
        self.state = FlowState()
        self.warnings: list[str] = []
        self._models: dict[frozenset[str], FlatModel] = {}
        self._arch: dict[str, Row] = {}  # in report order
        # bmc.check's one store of timed-out runs, per model, box set,
        # bound, budget and properties, matched on the kinds each run's
        # cone walk met
        self._reuse: dict = {}
        self._checks = 0  # checks made so far, which number the iCNF dumps

    # -- shared model builders ------------------------------------------------

    def _instances_of(self, module: str) -> list[str]:
        return [i for i, m in self.design.instances if m == module]

    def _scoped(self, module: str) -> list[tuple[str, list]]:
        """Instances of `module` bearing properties, each with its own."""
        out = []
        for inst in self._instances_of(module):
            group = [p for p in self._group(module) if p.scope <= {inst}]
            if group:
                out.append((inst, group))
        return out

    def _blackboxes(self, k: int) -> frozenset[str]:
        """The blackboxed IPs inside subsystem `k`."""
        return frozenset(self.state.blackboxed.intersection(
            self.state.ranked_ips[:k + 1]))

    def _model(self, keep) -> FlatModel:
        """The design flattened to the instances in `keep`, built once."""
        keep = frozenset(keep)
        if keep not in self._models:
            self._models[keep] = elaborate(self.design, self.library,
                                           keep=keep)
        return self._models[keep]

    def _simulator(self, tag: str) -> sim.Simulator:
        """A boot-script session, tracing to `<dump>.<tag>.trace`."""
        trace = None
        if self.config.dump_trace:
            trace = f"{self.config.dump_trace}.{tag}.trace"
        return sim.Simulator(self._model(self.design.instance_names()),
                             self.design, self.script, trace_path=trace)

    def _mapped_regs(self, instances) -> list[str]:
        pfx = tuple(i + "." for i in instances)
        return sorted(r for r in self.regmap.registers()
                      if r.startswith(pfx))

    def _group(self, key: str):
        return self.groups.get(key, [])

    def _check(self, arch: Row, model: FlatModel, group, budget: float,
               cuts=None, boxes=()) -> bmc.BmcRun:
        """Check `group` under its cuts, pins and boxes (see `bmc.check`)
        and charge `arch`; with `dump_icnf`, each check writes its
        solvers' logs to a directory of its own, numbered by check
        sequence (`000`, `001`, ...), so none is overwritten."""
        dump = self.config.dump_icnf
        if dump is not None:
            dump = os.path.join(dump, f"{self._checks:03d}")
        self._checks += 1
        run = bmc.check(model, group, cuts, boxes, k=self.config.bound,
                        budget=budget, dump_icnf=dump, reuse=self._reuse)
        arch.elapsed += _charge(run, budget)
        arch.note(run)
        return run

    def _refine(self, session: sim.Simulator, arch: Row, model: FlatModel,
                group, candidates: list[str], budget: float,
                boxes=(), carry=()) -> bool:
        """Cut, pin and prove again until `group` resolves.

        The `candidates` are ranked by SRA on `model`.  Each iteration
        runs `session` to the next PoI, captures the ranked registers,
        cuts one more of them and checks `group` again with its cuts,
        pins and boxes: `cuts` maps each register cut so far to its
        captured value, or to None when the session left it unknown,
        and `boxes` names the blackboxed instances.  Returns True once a
        check finishes, and False when no candidate is left.  The checks
        made are added to `arch.iterations`, so a module counts those of
        all its instances.  The pins of a check that finishes join
        `state.carryover`.

        The two scales differ only in what the caller passes.  An IP
        ranks its own mapped registers and has no box.  A subsystem
        ranks those of its non-blackboxed instances, boxes the others,
        and passes the carryover as `carry`: its first iteration pins
        the ranked registers in `carry` and adds a pick only when the
        top-ranked one is not among them.  With nothing carried both
        scales pick alike.  The caller sets `arch.result`.
        """
        if not candidates:
            return False
        ranked = sra.do_sra(model, candidates)
        order = ranked.order
        pois = sim.set_pois(self.regmap, order, self.script)
        pinned = [r for r in order if r in carry]
        carried = order[0] in pinned  # then the first check adds no pick
        while True:
            sim.run_until_poi(session, pois)
            cap = sim.collect_sim_values(session, order)
            if not carried:
                try:
                    pinned.append(sra.combine_regs(ranked, pinned))
                except ExhaustedRegisters:
                    return False
            carried = False
            arch.iterations += 1
            cuts = {r: cap.get(r) for r in pinned}
            run = self._check(arch, model, group, budget, cuts, boxes)
            if run.status != "INCOMPLETE":
                self.state.carryover += [r for r in pinned
                                         if r not in self.state.carryover]
                return True

    # -- phase 1 ---------------------------------------------------------------

    def phase1_preprocess(self):
        ranked = self.state.ranked_ips = rank_ips_by_connection(
            self.design, self.library)
        self.groups = divide_props(self.props, self.design, self.library)
        for idx, _, addr in self.script.accesses():
            if self.regmap.register_at(addr) is None:
                self.warnings.append(
                    f"dangling-address: script statement {idx} accesses "
                    f"unmapped address 0x{addr:x}")
        self.modules = list(dict.fromkeys(self.design.module_of(i)
                                          for i in ranked))
        for name in [*self.modules, *(f"subsystem-{k}"
                                      for k in range(1, len(ranked)))]:
            self._arch[name] = Row(name, properties={
                p.name: "UNDETERMINED" for p in self._group(name)})

    # -- phase 2 ---------------------------------------------------------------

    def phase2_formal_ips(self):
        for module in self.modules:
            arch = self._arch[module]
            complete = True
            for inst, group in self._scoped(module):
                run = self._check(arch, self._model([inst]), group,
                                  self.config.ip_time_limit)
                if run.status == "INCOMPLETE":
                    complete = False
            if complete:
                arch.result = RESULT_FINISHED
                arch.iterations = 1 if self._group(module) else 0
            else:
                arch.result = RESULT_TIMEOUT
                self.state.marked.append(module)

    # -- phase 3 ---------------------------------------------------------------

    def phase3_semiformal_ips(self) -> bool:
        """Refine each marked IP; False when one fails and the flow stops."""
        cfg = self.config
        with closing(self._simulator("phase3")) as session:
            for module in list(self.state.marked):
                arch = self._arch[module]
                arch.engine = "semiformal"
                ok = True
                for inst, group in self._scoped(module):
                    ok = self._refine(session, arch, self._model([inst]),
                                      group, self._mapped_regs([inst]),
                                      cfg.ip_time_limit) and ok
                if ok:
                    arch.result = RESULT_FINISHED
                elif cfg.blackbox_failing_ips:
                    arch.result = RESULT_BLACKBOXED
                    self.state.blackboxed.update(self._instances_of(module))
                    for p in self._group(module):
                        arch.properties[p.name] = "VACUOUS"
                else:
                    arch.result = RESULT_SEMIFORMAL_FAIL
                    return False
                self.state.marked.remove(module)
        return True

    # -- phase 4 ---------------------------------------------------------------

    def phase4_formal_subsystems(self) -> int | None:
        """Index of the first subsystem left open, for phase 5, or None."""
        ranked = self.state.ranked_ips
        for k in range(1, len(ranked)):
            arch = self._arch[f"subsystem-{k}"]
            group = self._group(arch.name)
            if group:
                run = self._check(arch, self._model(ranked[:k + 1]), group,
                                  self.config.subsystem_time_limit,
                                  boxes=self._blackboxes(k))
                if run.status == "INCOMPLETE":
                    arch.result = RESULT_TIMEOUT
                    return k
                arch.iterations = 1
            arch.result = RESULT_FINISHED
        return None

    # -- phase 5 ---------------------------------------------------------------

    def phase5_semiformal_subsystems(self, first: int):
        """Refine subsystems `first`.. in turn, until one fails."""
        ranked = self.state.ranked_ips
        for k in range(first, len(ranked)):
            arch = self._arch[f"subsystem-{k}"]
            arch.engine = "semiformal"
            group = self._group(arch.name)
            if group:
                live = [i for i in ranked[:k + 1]
                        if i not in self.state.blackboxed]
                with closing(self._simulator(arch.name)) as session:
                    ok = self._refine(
                        session, arch, self._model(ranked[:k + 1]), group,
                        self._mapped_regs(live),
                        self.config.subsystem_time_limit,
                        self._blackboxes(k), self.state.carryover)
                if not ok:
                    arch.result = RESULT_SEMIFORMAL_FAIL
                    return
            arch.result = RESULT_FINISHED

    # -- driver ----------------------------------------------------------------

    def run(self) -> VerifReport:
        phases = set(self.config.phases) | {1}
        self.phase1_preprocess()
        if 2 in phases:
            self.phase2_formal_ips()
        if 3 in phases and self.state.marked:
            if not self.phase3_semiformal_ips():
                return self.emit_report()
        if 4 in phases:
            k = self.phase4_formal_subsystems()
            if k is not None and 5 in phases:
                self.phase5_semiformal_subsystems(k)
        return self.emit_report()

    def emit_report(self) -> VerifReport:
        """The report, with its status read from the rows:
        SEMIFORMAL_FAIL when a refinement ran out of registers and
        stopped the flow, else FORMAL_INCOMPLETE when any property is
        still undetermined, else SEMIFORMAL_COMPLETE when any row took
        the semiformal engine, else FORMAL_COMPLETE."""
        rows = list(self._arch.values())
        if any(r.result == RESULT_SEMIFORMAL_FAIL for r in rows):
            status = STATUS_SEMIFORMAL_FAIL
        elif any(r.undetermined for r in rows):
            status = STATUS_INCOMPLETE
        elif any(r.engine == "semiformal" for r in rows):
            status = STATUS_SEMIFORMAL_COMPLETE
        else:
            status = STATUS_FORMAL_COMPLETE
        return VerifReport(design=self.design.name, status=status,
                           rows=rows, config=self.config.echo(),
                           warnings=list(self.warnings))


def run_flow(design, library, regmap, script, props,
             config: FlowConfig | None = None) -> VerifReport:
    return Flow(design, library, regmap, script, props, config).run()


def exit_code(report: VerifReport) -> int:
    if report.status in (STATUS_FORMAL_COMPLETE, STATUS_SEMIFORMAL_COMPLETE):
        return 0
    return 2
