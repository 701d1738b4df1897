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

Reports are deterministic: rows carry charged time (an invocation that
hits its budget charges exactly the budget, anything else charges
zero) so identical runs serialize identically.  Checks that ran out of
budget are kept (`bmc.check`'s `reuse`), keyed by bound, budget,
property lines, vacuous properties and the canonical form of the cones
with constraints written in.  A later check with that key, as after a
pin outside every cone, is not solved again and charges what the first
one charged.  Under seconds budgets this stands in for a rerun of the
same clauses at the same budget; under work limits it would be exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import bmc, sim, sra
from .errors import ExhaustedRegisters, SemiformError
from .frontend import divide_props
from .netlist import (Design, FlatModel, IpNetlist, elaborate,
                      list_unique_ips, rank_ips_by_connection)

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
    w_paths: int = 100
    w_elements: int = 1
    phases: tuple[int, ...] = (1, 2, 3, 4, 5)
    dump_cnf: str | None = None
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
            "w_paths": self.w_paths,
            "w_elements": self.w_elements,
            "phases": sorted(set(self.phases) | {1}),
        }


@dataclass
class FlowState:
    marked: list[str] = field(default_factory=list)
    ranked_ips: list[str] = field(default_factory=list)
    subsys: list[str] = field(default_factory=list)
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
        self._ip_models: dict[str, FlatModel] = {}
        self._sub_models: dict[int, FlatModel] = {}
        self._full: FlatModel | None = None
        self._arch: dict[str, Row] = {}
        self._aborted = False
        self._reuse: dict = {}  # bmc.check's store of runs out of budget

    # -- shared model builders ------------------------------------------------

    def _instances_of(self, module: str) -> list[str]:
        return [i for i, m in self.design.instances if m == module]

    def ip_model(self, instance: str) -> FlatModel:
        if instance not in self._ip_models:
            self._ip_models[instance] = elaborate(
                self.design, self.library, keep={instance})
        return self._ip_models[instance]

    def sub_model(self, k: int) -> FlatModel:
        if k not in self._sub_models:
            keep = set(self.state.ranked_ips[:k + 1])
            self._sub_models[k] = elaborate(self.design, self.library,
                                            keep=keep)
        return self._sub_models[k]

    def full_model(self) -> FlatModel:
        if self._full is None:
            self._full = elaborate(self.design, self.library)
        return self._full

    def _mapped_regs(self, instances) -> list[str]:
        pfx = tuple(i + "." for i in instances)
        return sorted(r for r in self.regmap.registers()
                      if r.startswith(pfx))

    def _group(self, key: str):
        return self.groups.get(key, [])

    def _check(self, arch: Row, model: FlatModel, group, constraints,
               budget: float) -> bmc.BmcRun:
        run = bmc.check(model, group, constraints=constraints,
                        k=self.config.bound, budget=budget,
                        dump_cnf=self.config.dump_cnf, reuse=self._reuse)
        arch.elapsed += _charge(run, budget)
        arch.note(run)
        return run

    # -- phase 1 ---------------------------------------------------------------

    def phase1_preprocess(self):
        self.unique_ips = list_unique_ips(self.design)
        self.state.ranked_ips = rank_ips_by_connection(self.design,
                                                       self.library)
        self.groups = divide_props(self.props, self.design, self.library)
        for idx, _, addr in self.script.accesses():
            if self.regmap.register_at(addr) is None:
                self.warnings.append(
                    f"dangling-address: script statement {idx} accesses "
                    f"unmapped address 0x{addr:x}")
        for module in self.unique_ips:
            self._arch[module] = Row(module)
            for p in self._group(module):
                self._arch[module].properties[p.name] = "UNDETERMINED"
        for k in range(1, max(len(self.state.ranked_ips), 1)):
            name = f"subsystem-{k}"
            self._arch[name] = Row(name)
            for p in self._group(name):
                self._arch[name].properties[p.name] = "UNDETERMINED"

    # -- phase 2 ---------------------------------------------------------------

    def phase2_formal_ips(self):
        cfg = self.config
        done_modules = set()
        for inst in self.state.ranked_ips:
            module = dict(self.design.instances)[inst]
            if module in done_modules:
                continue
            done_modules.add(module)
            arch = self._arch[module]
            group = self._group(module)
            complete = True
            for bearer in self._instances_of(module):
                sub = [p for p in group if p.scope <= {bearer}]
                if not sub:
                    continue
                run = self._check(arch, self.ip_model(bearer), sub, (),
                                  cfg.ip_time_limit)
                if run.status == "INCOMPLETE":
                    complete = False
            arch.engine = "formal"
            if complete:
                arch.result = RESULT_FINISHED
                arch.iterations = 1 if group else 0
            else:
                arch.result = RESULT_TIMEOUT
                self.state.marked.append(module)

    # -- phase 3 ---------------------------------------------------------------

    def _semiformal_ip(self, session, module: str, inst: str) -> bool:
        """One marked IP; returns True when its group got resolved."""
        cfg = self.config
        arch = self._arch[module]
        group = [p for p in self._group(module) if p.scope <= {inst}]
        model = self.ip_model(inst)
        mapped = self._mapped_regs([inst])
        if not mapped:
            arch.iterations = 0
            return False
        ranked = sra.do_sra(model, mapped, w_paths=cfg.w_paths,
                            w_elements=cfg.w_elements)
        order = list(ranked.order)
        pois = sim.set_pois(self.regmap, order, self.script)
        pinned: list[str] = []
        iters = 0
        while True:
            sim.run_until_poi(session, pois)
            cap = sim.collect_sim_values(session, order)
            try:
                pinned = pinned + list(
                    sra.combine_regs(ranked, 1, already=pinned))
            except ExhaustedRegisters:
                arch.iterations = iters
                return False
            iters += 1
            cons = bmc.create_stopats(pinned)
            vals = {r: cap.values[r] for r in pinned if r in cap.values}
            cons = cons + bmc.create_assumes(vals, cons)
            run = self._check(arch, model, group, cons, cfg.ip_time_limit)
            if run.status != "INCOMPLETE":
                arch.iterations = iters
                self.state.carryover += [r for r in pinned
                                         if r not in self.state.carryover]
                return True

    def phase3_semiformal_ips(self):
        cfg = self.config
        trace = None
        if cfg.dump_trace:
            trace = f"{cfg.dump_trace}.phase3.trace"
        session = sim.Simulator(self.full_model(), self.design, self.script,
                                trace_path=trace)
        try:
            for module in list(self.state.marked):
                arch = self._arch[module]
                arch.engine = "semiformal"
                ok = True
                for inst in self._instances_of(module):
                    if any(p.scope <= {inst} for p in self._group(module)):
                        ok = self._semiformal_ip(session, module, inst) and ok
                if ok:
                    arch.result = RESULT_FINISHED
                    self.state.marked.remove(module)
                elif cfg.blackbox_failing_ips:
                    arch.result = RESULT_BLACKBOXED
                    for inst in self._instances_of(module):
                        self.state.blackboxed.add(inst)
                    for p in self._group(module):
                        arch.properties[p.name] = "VACUOUS"
                    self.state.marked.remove(module)
                else:
                    arch.result = RESULT_SEMIFORMAL_FAIL
                    self._aborted = True
                    return
        finally:
            session.close()

    # -- phase 4 ---------------------------------------------------------------

    def phase4_formal_subsystems(self) -> str:
        """Returns FORMAL_COMPLETE or the subsystem index to hand to 5."""
        cfg = self.config
        n_sub = len(self.state.ranked_ips) - 1
        if n_sub < 1:
            return STATUS_FORMAL_COMPLETE
        self.state.subsys = list(self.state.ranked_ips[:2])
        k = 1
        while True:
            name = f"subsystem-{k}"
            arch = self._arch[name]
            group = self._group(name)
            arch.engine = "formal"
            if group:
                cons = [bmc.Blackbox(i) for i in sorted(
                    self.state.blackboxed & set(self.state.subsys))]
                run = self._check(arch, self.sub_model(k), group, cons,
                                  cfg.subsystem_time_limit)
                if run.status == "INCOMPLETE":
                    arch.result = RESULT_TIMEOUT
                    return name
                arch.iterations = 1
            arch.result = RESULT_FINISHED
            if k == n_sub:
                return STATUS_FORMAL_COMPLETE
            self.state.subsys.append(self.state.ranked_ips[k + 1])
            k += 1

    # -- phase 5 ---------------------------------------------------------------

    def _semiformal_subsystem(self, k: int) -> bool:
        cfg = self.config
        name = f"subsystem-{k}"
        arch = self._arch[name]
        arch.engine = "semiformal"
        group = self._group(name)
        if not group:
            arch.result = RESULT_FINISHED
            return True
        model = self.sub_model(k)
        cons_bb = [bmc.Blackbox(i) for i in sorted(
            self.state.blackboxed & set(self.state.subsys))]
        candidates = self._mapped_regs(
            [i for i in self.state.subsys if i not in self.state.blackboxed])
        if not candidates:
            arch.result = RESULT_SEMIFORMAL_FAIL
            arch.iterations = 0
            return False
        ranked = sra.do_sra(model, candidates, w_paths=cfg.w_paths,
                            w_elements=cfg.w_elements)
        order = list(ranked.order)
        pois = sim.set_pois(self.regmap, order, self.script)
        trace = None
        if cfg.dump_trace:
            trace = f"{cfg.dump_trace}.{name}.trace"
        session = sim.Simulator(self.full_model(), self.design, self.script,
                                trace_path=trace)
        carry = set(self.state.carryover)
        pinned: list[str] = []
        iters = 0
        try:
            while True:
                sim.run_until_poi(session, pois)
                cap = sim.collect_sim_values(session, order)
                if iters == 0:
                    pinned = [r for r in order if r in carry]
                if iters or not pinned or order[0] not in carry:
                    try:
                        pinned = pinned + list(
                            sra.combine_regs(ranked, 1, already=pinned))
                    except ExhaustedRegisters:
                        arch.result = RESULT_SEMIFORMAL_FAIL
                        arch.iterations = iters
                        return False
                iters += 1
                cons = bmc.create_stopats(pinned)
                vals = {r: cap.values[r] for r in pinned if r in cap.values}
                cons = cons_bb + list(cons) + list(
                    bmc.create_assumes(vals, cons))
                run = self._check(arch, model, group, cons,
                                  cfg.subsystem_time_limit)
                if run.status != "INCOMPLETE":
                    arch.result = RESULT_FINISHED
                    arch.iterations = iters
                    self.state.carryover += [r for r in pinned
                                             if r not in self.state.carryover]
                    return True
        finally:
            session.close()

    def phase5_semiformal_subsystems(self, from_name: str) -> str:
        k = int(from_name.split("-")[1])
        n_sub = len(self.state.ranked_ips) - 1
        while True:
            if not self._semiformal_subsystem(k):
                self._aborted = True
                return STATUS_SEMIFORMAL_FAIL
            if k == n_sub:
                return STATUS_SEMIFORMAL_COMPLETE
            self.state.subsys.append(self.state.ranked_ips[k + 1])
            k += 1

    # -- driver ----------------------------------------------------------------

    def run(self) -> VerifReport:
        phases = set(self.config.phases) | {1}
        self.phase1_preprocess()
        status = STATUS_FORMAL_COMPLETE
        if 2 in phases:
            self.phase2_formal_ips()
        if 3 in phases and self.state.marked:
            self.phase3_semiformal_ips()
            if self._aborted:
                return self.emit_report(STATUS_SEMIFORMAL_FAIL)
        if 4 in phases:
            outcome = self.phase4_formal_subsystems()
            if outcome != STATUS_FORMAL_COMPLETE:
                if 5 in phases:
                    status = self.phase5_semiformal_subsystems(outcome)
                else:
                    status = STATUS_INCOMPLETE
            else:
                status = STATUS_FORMAL_COMPLETE
        elif self.state.marked:
            status = STATUS_INCOMPLETE
        if status == STATUS_FORMAL_COMPLETE and any(
                a.engine == "semiformal" for a in self._arch.values()):
            status = STATUS_SEMIFORMAL_COMPLETE
        return self.emit_report(status)

    def emit_report(self, status: str) -> VerifReport:
        module_rows = []
        seen = set()
        for inst in self.state.ranked_ips:
            module = dict(self.design.instances)[inst]
            if module not in seen:
                seen.add(module)
                module_rows.append(module)
        names = module_rows + [f"subsystem-{k}" for k in
                               range(1, max(len(self.state.ranked_ips), 1))]
        rows = [self._arch[n] for n in names]
        return VerifReport(design=self.design.name, status=status, rows=rows,
                           config=self.config.echo(),
                           warnings=list(self.warnings))


def run_flow(design, library, regmap, script, props,
             config: FlowConfig | None = None) -> VerifReport:
    return Flow(design, library, regmap, script, props, config).run()


def exit_code(report: VerifReport) -> int:
    if report.status in (STATUS_FORMAL_COMPLETE, STATUS_SEMIFORMAL_COMPLETE):
        return 0
    return 2
