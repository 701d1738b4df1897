"""Bounded model checking over a dual-rail unknown-value encoding.

Every signal is modelled by two boolean rails: its value and whether
that value is known.  Unknowns (x) are the pair (0,0).  The known rail
of each gate follows the same pessimistic rules the simulator uses, so
a counterexample found here replays exactly in simulation.

Encoding is lazy: a net/frame pair is translated to CNF only when some
property cone reaches it, and constants are folded during translation.
Pinning a register with an assume therefore collapses everything behind
its decode logic before the solver ever sees it, which is what makes
the constrain-and-reprove iterations cheap.

Frames are solved one at a time on a single incremental solver, so a
failing property always reports its earliest reachable frame.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field

from .errors import MissingStopat, SemiformError
from .frontend import PropertyAst
from .netlist import FlatModel, Node, blackbox
from .sat import Cnf, Solver, export_dimacs
from . import sim as simlib


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class Stopat:
    """Cut a signal: its driver is disconnected, the bits turn free."""

    signal: str


@dataclass(frozen=True)
class Assume:
    """Pin a (cut) register to a constant value in every frame."""

    register: str
    value: int


@dataclass(frozen=True)
class Blackbox:
    """Drop an instance's logic; its outputs turn into free unknowns."""

    instance: str


def create_stopats(registers) -> tuple[Stopat, ...]:
    return tuple(Stopat(r) for r in registers)


def create_assumes(values: dict[str, int],
                   stopats: tuple[Stopat, ...]) -> tuple[Assume, ...]:
    """Assumes for captured register values; each needs a matching cut."""
    cut = {s.signal for s in stopats}
    out = []
    for reg in sorted(values):
        if reg not in cut:
            raise MissingStopat(f"assume on {reg} without a stopat")
        out.append(Assume(reg, values[reg]))
    return tuple(out)


# ---------------------------------------------------------------------------
# dual-rail model


@dataclass(frozen=True)
class DualModel:
    base: FlatModel
    driver: dict[str, Node]
    known_of: dict[str, str]
    free_pairs: frozenset[str]


def xprop_encode(model: FlatModel) -> DualModel:
    """Attach a known rail to every net of the flat model."""
    driver: dict[str, Node] = {}
    nodes_out = {n.output for n in model.nodes}

    # a NOT gate shares its input's known rail, transitively
    alias: dict[str, str] = {}
    for node in model.nodes:
        if node.kind == "NOT":
            alias[node.output] = node.inputs[0]
    known: dict[str, str] = {}
    for net in model.nets:
        root = net
        while root in alias:
            root = alias[root]
        known[net] = root + "!k"
    free_pairs = set()
    for net in model.nets:
        if net in nodes_out:
            continue
        # undriven: a primary input (driven by the environment, hence
        # known) or a net freed by blackboxing (unknown allowed)
        if net in model.free_inputs:
            free_pairs.add(net)
        else:
            driver[known[net]] = Node("CONST", known[net], (), value=1)

    def aux(base_name: str, i: int) -> str:
        return f"{base_name}!k{i}"

    extra: list[Node] = []
    for node in model.nodes:
        driver[node.output] = node
        o = node.output
        ko = known[o]
        if node.kind == "CONST":
            driver[ko] = Node("CONST", ko, (), value=1)
            continue
        if node.kind == "DFF":
            d = node.inputs[0]
            vinit = node.init if node.init is not None else 0
            driver[o] = Node("DFF", o, (d,), init=vinit)
            driver[ko] = Node("DFF", ko, (known[d],),
                              init=1 if node.init is not None else 0)
            continue
        if node.kind == "NOT":
            continue  # known rail shared with the input via `known`
        if node.kind == "XOR":
            a, b = node.inputs
            driver[ko] = Node("AND", ko, (known[a], known[b]))
            continue
        if node.kind in ("AND", "OR"):
            a, b = node.inputs
            ka, kb = known[a], known[b]
            # known when both sides known, or either side is known at
            # the controlling value (0 for AND, 1 for OR)
            if node.kind == "AND":
                ca, cb = aux(o, 0), aux(o, 1)
                extra.append(Node("NOT", ca, (a,)))
                extra.append(Node("NOT", cb, (b,)))
            else:
                ca, cb = a, b
            t1, t2, t3, o1 = aux(o, 2), aux(o, 3), aux(o, 4), aux(o, 5)
            extra.append(Node("AND", t1, (ka, kb)))
            extra.append(Node("AND", t2, (ka, ca)))
            extra.append(Node("AND", t3, (kb, cb)))
            extra.append(Node("OR", o1, (t1, t2)))
            extra.append(Node("OR", ko, (o1, t3)))
            continue
        if node.kind == "MUX":
            s, a, b = node.inputs
            ks, ka, kb = known[s], known[a], known[b]
            m1, t1, x, nx, t2, t3 = (aux(o, i) for i in range(6))
            extra.append(Node("MUX", m1, (s, ka, kb)))
            extra.append(Node("AND", t1, (ks, m1)))
            extra.append(Node("XOR", x, (a, b)))
            extra.append(Node("NOT", nx, (x,)))
            extra.append(Node("AND", t2, (ka, kb)))
            extra.append(Node("AND", t3, (t2, nx)))
            extra.append(Node("OR", ko, (t1, t3)))
            continue
        raise SemiformError(f"unexpected node kind {node.kind}")

    for n in extra:
        driver[n.output] = n
    return DualModel(model, driver, known, frozenset(free_pairs))


# ---------------------------------------------------------------------------
# lazy unroller


class _EncodeTimeout(Exception):
    pass


class Unroller:
    """Translates (net, frame) pairs to solver literals on demand.

    Literal 1 is pinned true, so +1/-1 act as constants and folding is
    just integer comparison.
    """

    TRUE = 1
    FALSE = -1

    def __init__(self, dual: DualModel, stopats=(), assumes=(),
                 track_problem: bool = False):
        self.dual = dual
        self.solver = Solver()
        self.solver.ensure_vars(1)
        self.problem: list[tuple[int, ...]] | None = [] if track_problem else None
        self.n_clauses = 0  # clauses emitted; the solver's list also holds learnts
        self._add([1])
        self.memo: dict[tuple[str, int], int] = {}
        self.deadline: float | None = None
        self._ops = 0

        base = dual.base
        regs = base.registers
        self.cut_value: set[str] = set()
        self.cut_known: dict[str, str] = {}
        for st in stopats:
            for bit in self._reg_or_signal_bits(st.signal):
                self.cut_value.add(bit)
                self.cut_known[dual.known_of[bit]] = bit
        self.assume_bits: dict[str, int] = {}
        for asm in assumes:
            reg = regs.get(asm.register)
            if reg is None:
                raise SemiformError(f"assume on unknown register {asm.register}")
            if asm.value >> len(reg.bits):
                raise SemiformError(
                    f"assume value {asm.value:#x} overflows {asm.register}")
            for i, bit in enumerate(reg.bits):
                net = base.resolve(bit)
                self.assume_bits[net] = (asm.value >> i) & 1
                self.assume_bits[dual.known_of[net]] = 1
        self.freepair_known = {dual.known_of[v]: v for v in dual.free_pairs}

    def _reg_or_signal_bits(self, name: str) -> tuple[str, ...]:
        base = self.dual.base
        reg = base.registers.get(name)
        if reg is not None:
            return tuple(base.resolve(b) for b in reg.bits)
        return tuple(base.resolve(b) for b in base.signal_bits(name))

    # -- clause emission -----------------------------------------------------

    def _add(self, clause):
        self.n_clauses += 1
        if self.problem is not None:
            self.problem.append(tuple(clause))
        self.solver.add_clause(clause)

    def _new(self) -> int:
        return self.solver.new_var()

    def _and(self, lits) -> int:
        out = []
        for lit in lits:
            if lit == self.FALSE:
                return self.FALSE
            if lit == self.TRUE:
                continue
            if -lit in out:
                return self.FALSE
            if lit not in out:
                out.append(lit)
        if not out:
            return self.TRUE
        if len(out) == 1:
            return out[0]
        v = self._new()
        for lit in out:
            self._add([-v, lit])
        self._add([v] + [-lit for lit in out])
        return v

    def _or(self, lits) -> int:
        return -self._and([-lit for lit in lits])

    def _xor(self, a: int, b: int) -> int:
        if a == self.TRUE:
            return -b
        if a == self.FALSE:
            return b
        if b == self.TRUE:
            return -a
        if b == self.FALSE:
            return a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        v = self._new()
        self._add([-v, a, b])
        self._add([-v, -a, -b])
        self._add([v, -a, b])
        self._add([v, a, -b])
        return v

    def _mux(self, s: int, a: int, b: int) -> int:
        if s == self.TRUE:
            return a
        if s == self.FALSE:
            return b
        if a == b:
            return a
        if a == self.TRUE and b == self.FALSE:
            return s
        if a == self.FALSE and b == self.TRUE:
            return -s
        v = self._new()
        # solver folds the remaining constant literals at level 0
        self._add([-s, -a, v])
        self._add([-s, a, -v])
        self._add([s, -b, v])
        self._add([s, b, -v])
        self._add([-a, -b, v])
        self._add([a, b, -v])
        return v

    # -- net translation --------------------------------------------------------

    def _alloc_pair(self, vnet: str, frame: int):
        kn = self.dual.known_of[vnet]
        vv = self._new()
        kk = self._new()
        self._add([-vv, kk])  # unknown values are canonical (0,0)
        self.memo[(vnet, frame)] = vv
        self.memo[(kn, frame)] = kk

    def lit(self, net: str, frame: int) -> int:
        memo = self.memo
        key = (net, frame)
        if key in memo:
            return memo[key]
        stack = [key]
        while stack:
            self._ops += 1
            if (self._ops & 4095) == 0 and self.deadline is not None \
                    and time.perf_counter() > self.deadline:
                raise _EncodeTimeout()
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            r = self._step(top[0], top[1], stack)
            if r is not None:
                memo[top] = r
                stack.pop()
        return memo[key]

    def _step(self, net: str, f: int, stack) -> int | None:
        memo = self.memo
        av = self.assume_bits.get(net)
        if av is not None:
            return self.TRUE if av else self.FALSE
        if net in self.cut_value:
            self._alloc_pair(net, f)
            return memo[(net, f)]
        if net in self.cut_known:
            self._alloc_pair(self.cut_known[net], f)
            return memo[(net, f)]
        node = self.dual.driver.get(net)
        if node is None:
            if net in self.dual.free_pairs:
                self._alloc_pair(net, f)
                return memo[(net, f)]
            if net in self.freepair_known:
                self._alloc_pair(self.freepair_known[net], f)
                return memo[(net, f)]
            return self._new()  # environment-driven input, fresh per frame
        kind = node.kind
        if kind == "CONST":
            return self.TRUE if node.value else self.FALSE
        if kind == "DFF":
            if f == 0:
                return self.TRUE if node.init else self.FALSE
            dep = (node.inputs[0], f - 1)
            if dep in memo:
                return memo[dep]
            stack.append(dep)
            return None
        ins = node.inputs
        if kind == "NOT":
            dep = (ins[0], f)
            if dep in memo:
                return -memo[dep]
            stack.append(dep)
            return None
        if kind in ("AND", "OR"):
            controlling = self.FALSE if kind == "AND" else self.TRUE
            lits = []
            for i in ins:
                dep = (i, f)
                if dep not in memo:
                    stack.append(dep)
                    return None
                lit = memo[dep]
                if lit == controlling:
                    return controlling  # short-circuit: skip later cones
                lits.append(lit)
            return self._and(lits) if kind == "AND" else self._or(lits)
        if kind == "XOR":
            for i in ins:
                dep = (i, f)
                if dep not in memo:
                    stack.append(dep)
                    return None
            return self._xor(memo[(ins[0], f)], memo[(ins[1], f)])
        if kind == "MUX":
            sdep = (ins[0], f)
            if sdep not in memo:
                stack.append(sdep)
                return None
            s = memo[sdep]
            if s == self.TRUE or s == self.FALSE:
                pick = ins[1] if s == self.TRUE else ins[2]
                dep = (pick, f)
                if dep in memo:
                    return memo[dep]
                stack.append(dep)
                return None
            for i in ins[1:]:
                dep = (i, f)
                if dep not in memo:
                    stack.append(dep)
                    return None
            return self._mux(s, memo[(ins[1], f)], memo[(ins[2], f)])
        raise SemiformError(f"unexpected node kind {kind}")

    def pair(self, net: str, frame: int) -> tuple[int, int]:
        """(value, known) literals of a base-model net."""
        return self.lit(net, frame), self.lit(self.dual.known_of[net], frame)


# ---------------------------------------------------------------------------
# property translation


def _expr_pair(enc: Unroller, model: FlatModel, expr, frame: int):
    op = expr[0]
    if op == "sig":
        bits = _sig_bits(model, expr)
        if len(bits) != 1:
            raise SemiformError("multi-bit signal in boolean position")
        return enc.pair(bits[0], frame)
    if op == "int":
        return (enc.TRUE if expr[1] else enc.FALSE), enc.TRUE
    if op == "not":
        v, k = _expr_pair(enc, model, expr[1], frame)
        return -v, k
    if op in ("and", "or", "imp"):
        va, ka = _expr_pair(enc, model, expr[1], frame)
        vb, kb = _expr_pair(enc, model, expr[2], frame)
        if op == "imp":
            va, op = -va, "or"
        if op == "and":
            v = enc._and([va, vb])
            k = enc._or([enc._and([ka, kb]), enc._and([ka, -va]),
                         enc._and([kb, -vb])])
        else:
            v = enc._or([va, vb])
            k = enc._or([enc._and([ka, kb]), enc._and([ka, va]),
                         enc._and([kb, vb])])
        return v, k
    if op in ("eq", "ne"):
        la, lb = _operand_bits(enc, model, expr[1], expr[2], frame)
        eq_bits, diff_known, all_known = [], [], []
        for (va, ka), (vb, kb) in zip(la, lb):
            x = enc._xor(va, vb)
            eq_bits.append(-x)
            diff_known.append(enc._and([ka, kb, x]))
            all_known.extend([ka, kb])
        v = enc._and(eq_bits)
        k = enc._or([enc._or(diff_known), enc._and(all_known)])
        if op == "ne":
            v = -v
        return v, k
    raise SemiformError(f"unexpected expression {op}")


def _sig_bits(model: FlatModel, expr) -> tuple[str, ...]:
    _, name, idx = expr
    bits = tuple(model.resolve(b) for b in model.signal_bits(name))
    if idx is not None:
        bits = (bits[idx],)
    return bits


def _operand_bits(enc: Unroller, model: FlatModel, a, b, frame: int):
    def width_of(e):
        return len(_sig_bits(model, e)) if e[0] == "sig" else None

    w = width_of(a) or width_of(b) or 1

    def bits_of(e):
        if e[0] == "sig":
            return [enc.pair(bit, frame) for bit in _sig_bits(model, e)]
        v = e[1]
        return [((enc.TRUE if (v >> i) & 1 else enc.FALSE), enc.TRUE)
                for i in range(w)]

    return bits_of(a), bits_of(b)


def _violation_lit(enc: Unroller, model: FlatModel, prop: PropertyAst,
                   frame: int) -> int:
    if prop.kind == "xprop":
        reg = model.registers.get(prop.register)
        if reg is None:
            raise SemiformError(f"xprop register {prop.register} missing")
        lits = []
        for bit in reg.bits:
            net = model.resolve(bit)
            lits.append(-enc.lit(enc.dual.known_of[net], frame))
        return enc._or(lits)
    v, k = _expr_pair(enc, model, prop.expr, frame)
    return enc._and([k, -v])  # definitely false, not merely unknown


# ---------------------------------------------------------------------------
# outcomes


@dataclass(frozen=True)
class CexTrace:
    prop: str
    frame: int
    nets: tuple[str, ...]
    frames: tuple[tuple[int, ...], ...]  # one row per cycle, values 0/1/2


@dataclass(frozen=True)
class PropertyOutcome:
    prop: str
    status: str  # PASS | FAIL | UNDETERMINED | VACUOUS
    bound: int | None = None
    frame: int | None = None
    trace: CexTrace | None = None
    reason: str | None = None
    elapsed: float = 0.0


@dataclass
class BmcRun:
    outcomes: dict[str, PropertyOutcome] = field(default_factory=dict)
    k: int = 0
    elapsed: float = 0.0
    n_vars: int = 0
    n_clauses: int = 0
    n_conflicts: int = 0

    @property
    def status(self) -> str:
        st = {o.status for o in self.outcomes.values()}
        if "FAIL" in st:
            return "FAIL"
        if "UNDETERMINED" in st:
            return "INCOMPLETE"
        return "PASS"


# ---------------------------------------------------------------------------
# the check itself


def check(model: FlatModel, props, constraints=(), k: int = 20,
          budget: float | None = None, dump_cnf: str | None = None) -> BmcRun:
    """Bounded check of `props` on `model` under `constraints`.

    The budget is split evenly over the unresolved properties and
    redistributed in rounds, so one stubborn property cannot starve the
    rest.  Each property is solved frame by frame on one incremental
    solver; a FAIL therefore carries its earliest reachable frame.
    """
    start = time.perf_counter()
    stopats = tuple(c for c in constraints if isinstance(c, Stopat))
    assumes = tuple(c for c in constraints if isinstance(c, Assume))
    boxes = tuple(c for c in constraints if isinstance(c, Blackbox))
    cut = {s.signal for s in stopats}
    for a in assumes:
        if a.register not in cut:
            raise MissingStopat(f"assume on {a.register} without a stopat")

    for bx in boxes:
        model = blackbox(model, bx.instance)

    run = BmcRun(k=k)
    pending: list[PropertyAst] = []
    for prop in sorted(props, key=lambda p: p.name):
        dead = sorted(prop.scope & model.blackboxed) + \
            sorted(i for i in prop.scope if i not in model.instances)
        if dead:
            run.outcomes[prop.name] = PropertyOutcome(
                prop.name, "VACUOUS", reason=f"scope blackboxed: {dead[0]}")
        elif prop.kind == "xprop" and prop.settle > k:
            run.outcomes[prop.name] = PropertyOutcome(
                prop.name, "UNDETERMINED", reason="bound",
                bound=k)
        else:
            pending.append(prop)

    dual = xprop_encode(model)
    enc = Unroller(dual, stopats, assumes, track_problem=dump_cnf is not None)
    total_deadline = None if budget is None else start + budget
    next_frame = {p.name: (p.settle if p.kind == "xprop" else 0)
                  for p in pending}
    spent: dict[str, float] = {p.name: 0.0 for p in pending}

    while pending:
        now = time.perf_counter()
        if total_deadline is not None and total_deadline - now < 0.005:
            for prop in pending:
                run.outcomes[prop.name] = PropertyOutcome(
                    prop.name, "UNDETERMINED", reason="timeout",
                    bound=max(0, next_frame[prop.name] - 1),
                    elapsed=spent[prop.name])
            break
        share = None
        if total_deadline is not None:
            share = (total_deadline - now) / len(pending)
        still = []
        for prop in pending:
            t0 = time.perf_counter()
            deadline = None if share is None else \
                min(t0 + share, total_deadline)
            out = _attempt(enc, model, prop, k, next_frame, deadline,
                           dump_cnf)
            spent[prop.name] += time.perf_counter() - t0
            if out is None:
                still.append(prop)
            else:
                run.outcomes[prop.name] = PropertyOutcome(
                    out.prop, out.status, bound=out.bound, frame=out.frame,
                    trace=out.trace, reason=out.reason,
                    elapsed=spent[prop.name])
        pending = still
        if share is None:
            break  # unbounded: one pass resolves everything

    run.elapsed = time.perf_counter() - start
    run.n_vars = enc.solver.num_vars
    run.n_clauses = enc.n_clauses
    run.n_conflicts = enc.solver.n_conflicts
    return run


def _attempt(enc: Unroller, model: FlatModel, prop: PropertyAst, k: int,
             next_frame: dict[str, int], deadline: float | None,
             dump_cnf: str | None) -> PropertyOutcome | None:
    """Run one budget slice; None means still unresolved."""
    enc.deadline = deadline
    try:
        while next_frame[prop.name] <= k:
            f = next_frame[prop.name]
            if deadline is not None and time.perf_counter() > deadline:
                return None
            viol = _violation_lit(enc, model, prop, f)
            if viol == enc.FALSE:
                next_frame[prop.name] = f + 1
                continue
            res = enc.solver.solve([viol] if viol != enc.TRUE else [],
                                   deadline)
            if res == "timeout":
                return None
            if res == "unsat":
                next_frame[prop.name] = f + 1
                continue
            trace = _extract_trace(enc, model, prop.name, f)
            _maybe_dump(enc, prop.name, dump_cnf)
            if not replay_counterexample(model, prop, trace):
                raise SemiformError(
                    f"counterexample for {prop.name} at frame {f} does not "
                    "replay in simulation")
            return PropertyOutcome(prop.name, "FAIL", frame=f, trace=trace)
    except _EncodeTimeout:
        return None
    finally:
        enc.deadline = None
    _maybe_dump(enc, prop.name, dump_cnf)
    return PropertyOutcome(prop.name, "PASS", bound=k)


def _maybe_dump(enc: Unroller, prop_name: str, dump_cnf: str | None):
    if dump_cnf is None or enc.problem is None:
        return
    os.makedirs(dump_cnf, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", prop_name)
    path = os.path.join(dump_cnf, safe + ".cnf")
    with open(path, "w") as fh:
        fh.write(export_dimacs(Cnf(enc.solver.num_vars, tuple(enc.problem))))


def _extract_trace(enc: Unroller, model: FlatModel, prop: str,
                   frame: int) -> CexTrace:
    nets = sorted(set(model.inputs) | enc.cut_value | set(enc.assume_bits)
                  | set(model.free_inputs))
    nets = [n for n in nets if not n.endswith("!k")]
    rows = []
    mv = enc.solver.model_value
    for t in range(frame + 1):
        row = []
        for n in nets:
            vlit = enc.memo.get((n, t))
            if vlit is None:
                row.append(2)
                continue
            klit = enc.memo.get((enc.dual.known_of[n], t))
            known = True if klit is None else mv(klit)
            row.append(int(mv(vlit)) if known else 2)
        rows.append(tuple(row))
    return CexTrace(prop, frame, tuple(nets), tuple(rows))


def format_trace(trace: CexTrace) -> str:
    lines = [f"property {trace.prop} violated at frame {trace.frame}"]
    for t, row in enumerate(trace.frames):
        shown = []
        for n, v in zip(trace.nets, row):
            shown.append(f"{n}={'x' if v == 2 else v}")
        lines.append(f"  frame {t}: " + " ".join(shown))
    return "\n".join(lines)


def replay_counterexample(model: FlatModel, prop: PropertyAst,
                          trace: CexTrace) -> bool:
    """Re-run the trace in simulation; True if the violation reproduces."""
    s = simlib.Simulator(model)
    for t, row in enumerate(trace.frames):
        drive = {n: v for n, v in zip(trace.nets, row)}
        frame = s.step(drive)
        if t == trace.frame:
            return simlib.violated_at(model, frame, prop, t)
    return False
