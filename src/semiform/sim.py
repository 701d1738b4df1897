"""Three-valued cycle-accurate simulation of a FlatModel.

The simulator drives an ESW transaction script through the design's bus
decoder description, watching for points of interest (script statements
that touch ranked registers) and capturing fully-known register values.
State is one byte per net, 0, 1 or 2 for X, held in a `bytearray`; each
cycle settles through `kernels.eval_comb` with pessimistic X-propagation,
and `step` returns the settled frame as an immutable `bytes` snapshot.

Bus model: one statement per cycle.  A write forces the matched range's
address/data/enable nets for that cycle; all other ranges idle at zero.
Nets forced this way override their hardware drivers for the cycle, the
usual testbench force semantics.
"""

from __future__ import annotations

from . import kernels
from .errors import BusDecodeError, SemiformError, UnknownRegister
from .frontend import EswScript, RegisterMap
from .kernels import X
from .netlist import Design, FlatModel


def set_pois(regmap: RegisterMap, ranked: list[str],
             script: EswScript) -> dict[int, tuple[int, int, str]]:
    """Watch every script access whose address maps to a ranked register.

    Maps each watched statement's index to its `(statement, address,
    register)` PoI.
    """
    known = set(regmap.registers())
    for r in ranked:
        if r not in known:
            raise UnknownRegister(f"{r} is not in the register map")
    ranked_set = set(ranked)
    pois = {}
    for i, _, addr in script.accesses():
        reg = regmap.register_at(addr)
        if reg in ranked_set:
            pois[i] = (i, addr, reg)
    return pois


class Simulator:
    """Stateful simulation session over one immutable model."""

    def __init__(self, model: FlatModel, design: Design | None = None,
                 script: EswScript | None = None, trace_path=None):
        self.model = model
        self.design = design
        self.script = script
        self.cm = model.compile()
        self.values = bytearray([X]) * len(model.nets)
        self.frame = bytes(self.values)  # pre-latch snapshot of last cycle
        self.locked = bytearray(len(model.nets))
        self._forced: tuple[int, ...] = ()  # nets locked last cycle
        self.cycle = 0
        self.script_pc = 0
        self.warnings: list = []
        self._trace_path = trace_path
        self._trace_file = None
        self._trace_last = None
        for i, v in zip(self.cm.const_idx, self.cm.const_val):
            self.values[i] = v
        for i, v in zip(self.cm.dff_q, self.cm.dff_init):
            self.values[i] = v
        self._ranges = self._resolve_ranges() if design is not None else []
        self._reset_bits = None
        if design is not None and design.bus.reset:
            self._reset_bits = self._resolve_ref(design.bus.reset)

    # -- bus plumbing --------------------------------------------------------

    def _resolve_ref(self, ref: str) -> list[int]:
        """Net indices for a bus ref ('inst.port' or top port), LSB first.

        `elaborate` has raised for a ref that names no top port or port
        (`netlist._check_bus_refs`), and every port bit of an instance
        it keeps is a net of the model.
        """
        index = self.model.index
        return [index[b] for b in self.model.signal_bits(ref)]

    def _resolve_ranges(self):
        return [(r, (self._resolve_ref(r.addr_ref),
                     self._resolve_ref(r.wdata_ref),
                     self._resolve_ref(r.we_ref)))
                for r in self.design.bus.ranges]

    # -- core stepping -------------------------------------------------------

    def step(self, drive: dict[str, int] | None = None):
        """One cycle: force nets, settle combinational logic, latch flops.

        `drive` maps nets of `model.nets` to the values forced on them.
        Returns the settled pre-latch frame.
        """
        index = self.model.index
        return self._step_indices({index[net]: val
                                   for net, val in (drive or {}).items()})

    def _bus_drive(self, stmt) -> dict[str, int]:
        drive: dict[int, int] = {}

        def put(indices, value, width):
            for i, idx in enumerate(indices):
                drive[idx] = (value >> i) & 1 if i < width else 0

        rst = 1 if stmt[0] == "reset" else 0
        if self._reset_bits:
            put(self._reset_bits, rst, 1)
        target = None
        if stmt[0] in ("write", "read"):
            target = self.design.bus.range_for(stmt[1])
            if target is None:
                self.warnings.append(BusDecodeError(
                    f"access to 0x{stmt[1]:x} hits no bus range (cycle {self.cycle})"))
        for r, (addr_i, wdata_i, we_i) in self._ranges:
            if target is not None and r is target:
                offset = stmt[1] - r.base
                put(addr_i, offset, len(addr_i))
                if stmt[0] == "write":
                    put(wdata_i, stmt[2], len(wdata_i))
                    put(we_i, 1, 1)
                else:
                    put(wdata_i, 0, len(wdata_i))
                    put(we_i, 0, 1)
            else:
                put(addr_i, 0, len(addr_i))
                put(wdata_i, 0, len(wdata_i))
                put(we_i, 0, 1)
        return drive

    def _step_indices(self, drive: dict[int, int]):
        cm = self.cm
        values, locked = self.values, self.locked
        for idx in self._forced:
            locked[idx] = 0
        for idx, val in drive.items():
            values[idx] = val
            locked[idx] = 1
        self._forced = tuple(drive)
        kernels.eval_comb(cm.gates, values, locked)
        frame = self.frame = bytes(values)
        if self._trace_path is not None:
            self._dump_trace_cycle()
        for q, d in zip(cm.dff_q, cm.dff_d):
            values[q] = frame[d]
        self.cycle += 1
        return frame

    def run_statement(self):
        """Execute script statement at pc (1..n cycles); advances pc."""
        stmt = self.script.statements[self.script_pc]
        cycles = stmt[1] if stmt[0] in ("reset", "wait") else 1
        drive = self._bus_drive(stmt)
        for _ in range(cycles):
            self._step_indices(drive)
        self.script_pc += 1

    # -- observation ---------------------------------------------------------

    def register_value(self, register: str):
        """Concrete register value from current state, or None if any bit X."""
        bits = self.model.registers.get(register)
        if bits is None:
            raise UnknownRegister(f"no register {register}")
        v = 0
        for i, b in enumerate(bits):
            bit = self.values[self.model.index[b]]
            if bit == X:
                return None
            v |= bit << i
        return v

    def _dump_trace_cycle(self):
        if self._trace_file is None:
            self._trace_file = open(self._trace_path, "w")
            self._trace_last = b"\xff" * len(self.frame)
        for i, (v, was) in enumerate(zip(self.frame, self._trace_last)):
            if v != was:
                self._trace_file.write(
                    f"{self.cycle} {self.model.nets[i]} {'x' if v == X else v}\n")
        self._trace_last = self.frame

    def close(self):
        if self._trace_file is not None:
            self._trace_file.close()
            self._trace_file = None


def run_until_poi(sim: Simulator, pois: dict[int, tuple[int, int, str]]):
    """Advance statement by statement until a PoI of `set_pois` completes.

    Returns the PoI that fired, or None when the script ends first.
    """
    while sim.script_pc < len(sim.script.statements):
        pc = sim.script_pc
        sim.run_statement()
        if pc in pois:
            return pois[pc]
    return None


def collect_sim_values(sim: Simulator, registers: list[str]) -> dict[str, int]:
    """Fully-known register values at the current pause point, by name;
    registers with an X bit are left out."""
    out = {}
    for r in registers:
        v = sim.register_value(r)
        if v is not None:
            out[r] = v
    return out


# ---------------------------------------------------------------------------
# three-valued property evaluation over a frame of net values


def sig_nets(model: FlatModel, e) -> tuple[str, ...]:
    """The nets a `("sig", name, index)` leaf reads, named as in
    `model.nets`."""
    bits = model.signal_bits(e[1])
    return bits if e[2] is None else (bits[e[2]],)


def check_prop_nets(model: FlatModel, prop) -> list[str]:
    """The nets `prop` reads; SemiformError when one is not in `model.nets`.

    `model.nets` leaves out a declared wire that no gate drives or reads.
    """
    nets, todo = [], [prop.expr]
    while todo:
        e = todo.pop()
        if e[0] == "sig":
            nets.extend(sig_nets(model, e))
        elif e[0] != "int":
            todo.extend(e[1:])
    for net in nets:
        if net not in model.index:
            raise SemiformError(f"property {prop.name} reads net {net}, "
                                "which nothing drives or reads")
    return nets


def _bits3(model: FlatModel, frame, e):
    return [frame[model.index[net]] for net in sig_nets(model, e)]


_AND = kernels.AND3
_OR = kernels.OR3
_NOT = kernels.NOT3
_XOR = kernels.XOR3


def eval_expr3(model: FlatModel, frame, expr) -> int:
    """Evaluate a property expression to 0, 1, or X on one cycle's values.

    `("known", sig)` is 1 when no bit of `sig` is X, else 0.
    """

    def ev(e) -> int:
        k = e[0]
        if k == "int":
            return e[1]
        if k == "sig":
            return _bits3(model, frame, e)[0]
        if k == "not":
            return _NOT[ev(e[1])]
        if k == "and":
            return _AND[ev(e[1]) * 3 + ev(e[2])]
        if k == "or":
            return _OR[ev(e[1]) * 3 + ev(e[2])]
        if k == "imp":
            return _OR[_NOT[ev(e[1])] * 3 + ev(e[2])]
        if k in ("eq", "ne"):
            a, b = e[1], e[2]
            if a[0] == "int":
                a, b = b, a
            abits = _bits3(model, frame, a)
            if b[0] == "int":
                bbits = [(b[1] >> i) & 1 for i in range(len(abits))]
            else:
                bbits = _bits3(model, frame, b)
            acc = 1
            for x, y in zip(abits, bbits):
                acc = _AND[acc * 3 + _NOT[_XOR[x * 3 + y]]]
            return acc if k == "eq" else _NOT[acc]
        if k == "known":
            return int(X not in _bits3(model, frame, e[1]))
        raise AssertionError(k)

    return ev(expr)


def violated_at(model: FlatModel, frame, prop, cycle: int) -> bool:
    """A property is violated at a cycle from its `settle` on where it
    evaluates to a definite 0, not merely X."""
    check_prop_nets(model, prop)
    return cycle >= prop.settle and eval_expr3(model, frame, prop.expr) == 0
