"""Bit-level netlist IR: per-IP netlists, designs, and the flattened model.

Everything downstream (simulation, SAT encoding, register ranking) works on
the `FlatModel` produced by `elaborate`.  Nets are plain strings; inside an
IP they are `name` or `name[i]`, after elaboration `inst.name[i]`.  Multi-bit
signals are blasted to one net per bit at parse time, so gates are always
single-bit.

Bits that connections and top ports join share one flat net, named by its
driver, else by a top port bit, else by the smallest name in the group.
Only those names appear in the model: `signals` and `registers` map each
signal and register to them, so a reader looks a name up there and never
translates a net.

A flat net's integer id is its place in the sorted `model.nets`, looked up
in `model.index`.  `model.compile()` lowers the model to these ids once,
when it is elaborated: its gates in one topological order (an iterative
depth-first search, where a combinational cycle raises), its flops and
constants and, built on first use, each net's readers.  The simulator,
the dual-rail encoder and the forward walks of `fanout_cone` and
`bmc._unmark` all read this one form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import (
    CombinationalLoop,
    MultipleDrivers,
    SemiformError,
    UnknownInstance,
    UnknownModule,
    UnknownRegister,
    WidthMismatch,
)

# Gate basis.  MUX(sel, a, b) = a when sel else b.
GATE_ARITY = {"AND": 2, "OR": 2, "XOR": 2, "NOT": 1, "MUX": 3}
COMB_KINDS = ("AND", "OR", "XOR", "NOT", "MUX")
KIND_CODE = {k: i for i, k in enumerate(COMB_KINDS)}  # bmc's codes too

X = 2  # three-valued unknown


def bit_nets(name: str, width: int) -> tuple[str, ...]:
    """Net names for a declared signal: bare name when 1 bit wide."""
    if width == 1:
        return (name,)
    return tuple(f"{name}[{i}]" for i in range(width))


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    width: int


@dataclass(frozen=True)
class RegisterDecl:
    name: str
    width: int
    bits: tuple[str, ...]
    init: int | None  # None means unknown at power-up


class Node(NamedTuple):
    """One gate, constant, or flop.  `inputs` are net names.

    DFF nodes carry `init` (0/1/None) and, before desugaring, optional
    `en`/`rst` control nets with a per-bit `rstval`.
    """

    kind: str
    output: str
    inputs: tuple[str, ...] = ()
    value: int | None = None  # CONST only
    init: int | None = None  # DFF only
    en: str | None = None
    rst: str | None = None
    rstval: int | None = None


class IpNetlist:
    """A single module: ports, wires, registers, and gates."""

    def __init__(self, name, ports, wires, registers, nodes):
        self.name: str = name
        self.ports: tuple[Port, ...] = tuple(ports)
        self.wires: dict[str, int] = dict(wires)
        self.registers: tuple[RegisterDecl, ...] = tuple(registers)
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.signal_widths: dict[str, int] = {}
        for p in self.ports:
            self.signal_widths[p.name] = p.width
        for w, width in self.wires.items():
            self.signal_widths[w] = width
        for r in self.registers:
            self.signal_widths[r.name] = r.width
        self._validate()

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise UnknownInstance(f"module {self.name} has no port {name}")

    def _validate(self):
        # `parse_netlist` has checked arity and that every net is declared
        drivers: dict[str, str] = {}
        for p in self.ports:
            if p.direction == "in":
                for b in bit_nets(p.name, p.width):
                    drivers[b] = "port"
        for n in self.nodes:
            if n.output in drivers:
                raise MultipleDrivers(
                    f"{self.name}: net {n.output} driven by {drivers[n.output]} and {n.kind}")
            drivers[n.output] = n.kind
        _comb_order(self.nodes, f"{self.name}: ")


@dataclass(frozen=True)
class BusRange:
    base: int
    size: int
    addr_ref: str  # "inst.port" or bare top port
    wdata_ref: str
    we_ref: str

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


@dataclass
class BusSpec:
    """A design's bus: the reset net and the address range of each slave.

    `parse_design` checks that each range gives `addr=`, `wdata=` and
    `we=` once each; `elaborate` checks that every ref names a top port
    or a port of a declared instance's module.  Which register sits at
    which address is the `.map` file's (`frontend.parse_regmap`).
    """

    reset: str | None = None
    ranges: list[BusRange] = field(default_factory=list)

    def range_for(self, addr: int) -> BusRange | None:
        for r in self.ranges:
            if r.contains(addr):
                return r
        return None


@dataclass
class Design:
    name: str
    instances: list[tuple[str, str]]  # (instance, module), declaration order
    connects: list[tuple[str, str, str, str]]  # instA, portA, instB, portB
    tops: list[tuple[str, str, str]]  # top port, instance, port
    bus: BusSpec = field(default_factory=BusSpec)

    def module_of(self, inst: str) -> str:
        for i, m in self.instances:
            if i == inst:
                return m
        raise UnknownInstance(f"design {self.name} has no instance {inst}")

    def instance_names(self) -> list[str]:
        return [i for i, _ in self.instances]


def list_unique_ips(design: Design) -> list[str]:
    """Module names appearing in the design, deduplicated, sorted."""
    return sorted({m for _, m in design.instances})


def instance_ips(design: Design,
                 library: dict[str, IpNetlist]) -> dict[str, IpNetlist]:
    """Each instance of `design`, in declaration order, mapped to its
    module's netlist; an instance whose module `library` lacks raises
    `UnknownModule`."""
    out = {}
    for inst, mod in design.instances:
        if mod not in library:
            raise UnknownModule(
                f"instance {inst} references unknown module {mod}")
        out[inst] = library[mod]
    return out


def connection_scores(design: Design,
                      library: dict[str, IpNetlist]) -> dict[str, int]:
    """Total width of each instance's ports bound to inter-instance nets.

    Each port counts once no matter how many connections touch it.
    """
    bound: dict[str, set[str]] = {i: set() for i in design.instance_names()}
    for ia, pa, ib, pb in design.connects:
        bound[ia].add(pa)
        bound[ib].add(pb)
    return {inst: sum(ip.port(p).width for p in bound[inst])
            for inst, ip in instance_ips(design, library).items()}


def rank_ips_by_connection(design: Design, library: dict[str, IpNetlist]) -> list[str]:
    """Instances ordered by connected-port width; ties break on name."""
    scores = connection_scores(design, library)
    return sorted(scores, key=lambda i: (-scores[i], i))


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x, p = p, self.parent[p]
        return x

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass
class CompiledModel:
    """A flat model over net ids, each a net's place in `FlatModel.nets`.

    `gates` are in topological order, each kind coded by `KIND_CODE`
    with unused inputs 0; a flop `i` drives `dff_q[i]` from `dff_d[i]`,
    and a constant sets `const_idx[i]` to `const_val[i]`.
    """

    n_nets: int
    gates: tuple[tuple[int, int, int, int, int], ...]  # (kind, a, b, c, out)
    dff_q: tuple[int, ...]
    dff_d: tuple[int, ...]
    dff_init: tuple[int, ...]  # 2 = unknown
    const_idx: tuple[int, ...]
    const_val: tuple[int, ...]

    @cached_property
    def readers(self) -> list[list[int]]:
        """For each net id, the ids of the nets driven by the gates and
        flops that read it, one entry per input read (`AND x x` gives
        two); built on first use."""
        readers: list[list[int]] = [[] for _ in range(self.n_nets)]
        arity = [GATE_ARITY[k] for k in COMB_KINDS]  # by kind code
        for k, *ins, o in self.gates:
            for i in ins[:arity[k]]:
                readers[i].append(o)
        for q, d in zip(self.dff_q, self.dff_d):
            readers[d].append(q)
        return readers


class FlatModel:
    """Flattened design: one namespace of nets, pure DFFs, gate basis only.

    `signals` maps each signal (`inst.name` or a top port) to its bits,
    LSB first, and `registers` each register to the same tuple as
    `signals`.  Each bit is named as its net is in `nets`, the only name
    a reader looks up; `nets` leaves out a declared wire that no gate
    drives or reads.
    """

    def __init__(self, name, instances, nodes, node_instance, registers,
                 inputs, outputs, signals):
        self.name: str = name
        self.instances: tuple[str, ...] = tuple(instances)
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.node_instance: tuple[str, ...] = tuple(node_instance)
        self.registers: dict[str, tuple[str, ...]] = dict(registers)
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self.signals: dict[str, tuple[str, ...]] = dict(signals)
        nets: set[str] = set(self.inputs)
        nets.update(self.outputs)
        for n in self.nodes:
            nets.add(n.output)
            nets.update(n.inputs)
        self.nets: tuple[str, ...] = tuple(sorted(nets))
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.nets)}
        self._compiled: CompiledModel | None = None
        self.dual = None  # `bmc.xprop_encode(self)`, set by `bmc.check`

    # -- naming ------------------------------------------------------------

    def signal_bits(self, signal: str) -> tuple[str, ...]:
        if signal in self.signals:
            return self.signals[signal]
        raise UnknownRegister(f"model {self.name} has no signal {signal}")

    # -- the model over net ids --------------------------------------------

    def compile(self) -> CompiledModel:
        """The model over net ids, lowered once (see `CompiledModel`)."""
        if self._compiled is not None:
            return self._compiled
        index = self.index

        def pick(n: Node, j: int) -> int:
            return index[n.inputs[j]] if j < len(n.inputs) else 0
        gates = tuple((KIND_CODE[n.kind], pick(n, 0), pick(n, 1), pick(n, 2),
                       index[n.output]) for n in _comb_order(self.nodes))

        dffs = [n for n in self.nodes if n.kind == "DFF"]
        consts = [n for n in self.nodes if n.kind == "CONST"]
        self._compiled = CompiledModel(
            n_nets=len(self.nets),
            gates=gates,
            dff_q=tuple(index[n.output] for n in dffs),
            dff_d=tuple(index[n.inputs[0]] for n in dffs),
            dff_init=tuple(X if n.init is None else n.init for n in dffs),
            const_idx=tuple(index[n.output] for n in consts),
            const_val=tuple(n.value for n in consts))
        return self._compiled


def _desugar_dff(node: Node, inst: str, fresh: list[Node]) -> Node:
    """Rewrite enable/reset controls into MUX gates feeding a plain DFF."""
    d = node.inputs[0]
    q = node.output
    if node.en is not None:
        en_net = f"{q}$en"
        fresh.append(Node("MUX", en_net, (node.en, d, q)))
        d = en_net
    if node.rst is not None:
        cnet = f"{q}$rv"
        fresh.append(Node("CONST", cnet, value=node.rstval))
        rnet = f"{q}$rst"
        fresh.append(Node("MUX", rnet, (node.rst, cnet, d)))
        d = rnet
    return Node("DFF", q, (d,), init=node.init)


def _check_bus_refs(design: Design, ips: dict[str, IpNetlist]):
    """Raise on a `.bus reset` or `.bus range` ref that names no top port,
    no declared instance or no port of that instance's module: the
    simulator would leave what it drives undriven without a word."""
    bus = design.bus
    refs = [("reset ", bus.reset)] if bus.reset else []
    for r in bus.ranges:
        refs += [(f"range 0x{r.base:x} {key}=", ref) for key, ref in
                 (("addr", r.addr_ref), ("wdata", r.wdata_ref),
                  ("we", r.we_ref))]
    tops = {tp for tp, _, _ in design.tops}
    for what, ref in refs:
        inst, dot, port = ref.partition(".")
        if not dot:
            if ref not in tops:
                raise SemiformError(f".bus {what}{ref} names no top port")
        elif inst not in ips:
            raise SemiformError(f".bus {what}{ref} names no declared "
                                "instance")
        elif all(p.name != port for p in ips[inst].ports):
            raise SemiformError(f".bus {what}{ref}: module "
                                f"{design.module_of(inst)} has no port {port}")


def elaborate(design: Design, library: dict[str, IpNetlist],
              keep: set[str] | None = None) -> FlatModel:
    """Flatten `design` against `library`.

    `keep` restricts the model to a subset of instances; connections to
    dropped instances turn inputs into unconstrained model inputs and
    outputs into observable model outputs.  Each instance's module and
    each bus ref are checked against the whole design whatever `keep` is.
    """
    ips = instance_ips(design, library)
    _check_bus_refs(design, ips)
    inst_names = [i for i in ips if keep is None or i in keep]
    present = set(inst_names)
    if keep is not None and keep - present:
        raise UnknownInstance(f"unknown instances {sorted(keep - present)}")

    uf = _UnionFind()

    def port_bits(inst: str, port: str) -> tuple[str, ...]:
        p = ips[inst].port(port)
        return tuple(f"{inst}.{b}" for b in bit_nets(p.name, p.width))

    for ia, pa, ib, pb in design.connects:
        in_a, in_b = ia in present, ib in present
        if not in_a and not in_b:
            continue
        wa = ips[ia].port(pa).width
        wb = ips[ib].port(pb).width
        if wa != wb:
            raise WidthMismatch(
                f"connect {ia}.{pa}({wa}) to {ib}.{pb}({wb})")
        if in_a and in_b:
            for x, y in zip(port_bits(ia, pa), port_bits(ib, pb)):
                uf.union(x, y)

    top_ports: dict[str, list[tuple[str, str]]] = {}
    for tp, inst, port in design.tops:
        if inst not in present:
            continue
        top_ports.setdefault(tp, []).append((inst, port))
    top_width: dict[str, int] = {}
    for tp, binds in top_ports.items():
        widths = {ips[i].port(p).width for i, p in binds}
        if len(widths) != 1:
            raise WidthMismatch(f"top port {tp} binds differing widths {sorted(widths)}")
        w = widths.pop()
        top_width[tp] = w
        for i, p in binds:
            for x, y in zip(bit_nets(tp, w), port_bits(i, p)):
                uf.union(x, y)

    # Identify internally driven bits to pick canonical names.
    driven: set[str] = set()
    for inst in inst_names:
        for n in ips[inst].nodes:
            driven.add(f"{inst}.{n.output}")
    top_is_input = {
        tp: all(ips[i].port(p).direction == "in" for i, p in binds)
        for tp, binds in top_ports.items()
    }
    top_bits_all: set[str] = set()
    for tp, w in top_width.items():
        top_bits_all.update(bit_nets(tp, w))

    def canonical_of(group: list[str]) -> str:
        drv = sorted(b for b in group if b in driven)
        if len(drv) > 1:
            raise MultipleDrivers(f"net group {sorted(group)} has drivers {drv}")
        if drv:
            return drv[0]
        tops = sorted(b for b in group if b in top_bits_all)
        if tops:
            return tops[0]
        return min(group)

    canon: dict[str, str] = {}
    for root, group in uf.groups().items():
        c = canonical_of(group)
        for g in group:
            canon[g] = c

    def cn(net: str) -> str:
        return canon.get(net, net)

    nodes: list[Node] = []
    node_instance: list[str] = []
    registers: dict[str, tuple[str, ...]] = {}
    signals: dict[str, tuple[str, ...]] = {}

    for inst in inst_names:
        ip = ips[inst]
        for sig, width in ip.signal_widths.items():
            signals[f"{inst}.{sig}"] = tuple(
                cn(f"{inst}.{b}") for b in bit_nets(sig, width))
        fresh: list[Node] = []
        for n in ip.nodes:
            ren = Node(
                n.kind,
                cn(f"{inst}.{n.output}"),
                tuple(cn(f"{inst}.{i}") for i in n.inputs),
                value=n.value, init=n.init,
                en=cn(f"{inst}.{n.en}") if n.en else None,
                rst=cn(f"{inst}.{n.rst}") if n.rst else None,
                rstval=n.rstval)
            if ren.kind == "DFF":
                ren = _desugar_dff(ren, inst, fresh)
            nodes.append(ren)
            node_instance.append(inst)
        for f in fresh:
            nodes.append(f)
            node_instance.append(inst)
        for r in ip.registers:
            registers[f"{inst}.{r.name}"] = signals[f"{inst}.{r.name}"]

    inputs: set[str] = set()
    outputs: list[str] = []
    for tp, w in top_width.items():
        bits = tuple(cn(b) for b in bit_nets(tp, w))
        signals[tp] = bits
        if top_is_input[tp]:
            inputs.update(bits)
        else:
            outputs.extend(bits)

    # Undriven input-port bits are free model inputs; output-port bits not
    # consumed by a present instance or top binding are observable.
    driven_canon = {n.output for n in nodes}
    for inst in inst_names:
        for p in ips[inst].ports:
            if p.direction != "in":
                continue
            for b in bit_nets(p.name, p.width):
                c = cn(f"{inst}.{b}")
                if c not in driven_canon:
                    inputs.add(c)
    bound_outputs: set[str] = set()
    for ia, pa, ib, pb in design.connects:
        if ia in present and ib in present:
            bound_outputs.update(port_bits(ia, pa))
            bound_outputs.update(port_bits(ib, pb))
    for tp, binds in top_ports.items():
        for i, p in binds:
            bound_outputs.update(port_bits(i, p))
    for inst in inst_names:
        for p in ips[inst].ports:
            if p.direction != "out":
                continue
            for b in port_bits(inst, p.name):
                if b not in bound_outputs:
                    outputs.append(cn(b))

    model = FlatModel(
        name=design.name, instances=inst_names,
        nodes=nodes, node_instance=node_instance,
        registers=registers, inputs=sorted(inputs),
        outputs=sorted(set(outputs)), signals=signals)
    model.compile()  # a cycle raises here
    return model


def _comb_order(nodes, where: str = "") -> tuple[Node, ...]:
    """The gates among `nodes`, each after the gates that drive it.

    Iterative depth-first search, so deep chains do not reach the
    recursion limit.  Raises CombinationalLoop on a cycle; `where`
    prefixes the message.
    """
    comb = {n.output: n for n in nodes if n.kind in COMB_KINDS}
    state: dict[str, int] = {}  # 1 on the DFS path, 2 finished
    order: list[Node] = []
    for start in comb:
        if start in state:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        while stack:
            net, idx = stack.pop()
            node = comb[net]
            state[net] = 1
            for j in range(idx, len(node.inputs)):
                nxt = node.inputs[j]
                if nxt in comb:
                    if state.get(nxt) == 1:
                        raise CombinationalLoop(
                            f"{where}combinational cycle through {nxt}")
                    if nxt not in state:
                        stack.append((net, j + 1))
                        stack.append((nxt, 0))
                        break
            else:
                state[net] = 2
                order.append(node)
    return tuple(order)


@dataclass(frozen=True)
class FanoutCone:
    """Forward cone of a register: reached elements plus output path count."""

    elements: tuple[int, ...]  # ids of the nets the reached nodes drive
    paths: int


def fanout_cone(model: FlatModel, register: str) -> FanoutCone:
    """Everything reachable from a register's outputs.

    Elements are counted once each; traversal continues through other
    registers' flops.  Paths run through combinational logic only and end
    at a primary output or at another register's data input.  Each node
    drives one net, so the walk goes over net ids in `model.compile()`'s
    readers, and an element is the id of the net its node drives.
    """
    bits = model.registers.get(register)
    if bits is None:
        raise UnknownRegister(f"no register {register} in {model.name}")
    cm = model.compile()
    readers, index = cm.readers, model.index
    starts = [index[b] for b in bits]
    flops = set(cm.dff_q)
    own_flops = flops.intersection(starts)
    outputs = {index[o] for o in model.outputs}

    # element reach: cross every flop but the register's own
    seen: set[int] = set()
    elements: set[int] = set()
    work = starts.copy()
    while work:
        v = work.pop()
        if v in seen:
            continue
        seen.add(v)
        for r in readers[v]:
            if r not in own_flops:
                elements.add(r)
                work.append(r)

    # path count: combinational DP, per connection edge
    def path_count(v: int) -> int:
        total = int(v in outputs)
        for r in readers[v]:
            if r not in flops:
                total += paths[r]
            elif r not in own_flops:
                total += 1
        return total

    # gates in reverse topological order, so each reads settled readers;
    # flops reached across boundaries do not restart path counting
    paths: dict[int, int] = {}
    for *_, o in reversed(cm.gates):
        if o in seen:
            paths[o] = path_count(o)
    total_paths = sum(path_count(v) for v in starts)
    return FanoutCone(elements=tuple(sorted(elements)), paths=total_paths)
