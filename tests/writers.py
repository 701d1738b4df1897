"""Writers for the netlist, design, register map and script formats.

Each writes text that `semiform.frontend`'s parser for that format reads
back to an equal object; the parser round-trip tests use them.  The
checker itself writes only properties (`frontend.serialize_props`).
"""

from semiform.frontend import EswScript, RegisterMap
from semiform.netlist import Design, IpNetlist


def serialize_netlist(ip: IpNetlist) -> str:
    out = [f".module {ip.name}"]
    for p in ip.ports:
        out.append(f".{'input' if p.direction == 'in' else 'output'} {p.name} {p.width}")
    for w, width in ip.wires.items():
        out.append(f".wire {w} {width}")
    for r in ip.registers:
        init = "" if r.init is None else f" init=0x{r.init:x}"
        if r.init is None:
            init = " init=x"
        out.append(f".reg {r.name} {r.width}{init}")
    for n in ip.nodes:
        if n.kind == "CONST":
            out.append(f".const {n.output} {n.value}")
        elif n.kind != "DFF":
            out.append(f".gate {n.kind} {n.output} {' '.join(n.inputs)}")
    for r in ip.registers:
        head = [n for n in ip.nodes if n.kind == "DFF" and n.output == r.bits[0]]
        node = head[0]
        if node.inputs[0] == r.bits[0] and node.en is None and node.rst is None:
            continue  # implicit hold register
        d0 = node.inputs[0]
        dsig = d0[: d0.index("[")] if "[" in d0 else d0
        parts = [f".dff {r.name} {dsig}"]
        if node.en:
            parts.append(f"en={node.en}")
        if node.rst:
            rv = 0
            for i, b in enumerate(r.bits):
                nd = next(n for n in ip.nodes if n.kind == "DFF" and n.output == b)
                rv |= (nd.rstval or 0) << i
            parts.append(f"rst={node.rst}")
            parts.append(f"rstval=0x{rv:x}")
        out.append(" ".join(parts))
    out.append(".endmodule")
    return "\n".join(out) + "\n"


def serialize_design(d: Design) -> str:
    out = [f".design {d.name}"]
    for inst, mod in d.instances:
        out.append(f".instance {mod} {inst}")
    for ia, pa, ib, pb in d.connects:
        out.append(f".connect {ia}.{pa} {ib}.{pb}")
    for tp, inst, port in d.tops:
        out.append(f".top {tp} {inst}.{port}")
    if d.bus.reset:
        out.append(f".bus reset {d.bus.reset}")
    for r in d.bus.ranges:
        out.append(f".bus range 0x{r.base:x} 0x{r.size:x} "
                   f"addr={r.addr_ref} wdata={r.wdata_ref} we={r.we_ref}")
    return "\n".join(out) + "\n"


def serialize_regmap(rm: RegisterMap) -> str:
    return "".join(f"0x{a:x} {r}\n" for a, r in rm.entries)


def serialize_esw(s: EswScript) -> str:
    out = []
    for st in s.statements:
        if st[0] == "write":
            out.append(f"write 0x{st[1]:x} 0x{st[2]:x}")
        elif st[0] == "read":
            out.append(f"read 0x{st[1]:x}")
        else:
            out.append(f"{st[0]} {st[1]}")
    return "\n".join(out) + "\n"
