#!/usr/bin/env python3
"""Generate the demo SoC corpus used by the tests and the README walkthrough.

Four IPs (cpu, ram, can, ethmac) hang off a little register bus.  Each
bus-facing IP carries parity-contradiction blocks (odd-charged Tseitin
graphs over captured write-data history) that are UNSAT by construction
but far beyond what a clause-learning solver refutes in seconds.  Each
block is gated by a config-register compare against a magic value the
boot script never writes, so pinning that register collapses the block
to a constant and the property proves instantly.  That contrast is the
whole point of the corpus.

The script also sanity-checks what it wrote: connectivity ranking,
influence-rank order per IP, simulation capture, gating collapse under
pinning, and the structural UNSAT argument for every parity block
(4-regular graph, odd total charge).

Usage: python tools/make_corpus.py [--out corpus] [--probe]
  --probe additionally confirms the blocks survive a 60s solve attempt
  (slow; run once after regenerating).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from semiform import bmc, sim, sra
from semiform.frontend import (gen_xprop, parse_design, parse_esw,
                               parse_netlist, parse_props, parse_regmap,
                               divide_props)
from semiform.netlist import (connection_scores, elaborate,
                              rank_ips_by_connection)


# ---------------------------------------------------------------------------
# netlist text builder


class Mod:
    def __init__(self, name: str):
        self.name = name
        self.lines = [f".module {name}"]
        self._fresh = 0

    def input(self, name, w=1):
        self.lines.append(f".input {name} {w}")

    def output(self, name, w=1):
        self.lines.append(f".output {name} {w}")

    def wire(self, name, w=1):
        self.lines.append(f".wire {name} {w}")

    def reg(self, name, w, init=0):
        self.lines.append(f".reg {name} {w} init={init}")

    def gate(self, kind, out, *ins):
        self.lines.append(f".gate {kind} {out} " + " ".join(ins))

    def const(self, name, bits):
        self.lines.append(f".const {name} {bits}")

    def dff(self, regname, d, en=None):
        s = f".dff {regname} {d}"
        if en:
            s += f" en={en}"
        self.lines.append(s)

    def fresh(self) -> str:
        self._fresh += 1
        n = f"n{self._fresh}"
        self.wire(n)
        return n

    def text(self) -> str:
        return "\n".join(self.lines + [".endmodule"]) + "\n"

    # expression helpers returning net names
    def buf(self, out, a):
        self.gate("OR", out, a, a)

    def not1(self, a):
        n = self.fresh()
        self.gate("NOT", n, a)
        return n

    def op2(self, kind, a, b):
        n = self.fresh()
        self.gate(kind, n, a, b)
        return n

    def mux(self, sel, a, b):
        n = self.fresh()
        self.gate("MUX", n, sel, a, b)
        return n

    def reduce(self, kind, nets):
        nets = list(nets)
        assert nets
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.op2(kind, nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def eq_const(self, bits, value):
        """1 iff the bit vector equals the constant."""
        terms = []
        for i, b in enumerate(bits):
            terms.append(b if (value >> i) & 1 else self.not1(b))
        return self.reduce("AND", terms)


def bits(name, w):
    return [name if w == 1 else f"{name}[{i}]" for i in range(w)]


# ---------------------------------------------------------------------------
# parity-contradiction blocks


def random_regular_graph(v, d, rng):
    while True:
        stubs = [x for x in range(v) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if not ok:
            continue
        # hardness needs one odd-charged connected component
        seen = {0}
        work = [0]
        adj = {x: [] for x in range(v)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        while work:
            for nb in adj[work.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    work.append(nb)
        if len(seen) == v:
            return sorted(edges)


def parity_block(m: Mod, inputs, v, seed):
    """AND over all vertex parity checks of an odd-charged graph.

    The output is identically 0: summing every vertex equation counts
    each edge twice (0 mod 2) while the charges sum to 1.  Proving that
    without parity reasoning is exponentially hard for resolution.
    """
    rng = random.Random(seed)
    edges = random_regular_graph(v, 4, rng)
    assert len(edges) == len(inputs), (len(edges), len(inputs))
    deg = {}
    inc = {x: [] for x in range(v)}
    for i, (a, b) in enumerate(edges):
        inc[a].append(inputs[i])
        inc[b].append(inputs[i])
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert all(deg[x] == 4 for x in range(v))
    charges = [0] * v
    charges[rng.randrange(v)] = 1
    assert sum(charges) % 2 == 1
    oks = []
    for x in range(v):
        par = m.reduce("XOR", inc[x])
        oks.append(par if charges[x] else m.not1(par))
    return m.reduce("AND", oks)


# ---------------------------------------------------------------------------
# shared IP pieces


def config_regs(m: Mod, specs, addr_bits, wdata_bits, we):
    """specs: (name, width, offset).  Returns nothing; declares regs."""
    for name, w, off in specs:
        m.reg(name, w, init=0)
        sel = m.eq_const(addr_bits, off)
        en = m.op2("AND", sel, we)
        m.wire(f"{name}_d", w)
        for i in range(w):
            m.buf(f"{name}_d[{i}]" if w > 1 else f"{name}_d",
                  wdata_bits[i])
        m.dff(name, f"{name}_d", en=en)


def pad_tree(m: Mod, regname, w, count, port):
    """`count` separate single-gate routes from the register to a port."""
    m.output(port, count)
    r = m.reduce("OR", bits(regname, w))
    for p in range(count):
        m.buf(f"{port}[{p}]" if count > 1 else port, r)


def capture_rows(m: Mod, name, wdata_bits, width, rows=2):
    """Shift-in `rows` rows of xor-compressed write data each cycle."""
    total = rows * width
    m.reg(name, total, init=0)
    m.wire(f"{name}_d", total)
    for i in range(width):
        m.gate("XOR", f"{name}_d[{i}]", wdata_bits[i],
               wdata_bits[(i + 1) % len(wdata_bits)])
    for j in range(width, total):
        m.buf(f"{name}_d[{j}]", f"{name}[{j - width}]")
    m.dff(name, f"{name}_d")
    return bits(name, total)


def bus_ports(m: Mod):
    m.input("rst", 1)
    m.input("bus_addr", 8)
    m.input("bus_wdata", 32)
    m.input("bus_we", 1)


# ---------------------------------------------------------------------------
# the four IPs


def make_can():
    m = Mod("can")
    bus_ports(m)
    m.input("sel", 1)
    m.output("irq", 1)
    m.output("status", 13)
    m.output("brg_tx", 5)
    m.output("tx_active", 1)
    for p in ("bad_a", "bad_b", "bad_c", "sub2_bad"):
        m.output(p, 1)
    addr = bits("bus_addr", 8)
    wdata = bits("bus_wdata", 32)
    cfg = [("MODE", 3, 0x0), ("COMMAND", 4, 0x4), ("CLOCK_DIVIDER", 3, 0x8),
           ("BUS_TIMING0", 2, 0xc), ("BUS_TIMING1", 2, 0x10)]
    config_regs(m, cfg, addr, wdata, "bus_we")
    capta = capture_rows(m, "CAPTA", wdata, 29)
    captb = capture_rows(m, "CAPTB", wdata, 29)

    gate_a = m.eq_const(bits("MODE", 3), 5)
    gate_b = m.eq_const(bits("COMMAND", 4), 9)
    gate_c = m.eq_const(bits("MODE", 3), 6)
    gate_s2 = m.eq_const(bits("MODE", 3), 7)
    m.gate("AND", "bad_a", gate_a, parity_block(m, capta, 29, seed=101))
    m.gate("AND", "bad_b", gate_b, parity_block(m, captb, 29, seed=102))
    m.gate("AND", "bad_c", gate_c, parity_block(m, capta[:48], 24, seed=103))
    m.gate("AND", "sub2_bad", gate_s2,
           parity_block(m, captb[:40], 20, seed=104))
    m.gate("OR", "irq", "bad_a", "bad_b")

    pad_tree(m, "MODE", 3, 12, "pad_mode")
    pad_tree(m, "COMMAND", 4, 8, "pad_command")
    pad_tree(m, "CLOCK_DIVIDER", 3, 6, "pad_clkdiv")
    pad_tree(m, "BUS_TIMING0", 2, 3, "pad_bt0")
    pad_tree(m, "BUS_TIMING1", 2, 2, "pad_bt1")

    src = (bits("CLOCK_DIVIDER", 3) + bits("BUS_TIMING0", 2)
           + bits("BUS_TIMING1", 2) + bits("COMMAND", 4) + ["rst", "sel"])
    for i, s in enumerate(src):
        m.buf(f"status[{i}]", s)
    for i in range(5):
        m.buf(f"brg_tx[{i}]", wdata[i])
    m.buf("tx_active", m.reduce("OR", bits("brg_tx", 5)))
    return m.text()


def make_ethmac():
    m = Mod("ethmac")
    bus_ports(m)
    m.input("sel", 1)
    m.input("brg_rx", 5)
    m.output("irq", 1)
    m.output("status", 13)
    for p in ("bad1", "bad2", "bad3", "brg_bad"):
        m.output(p, 1)
    addr = bits("bus_addr", 8)
    wdata = bits("bus_wdata", 32)
    cfg = [("MODER", 4, 0x0), ("MIICOMMAND", 3, 0x4), ("CTRLMODER", 3, 0x8),
           ("MIIMODER", 2, 0xc), ("PACKETLEN", 4, 0x10)]
    config_regs(m, cfg, addr, wdata, "bus_we")
    capt1 = capture_rows(m, "CAPT1", wdata, 29)
    capt2 = capture_rows(m, "CAPT2", wdata, 29)

    g1 = m.eq_const(bits("MODER", 4), 3)
    g2 = m.eq_const(bits("MIICOMMAND", 3), 2)
    g3 = m.eq_const(bits("CTRLMODER", 3), 1)
    m.gate("AND", "bad1", g1, parity_block(m, capt1, 29, seed=201))
    m.gate("AND", "bad2", g2, parity_block(m, capt2, 29, seed=202))
    m.gate("AND", "bad3", g3, parity_block(m, capt1[:48], 24, seed=203))
    # bridge scrambler runs on captured history and live bridge data; it
    # is deliberately not behind any software-visible register
    m.gate("AND", "brg_bad", m.reduce("OR", bits("brg_rx", 5)),
           parity_block(m, capt1[8:56], 24, seed=204))
    m.gate("OR", "irq", "bad1", "bad2")

    pad_tree(m, "MODER", 4, 10, "pad_moder")
    pad_tree(m, "MIICOMMAND", 3, 8, "pad_miicmd")
    pad_tree(m, "CTRLMODER", 3, 6, "pad_ctrl")
    pad_tree(m, "MIIMODER", 2, 4, "pad_miimoder")
    pad_tree(m, "PACKETLEN", 4, 1, "pad_packetlen")

    src = (bits("MIIMODER", 2) + bits("PACKETLEN", 4) + bits("brg_rx", 5)
           + ["rst", "sel"])
    for i, s in enumerate(src):
        m.buf(f"status[{i}]", s)
    return m.text()


def make_cpu():
    m = Mod("cpu")
    m.input("rst", 1)
    m.input("spr_addr", 8)
    m.input("spr_wdata", 32)
    m.input("spr_we", 1)
    m.output("mem_addr", 8)
    m.output("mem_wdata", 16)
    m.input("mem_rdata", 15)
    m.output("mem_we", 1)
    m.output("can_sel", 1)
    m.input("can_irq", 1)
    m.input("can_status", 13)
    m.output("eth_sel", 1)
    m.input("eth_irq", 1)
    m.input("eth_status", 13)
    m.output("irq_out", 1)
    m.output("cpu_bad", 1)
    m.output("dbg", 2)
    addr = bits("spr_addr", 8)
    wdata = bits("spr_wdata", 32)
    cfg = [("PIC_MASK", 4, 0x0), ("TIMER_CTRL", 3, 0x4),
           ("CACHE_CTRL", 2, 0x8), ("DBG_CTRL", 3, 0xc),
           ("POWER_CTRL", 2, 0x10)]
    config_regs(m, cfg, addr, wdata, "spr_we")
    capt = capture_rows(m, "CAPT", wdata, 29)
    # fetch address generator: PC just counts
    m.reg("PC", 8, init=0)
    m.wire("pc_d", 8)
    carry = "PC[0]"
    m.gate("NOT", "pc_d[0]", "PC[0]")
    for i in range(1, 8):
        m.gate("XOR", f"pc_d[{i}]", f"PC[{i}]", carry)
        if i < 7:
            carry = m.op2("AND", f"PC[{i}]", carry)
    m.dff("PC", "pc_d")

    m.buf("cpu_bad", parity_block(m, capt, 29, seed=301))
    for i in range(8):
        m.buf(f"mem_addr[{i}]", f"PC[{i}]")
    m.const("mem_wdata", "0" * 16)
    m.const("mem_we", "0")
    m.buf("can_sel", "PIC_MASK[0]")
    m.buf("eth_sel", "PIC_MASK[1]")
    m.gate("OR", "irq_out", "can_irq", "eth_irq")
    m.buf("dbg[0]", m.reduce("OR", bits("mem_rdata", 15)
                             + bits("can_status", 13)))
    m.buf("dbg[1]", m.reduce("OR", bits("eth_status", 13) + ["rst"]))

    pad_tree(m, "PIC_MASK", 4, 6, "pad_pic")
    pad_tree(m, "TIMER_CTRL", 3, 5, "pad_timer")
    pad_tree(m, "CACHE_CTRL", 2, 5, "pad_cache")
    pad_tree(m, "DBG_CTRL", 3, 2, "pad_dbgc")
    pad_tree(m, "POWER_CTRL", 2, 2, "pad_power")
    return m.text()


def make_ram():
    m = Mod("ram")
    m.input("rst", 1)
    m.input("addr", 8)
    m.input("wdata", 16)
    m.input("we", 1)
    m.output("rdata", 15)
    m.output("parity_ok", 1)
    m.output("rdy", 1)
    addr = bits("addr", 8)
    for wi in range(8):
        m.reg(f"WORD{wi}", 16, init=0)
        sel = m.eq_const(addr[:3], wi)
        en = m.op2("AND", sel, "we")
        m.dff(f"WORD{wi}", "wdata", en=en)
    # 8:1 read mux per data bit
    for b in range(15):
        layer = [f"WORD{wi}[{b}]" for wi in range(8)]
        for lvl in range(3):
            nxt = []
            for i in range(0, len(layer), 2):
                nxt.append(m.mux(addr[lvl], layer[i + 1], layer[i]))
            layer = nxt
        m.buf(f"rdata[{b}]", layer[0])
    m.buf("parity_ok", m.not1(m.op2("OR", "WORD0[0]", "WORD0[1]")))
    m.const("rdy", "1")
    return m.text()


# ---------------------------------------------------------------------------
# design, map, script, properties


CFG_MAP = [
    (0x0, "cpu0.PIC_MASK"), (0x4, "cpu0.TIMER_CTRL"), (0x8, "cpu0.CACHE_CTRL"),
    (0xc, "cpu0.DBG_CTRL"), (0x10, "cpu0.POWER_CTRL"),
    (0x1000, "can0.MODE"), (0x1004, "can0.COMMAND"),
    (0x1008, "can0.CLOCK_DIVIDER"), (0x100c, "can0.BUS_TIMING0"),
    (0x1010, "can0.BUS_TIMING1"),
    (0x2000, "ethmac0.MODER"), (0x2004, "ethmac0.MIICOMMAND"),
    (0x2008, "ethmac0.CTRLMODER"), (0x200c, "ethmac0.MIIMODER"),
]


def make_design():
    lines = [
        ".design gateway",
        ".instance cpu cpu0",
        ".instance ram ram0",
        ".instance can can0",
        ".instance ethmac ethmac0",
        ".connect cpu0.mem_addr ram0.addr",
        ".connect cpu0.mem_wdata ram0.wdata",
        ".connect ram0.rdata cpu0.mem_rdata",
        ".connect cpu0.mem_we ram0.we",
        ".connect cpu0.can_sel can0.sel",
        ".connect can0.irq cpu0.can_irq",
        ".connect can0.status cpu0.can_status",
        ".connect cpu0.eth_sel ethmac0.sel",
        ".connect ethmac0.irq cpu0.eth_irq",
        ".connect ethmac0.status cpu0.eth_status",
        ".connect can0.brg_tx ethmac0.brg_rx",
        ".top rst cpu0.rst",
        ".top rst ram0.rst",
        ".top rst can0.rst",
        ".top rst ethmac0.rst",
        ".top irq_out cpu0.irq_out",
        ".bus reset rst",
        ".bus range 0x0 0x100 addr=cpu0.spr_addr wdata=cpu0.spr_wdata"
        " we=cpu0.spr_we",
        ".bus range 0x1000 0x100 addr=can0.bus_addr wdata=can0.bus_wdata"
        " we=can0.bus_we",
        ".bus range 0x2000 0x100 addr=ethmac0.bus_addr"
        " wdata=ethmac0.bus_wdata we=ethmac0.bus_we",
    ]
    return "\n".join(lines) + "\n"


def make_regmap():
    return "".join(f"0x{a:x} {r}\n" for a, r in CFG_MAP)


def make_esw():
    return """\
# boot configuration sequence
reset 2
write 0x0 0xf
write 0x4 0x5
write 0x8 0x1
write 0xc 0x2
write 0x10 0x1
wait 2
write 0x1008 0x3
write 0x1000 0x1
write 0x1004 0x2
write 0x100c 0x1
write 0x1010 0x2
wait 2
write 0x2000 0x9
write 0x2004 0x5
write 0x2008 0x6
write 0x200c 0x1
read 0x1000
write 0x90000000 0x1
wait 2
"""


def make_props():
    return """\
prop ram_ready : ram0.rdy
prop can_block_a_quiet : ~(can0.bad_a)
prop can_blocks_bc_quiet : ~(can0.bad_b | can0.bad_c)
prop eth_block1_quiet : ~(ethmac0.bad1)
prop eth_block2_quiet : ~(ethmac0.bad2)
prop eth_block3_quiet : ~(ethmac0.bad3)
prop cpu_block_quiet : ~(cpu0.cpu_bad)
prop mem_link_stable : ~(cpu0.cpu_bad & ram0.parity_ok)
prop can_link_decoded : ram0.parity_ok -> ~(can0.sub2_bad)
prop bridge_clean : ~(can0.tx_active & ethmac0.brg_bad)
"""


# ---------------------------------------------------------------------------
# verification of the generated corpus


def per_ip_design(module, inst):
    return parse_design(f".design solo_{inst}\n.instance {module} {inst}\n",
                        path="<solo>")


def check_corpus(out_dir, probe):
    library = {}
    for mod in ("cpu", "ram", "can", "ethmac"):
        with open(os.path.join(out_dir, mod + ".net")) as fh:
            library[mod] = parse_netlist(fh.read(), path=mod + ".net")
    with open(os.path.join(out_dir, "gateway.dsn")) as fh:
        design = parse_design(fh.read(), path="gateway.dsn")
    with open(os.path.join(out_dir, "gateway.map")) as fh:
        regmap = parse_regmap(fh.read(), "gateway.map", design, library)
    with open(os.path.join(out_dir, "boot.esw")) as fh:
        script = parse_esw(fh.read(), path="boot.esw")
    with open(os.path.join(out_dir, "user.prop")) as fh:
        props = parse_props(fh.read(), "user.prop", design, library)

    order = rank_ips_by_connection(design, library)
    scores = connection_scores(design, library)
    assert order == ["cpu0", "ram0", "can0", "ethmac0"], order
    assert [scores[i] for i in order] == [70, 40, 20, 20], scores
    print("connectivity ranking:", [(i, scores[i]) for i in order])

    expected_rank = {
        "can0": ["can0.MODE", "can0.COMMAND", "can0.CLOCK_DIVIDER",
                 "can0.BUS_TIMING0", "can0.BUS_TIMING1"],
        "ethmac0": ["ethmac0.MODER", "ethmac0.MIICOMMAND",
                    "ethmac0.CTRLMODER", "ethmac0.MIIMODER"],
        "cpu0": ["cpu0.PIC_MASK", "cpu0.TIMER_CTRL", "cpu0.CACHE_CTRL",
                 "cpu0.DBG_CTRL", "cpu0.POWER_CTRL"],
    }
    models = {}
    for inst, mod in [("cpu0", "cpu"), ("ram0", "ram"), ("can0", "can"),
                      ("ethmac0", "ethmac")]:
        models[inst] = elaborate(per_ip_design(mod, inst), library)
    for inst, want in expected_rank.items():
        mapped = [r for r in models[inst].registers
                  if r in {v for _, v in CFG_MAP}]
        got = sra.do_sra(models[inst], sorted(mapped))
        assert list(got.order) == want, (inst, got.scores)
        print(f"{inst} influence order:",
              [(s.register.split('.')[1], s.paths, s.score)
               for s in got.scores])

    full = elaborate(design, library)
    s = sim.Simulator(full, design, script)
    pois = sim.set_pois(regmap, ["can0.MODE"], script)
    poi = sim.run_until_poi(s, pois)
    assert poi is not None and poi[2] == "can0.MODE", poi
    cap = sim.collect_sim_values(s, list(regmap.registers()))
    print(f"trigger at cycle {s.cycle}, captured {len(cap)} registers")
    assert cap["can0.MODE"] == 1, cap
    assert cap["can0.CLOCK_DIVIDER"] == 3
    assert cap["cpu0.PIC_MASK"] == 0xf
    while poi is not None:
        poi = sim.run_until_poi(s, pois)
    cap = sim.collect_sim_values(s, list(regmap.registers()))
    expect = {"can0.MODE": 1, "can0.COMMAND": 2, "can0.CLOCK_DIVIDER": 3,
              "can0.BUS_TIMING0": 1, "can0.BUS_TIMING1": 2,
              "ethmac0.MODER": 9, "ethmac0.MIICOMMAND": 5,
              "ethmac0.CTRLMODER": 6, "ethmac0.MIIMODER": 1,
              "cpu0.PIC_MASK": 0xf,
              "cpu0.TIMER_CTRL": 5, "cpu0.CACHE_CTRL": 1,
              "cpu0.DBG_CTRL": 2, "cpu0.POWER_CTRL": 1}
    for k, v in expect.items():
        assert cap.get(k) == v, (k, v, cap.get(k))
    dangling = [w for w in s.warnings if w.kind == "bus-decode"]
    assert len(dangling) == 1, s.warnings
    print("script-end capture matches the boot writes; 1 dangling access")

    groups = divide_props(list(props), design, library)
    shape = {g: sorted(p.name for p in ps) for g, ps in groups.items()}
    assert shape["ram"] == ["ram_ready"]
    assert shape["can"] == ["can_block_a_quiet", "can_blocks_bc_quiet"]
    assert shape["ethmac"] == ["eth_block1_quiet", "eth_block2_quiet",
                               "eth_block3_quiet"]
    assert shape["cpu"] == ["cpu_block_quiet"]
    assert shape["subsystem-1"] == ["mem_link_stable"]
    assert shape["subsystem-2"] == ["can_link_decoded"]
    assert shape["subsystem-3"] == ["bridge_clean"]
    print("property division:", {k: len(v) for k, v in shape.items()})

    # pinning the gating registers collapses the blocks instantly
    can_props = [p for p in props if p.name.startswith("can_block")]
    cuts = {"can0.MODE": 1, "can0.COMMAND": 2}
    t0 = time.perf_counter()
    run = bmc.check(models["can0"], can_props, cuts, k=20, budget=30.0)
    dt = time.perf_counter() - t0
    assert all(o.status == "PASS" for o in run.outcomes.values()), \
        run.outcomes
    assert dt < 10.0, dt
    print(f"pinned can blocks prove in {dt:.2f}s")

    xp = gen_xprop(per_ip_design("ram", "ram0"), library)
    run = bmc.check(models["ram0"], xp, k=20, budget=60.0)
    assert all(o.status == "PASS" for o in run.outcomes.values()), \
        run.outcomes
    xp = gen_xprop(per_ip_design("can", "can0"), library)
    assert len(xp) == 7, [p.name for p in xp]
    run = bmc.check(models["can0"], xp, k=8, budget=60.0)
    assert all(o.status == "PASS" for o in run.outcomes.values()), \
        {n: o.status for n, o in run.outcomes.items()}
    print("ram formal and can value-known props pass")

    if probe:
        hard = [p for p in props if p.name == "can_block_a_quiet"]
        t0 = time.perf_counter()
        run = bmc.check(models["can0"], hard, k=20, budget=60.0)
        dt = time.perf_counter() - t0
        o = run.outcomes["can_block_a_quiet"]
        assert o.status == "UNDETERMINED" and dt >= 59.0, (o, dt)
        print(f"probe: unpinned block survived {dt:.0f}s of solving")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "corpus"))
    ap.add_argument("--probe", action="store_true",
                    help="verify blocks survive a 60s solve (slow)")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    files = {
        "cpu.net": make_cpu(),
        "ram.net": make_ram(),
        "can.net": make_can(),
        "ethmac.net": make_ethmac(),
        "gateway.dsn": make_design(),
        "gateway.map": make_regmap(),
        "boot.esw": make_esw(),
        "user.prop": make_props(),
    }
    for name, text in files.items():
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
        print(f"wrote {name} ({len(text.splitlines())} lines)")
    check_corpus(args.out, args.probe)
    print("corpus OK")


if __name__ == "__main__":
    main()
