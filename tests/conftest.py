"""Shared fixtures: corpus artifacts, hand-built models, mini designs."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from semiform.frontend import (parse_design, parse_esw, parse_netlist,
                               parse_props, parse_regmap)
from semiform.netlist import elaborate, rank_ips_by_connection

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# FAIL traces produced anywhere in the test run, for the replay criterion
FAIL_TRACES: list[tuple] = []  # (model, prop, trace)


def record_fails(model, props, run):
    by_name = {p.name: p for p in props}
    for name, out in run.outcomes.items():
        if out.status == "FAIL":
            FAIL_TRACES.append((model, by_name[name], out.trace))


# ---------------------------------------------------------------------------
# corpus


@pytest.fixture(scope="session")
def corpus_library():
    lib = {}
    for p in sorted(CORPUS.glob("*.net")):
        ip = parse_netlist(p.read_text(), path=str(p))
        lib[ip.name] = ip
    return lib


@pytest.fixture(scope="session")
def gateway(corpus_library):
    design = parse_design((CORPUS / "gateway.dsn").read_text(),
                          path="gateway.dsn")
    regmap = parse_regmap((CORPUS / "gateway.map").read_text(),
                          path="gateway.map", design=design,
                          library=corpus_library)
    script = parse_esw((CORPUS / "boot.esw").read_text(), path="boot.esw")
    props = parse_props((CORPUS / "user.prop").read_text(), path="user.prop",
                        design=design, library=corpus_library)
    return design, corpus_library, regmap, script, props


# ---------------------------------------------------------------------------
# small hand-built models


def build_model(module_text: str, instance: str = "m0"):
    """Parse one module and elaborate it standalone."""
    ip = parse_netlist(module_text, path="<test>")
    design = parse_design(f".design solo\n.instance {ip.name} {instance}\n")
    return elaborate(design, {ip.name: ip}), design, {ip.name: ip}


def flow_keep_sets(design, lib):
    """The instance sets the flow elaborates: each instance alone, each
    prefix of the connection ranking, and all of them."""
    ranked = rank_ips_by_connection(design, lib)
    keeps = {frozenset({i}) for i in design.instance_names()}
    keeps.update(frozenset(ranked[:k + 1]) for k in range(len(ranked)))
    return sorted(keeps, key=sorted)


def props_for(text: str, design, library):
    return parse_props(text, path="<test>", design=design, library=library)


COUNTER_TEXT = """\
.module counter
.input rst 1
.input en 1
.output cnt_out 4
.reg CNT 4 init=0
.wire nxt 4
.wire c0 1
.wire c1 1
.gate NOT nxt[0] CNT[0]
.gate XOR nxt[1] CNT[1] CNT[0]
.gate AND c0 CNT[1] CNT[0]
.gate XOR nxt[2] CNT[2] c0
.gate AND c1 CNT[2] c0
.gate XOR nxt[3] CNT[3] c1
.dff CNT nxt en=en
.gate OR cnt_out[0] CNT[0] CNT[0]
.gate OR cnt_out[1] CNT[1] CNT[1]
.gate OR cnt_out[2] CNT[2] CNT[2]
.gate OR cnt_out[3] CNT[3] CNT[3]
.endmodule
"""


@pytest.fixture()
def counter():
    model, design, lib = build_model(COUNTER_TEXT)
    return model, design, lib


# `w` is declared but drives and reads nothing, so it is not a model net
UNUSED_WIRE_TEXT = """\
.module t
.input a 1
.wire w 1
.reg R 1 init=0
.dff R a
.endmodule
"""


FIG_EXAMPLE_TEXT = """\
.module influence
.input rst 1
.input d1 1
.input d2 1
.output o1 1
.output p1 1
.output p2 1
.output p3 1
.reg reg1 1 init=0
.reg reg2 1 init=0
.wire a1 1
.wire a2 1
.wire a3 1
.wire a4 1
.wire a5 1
.wire a6 1
.wire a7 1
.wire a8 1
.wire b1 1
.wire b2 1
.wire b3 1
.wire b4 1
.wire b5 1
.wire b6 1
.wire b7 1
.wire b8 1
.wire b9 1
.wire b10 1
.gate NOT a1 reg1
.gate NOT a2 a1
.gate NOT a3 a2
.gate NOT a4 a3
.gate NOT a5 a4
.gate NOT a6 a5
.gate NOT a7 a6
.gate NOT a8 a7
.gate NOT o1 a8
.gate NOT b1 reg2
.gate NOT b2 b1
.gate NOT b3 b2
.gate NOT b4 b3
.gate NOT b5 b4
.gate NOT b6 b5
.gate NOT b7 b6
.gate NOT b8 b7
.gate NOT b9 b8
.gate NOT b10 b9
.gate NOT p1 b10
.gate NOT p2 b10
.gate NOT p3 b10
.dff reg1 d1
.dff reg2 d2
.endmodule
"""


@pytest.fixture()
def fig_example():
    """Two registers: a 9-gate pipe to one output (1 path, 9 elements)
    and a 10-gate pipe fanning through 3 gates to 3 outputs (3 paths,
    13 elements)."""
    model, design, lib = build_model(FIG_EXAMPLE_TEXT)
    return model, design, lib


# ---------------------------------------------------------------------------
# random netlists


def random_regular_edges(v: int, rng: random.Random):
    """Random simple connected 4-regular graph by stub pairing."""
    while True:
        stubs = [i for i in range(v) for _ in range(4)]
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
        adj = {i: [] for i in range(v)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        work = [0]
        while work:
            n = work.pop()
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    work.append(m)
        if len(seen) == v:
            return sorted(edges)


def _random_gates(rng: random.Random, lines: list[str], nets: list[str],
                  numbers) -> None:
    """Append a random 1-bit gate `n<g>` over `nets` for each g in `numbers`;
    each new net joins `nets`."""
    for g in numbers:
        kind = rng.choice(("AND", "OR", "XOR", "NOT", "MUX"))
        n_in = {"NOT": 1, "MUX": 3}.get(kind, 2)
        ins = [rng.choice(nets) for _ in range(n_in)]
        out = f"n{g}"
        lines.append(f".wire {out} 1")
        lines.append(f".gate {kind} {out} " + " ".join(ins))
        nets.append(out)


def random_dag_module(rng: random.Random, n_regs=2, n_inputs=2, n_gates=20,
                      n_outputs=2, uninit=False) -> str:
    """Random combinational DAG over a few 1-bit registers and inputs."""
    lines = [".module rnd", ".input rst 1"]
    nets = []
    for i in range(n_inputs):
        lines.append(f".input in{i} 1")
        nets.append(f"in{i}")
    for r in range(n_regs):
        if uninit and rng.random() < 0.3:
            lines.append(f".reg R{r} 1")
        else:
            lines.append(f".reg R{r} 1 init={rng.randrange(2)}")
        nets.append(f"R{r}")
    for j in range(n_outputs):
        lines.append(f".output o{j} 1")
    _random_gates(rng, lines, nets, range(n_gates))
    # outputs tap late nets; next-state functions tap anywhere
    for j in range(n_outputs):
        src = rng.choice(nets[-max(4, n_gates // 2):])
        lines.append(f".gate NOT o{j} {src}")
    for r in range(n_regs):
        lines.append(f".wire d{r} 1")
        lines.append(f".gate NOT d{r} {rng.choice(nets)}")
        lines.append(f".dff R{r} d{r}")
    lines.append(".endmodule")
    return "\n".join(lines) + "\n"


def pipeline_module(rng: random.Random, n_regs=3, n_inputs=2,
                    stage_gates=4) -> str:
    """Random feed-forward pipeline of 1-bit registers, some uninitialised.

    Register r's next state is a random gate DAG over the inputs and the
    registers below r, or one of those registers, so the cone of R<r> is
    at most r + 1 flops deep.  About one register in eight has no `.dff`
    and holds its value: the only loops are these flops reading themselves.
    """
    lines = [".module pipe", ".input rst 1"]
    nets = []
    for i in range(n_inputs):
        lines.append(f".input in{i} 1")
        nets.append(f"in{i}")
    for r in range(n_regs):
        init = "" if rng.random() < 0.3 else f" init={rng.randrange(2)}"
        lines.append(f".reg R{r} 1{init}")
    for r in range(n_regs):
        _random_gates(rng, lines, nets,
                      range(r * stage_gates, (r + 1) * stage_gates))
        d = rng.choice(nets[-stage_gates:])
        if r and rng.random() < 0.3:
            d = f"R{rng.randrange(r)}"  # a plain shift
        if rng.random() >= 0.125:
            lines.append(f".dff R{r} {d}")
        nets.append(f"R{r}")
    lines.append(".endmodule")
    return "\n".join(lines) + "\n"


def random_prop(rng: random.Random, n_regs: int, inst: str = "m0") -> str:
    """A property template over register bits; some hold, some do not."""
    regs = [f"{inst}.R{i}" for i in range(n_regs)]
    a, b = rng.choice(regs), rng.choice(regs)
    c = rng.choice(regs)
    pick = rng.randrange(6)
    if pick == 0:
        return f"~({a} & {b})"
    if pick == 1:
        return f"{a} -> {b}"
    if pick == 2:
        return f"~{a} | {b} | {c}"
    if pick == 3:
        return f"{a} != {rng.randrange(2)}"
    if pick == 4:
        return f"({a} & {b}) -> {c}"
    return f"~({a} & ~{b})"


# ---------------------------------------------------------------------------
# a miniature two-IP design on a bus, everything provable in milliseconds


ALPHA_TEXT = """\
.module alpha
.input rst 1
.input addr 4
.input wdata 8
.input we 1
.output led 1
.output bad 1
.reg CFG 4 init=0
.wire na0 1
.wire na1 1
.wire na2 1
.wire na3 1
.wire dec0 1
.wire dec1 1
.wire en 1
.gate NOT na0 addr[0]
.gate NOT na1 addr[1]
.gate NOT na2 addr[2]
.gate NOT na3 addr[3]
.gate AND dec0 na0 na1
.gate AND dec1 na2 na3
.wire dec 1
.gate AND dec dec0 dec1
.gate AND en dec we
.wire wnib 4
.gate OR wnib[0] wdata[0] wdata[0]
.gate OR wnib[1] wdata[1] wdata[1]
.gate OR wnib[2] wdata[2] wdata[2]
.gate OR wnib[3] wdata[3] wdata[3]
.dff CFG wnib en=en
.wire l0 1
.wire l1 1
.gate OR l0 CFG[0] CFG[1]
.gate OR l1 CFG[2] CFG[3]
.gate OR led l0 l1
.wire nc 1
.gate NOT nc CFG[0]
.gate AND bad CFG[0] nc
.endmodule
"""

BETA_TEXT = """\
.module beta
.input rst 1
.input addr 4
.input wdata 8
.input we 1
.input sense 1
.output sig 1
.output bad2 1
.reg GAIN 4 init=0
.wire na0 1
.wire na1 1
.wire na2 1
.wire na3 1
.wire dec0 1
.wire dec1 1
.wire en 1
.gate NOT na0 addr[2]
.gate NOT na1 addr[3]
.gate AND dec0 addr[0] na0
.gate AND dec1 na1 addr[1]
.wire dec 1
.gate AND dec dec0 dec1
.gate AND en dec we
.wire wnib 4
.gate OR wnib[0] wdata[0] wdata[0]
.gate OR wnib[1] wdata[1] wdata[1]
.gate OR wnib[2] wdata[2] wdata[2]
.gate OR wnib[3] wdata[3] wdata[3]
.dff GAIN wnib en=en
.gate AND sig GAIN[0] sense
.wire ng 1
.gate NOT ng GAIN[1]
.gate AND bad2 GAIN[1] ng
.endmodule
"""

MINI_DSN = """\
.design mini
.instance alpha a0
.instance beta b0
.connect a0.led b0.sense
.top rst a0.rst
.top rst b0.rst
.bus reset rst
.bus range 0x0 0x10 addr=a0.addr wdata=a0.wdata we=a0.we
.bus range 0x100 0x10 addr=b0.addr wdata=b0.wdata we=b0.we
"""

MINI_MAP = """\
0x0 a0.CFG
0x103 b0.GAIN
"""

MINI_ESW = """\
reset 2
write 0x0 0x5
write 0x103 0x9
wait 2
"""

MINI_PROP = """\
prop alpha_quiet : ~(a0.bad)
prop beta_quiet : ~(b0.bad2)
prop cross_ok : ~(a0.bad & b0.bad2)
"""


@pytest.fixture(scope="session")
def mini_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("mini")
    (d / "alpha.net").write_text(ALPHA_TEXT)
    (d / "beta.net").write_text(BETA_TEXT)
    (d / "mini.dsn").write_text(MINI_DSN)
    (d / "mini.map").write_text(MINI_MAP)
    (d / "boot.esw").write_text(MINI_ESW)
    (d / "user.prop").write_text(MINI_PROP)
    return d


@pytest.fixture(scope="session")
def mini_parsed(mini_files):
    lib = {}
    for p in sorted(mini_files.glob("*.net")):
        ip = parse_netlist(p.read_text(), path=str(p))
        lib[ip.name] = ip
    design = parse_design((mini_files / "mini.dsn").read_text())
    regmap = parse_regmap((mini_files / "mini.map").read_text(),
                          design=design, library=lib)
    script = parse_esw((mini_files / "boot.esw").read_text())
    props = parse_props((mini_files / "user.prop").read_text(),
                        design=design, library=lib)
    return design, lib, regmap, script, props


# ---------------------------------------------------------------------------
# one-IP design whose only property needs a refutation the solver cannot
# finish inside a fraction of a second, but that collapses once the
# single mapped register is pinned to its simulated value


def hard_block_module(v: int, seed: int, gated: bool) -> str:
    """Inconsistent parity system over a random 4-regular graph.

    The output `bad` is identically 0 (summing all parity equations
    counts every edge twice against an odd constant total), so any FAIL
    is a soundness bug.  Refuting it per frame costs real solver work
    unless the gating comparison folds it away.
    """
    edges = random_regular_edges(v, random.Random(seed))
    incident = {i: [] for i in range(v)}
    for ei, (a, b) in enumerate(edges):
        incident[a].append(ei)
        incident[b].append(ei)
    L = [".module hard", ".input rst 1", ".input addr 4", ".input wdata 8",
         ".input we 1", ".output bad 1"]
    for ei in range(len(edges)):
        L.append(f".input e{ei} 1")
    L.append(".reg CFG 4 init=0")
    n = [0]

    def wire(kind, *ins):
        w = f"n{n[0]}"
        n[0] += 1
        L.append(f".wire {w} 1")
        L.append(f".gate {kind} {w} " + " ".join(ins))
        return w

    oks = []
    for vtx in range(v):
        a, b, c, d = (f"e{e}" for e in incident[vtx])
        x = wire("XOR", wire("XOR", a, b), wire("XOR", c, d))
        oks.append(wire("NOT", x) if vtx == 0 else x)
    acc = oks[0]
    for t in oks[1:]:
        acc = wire("AND", acc, t)

    na = [wire("NOT", f"addr[{i}]") for i in range(4)]
    dec = wire("AND", wire("AND", na[0], na[1]), wire("AND", na[2], na[3]))
    en = wire("AND", dec, "we")
    for i in range(4):
        wn = f"w{i}"
        L.append(f".wire {wn} 1")
        L.append(f".gate OR {wn} wdata[{i}] wdata[{i}]")
    L.append(".wire wnib 4")
    for i in range(4):
        L.append(f".gate OR wnib[{i}] w{i} w{i}")
    L.append(f".dff CFG wnib en={en}")

    if gated:
        # live only when CFG == 5, which the boot script never writes
        g0 = wire("NOT", "CFG[1]")
        g1 = wire("NOT", "CFG[3]")
        gate = wire("AND", wire("AND", "CFG[0]", g0),
                    wire("AND", "CFG[2]", g1))
        L.append(f".gate AND bad {acc} {gate}")
    else:
        L.append(f".gate AND bad {acc} {acc}")
    L.append(".endmodule")
    return "\n".join(L) + "\n"


HARD_DSN = """\
.design solo
.instance hard h0
.top rst h0.rst
.bus reset rst
.bus range 0x0 0x10 addr=h0.addr wdata=h0.wdata we=h0.we
"""

HARD_ESW = """\
reset 2
write 0x0 0x2
wait 2
"""

HARD_PROP = "prop quiet : ~(h0.bad)\n"


def _hard_setup(tmp_path_factory, gated: bool, name: str):
    d = tmp_path_factory.mktemp(name)
    (d / "hard.net").write_text(hard_block_module(20, 7, gated))
    (d / "solo.dsn").write_text(HARD_DSN)
    (d / "solo.map").write_text("0x0 h0.CFG\n")
    (d / "boot.esw").write_text(HARD_ESW)
    (d / "user.prop").write_text(HARD_PROP)
    lib = {"hard": parse_netlist((d / "hard.net").read_text())}
    design = parse_design((d / "solo.dsn").read_text())
    regmap = parse_regmap((d / "solo.map").read_text(), design=design,
                          library=lib)
    script = parse_esw((d / "boot.esw").read_text())
    props = parse_props(HARD_PROP, design=design, library=lib)
    return d, design, lib, regmap, script, props


@pytest.fixture(scope="session")
def hard_gated(tmp_path_factory):
    return _hard_setup(tmp_path_factory, True, "hardg")


@pytest.fixture(scope="session")
def hard_ungated(tmp_path_factory):
    return _hard_setup(tmp_path_factory, False, "hardu")


# two hard blocks on one bus: a property over both instances lands in
# subsystem-1, where pinning the right CFG folds it when they are gated
PAIR_DSN = """\
.design pair
.instance hard h0
.instance hard h1
.top rst h0.rst
.top rst h1.rst
.bus reset rst
.bus range 0x0 0x10 addr=h0.addr wdata=h0.wdata we=h0.we
.bus range 0x10 0x10 addr=h1.addr wdata=h1.wdata we=h1.we
"""

PAIR_ESW = """\
reset 2
write 0x0 0x2
write 0x10 0x2
wait 2
"""


def _pair(gated: bool):
    lib = {"hard": parse_netlist(hard_block_module(20, 7, gated=gated))}
    design = parse_design(PAIR_DSN)
    regmap = parse_regmap("0x0 h0.CFG\n0x10 h1.CFG\n", design=design,
                          library=lib)
    return design, lib, regmap, parse_esw(PAIR_ESW)


@pytest.fixture(scope="session")
def hard_pair():
    return _pair(True)


@pytest.fixture(scope="session")
def hard_pair_ungated():
    return _pair(False)
