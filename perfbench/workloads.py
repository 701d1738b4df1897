"""Seeded input generators and verdict expectations for the benchmark.

Every generator takes a `random.Random` built from the benchmark seed, so
one seed always yields the same netlist, design and property text.  The
checker under test only ever sees that text.
"""

from __future__ import annotations

import random

WORKLOADS = ("gateway_flow", "parity_unsat", "random_checks")

# gateway_flow: the committed corpus at fixed seconds limits.  At these
# limits every proof that finishes takes under 0.1 s and every timeout
# still times out at 2 s, so the verdict table sits well clear of both
# boundaries (at 0.05/0.08 s the status flips to SEMIFORMAL_COMPLETE).
GATEWAY_IP_LIMIT = 0.3
GATEWAY_SUB_LIMIT = 0.5

# parity_unsat: PARITY_MODULES checks, each over one module holding
# PARITY_BLOCKS independent parity blocks, proved to PARITY_BOUND.  All
# blocks of a module share one solver, which learns about 11k clauses and
# so passes the 8,192 at which it first reduces its database.  The solver
# work of one block is heavy-tailed from graph to graph, so the workload
# sums many small blocks to keep the total steady from seed to seed.
PARITY_MODULES = 4
PARITY_BLOCKS = 16
PARITY_VERTICES = 8
PARITY_BOUND = 2

# random_checks: RANDOM_MODULES small random modules with RANDOM_PROPS
# properties each, checked to RANDOM_BOUND.  Registers may start unknown,
# and about half the verdicts are FAIL, so trace extraction and replay run.
RANDOM_MODULES = 600
RANDOM_PROPS = 3
RANDOM_REGS = 4
RANDOM_INPUTS = 2
RANDOM_GATES = 60
RANDOM_BOUND = 5


def regular_edges(v: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random simple connected 4-regular graph on `v` vertices."""
    while True:
        stubs = [i for i in range(v) for _ in range(4)]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            a, b = sorted(stubs[i:i + 2])
            if a == b or (a, b) in edges:
                break
            edges.add((a, b))
        else:
            adj = {i: set() for i in range(v)}
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
            seen, work = {0}, [0]
            while work:
                for m in adj[work.pop()] - seen:
                    seen.add(m)
                    work.append(m)
            if len(seen) == v:
                return sorted(edges)


def parity_module(name: str, graphs: list[list[tuple[int, int]]],
                  v: int) -> str:
    """One module with an ungated inconsistent parity block per graph.

    Block b's vertex constraints say that the edges at vertex 0 have even
    parity and those at every other vertex odd parity.  Every edge meets
    two vertices, so the constraints sum to an even total against an odd
    one: output `bad<b>` is identically 0 and any FAIL is a soundness bug.
    """
    lines = [f".module {name}", ".input rst 1"]
    body: list[str] = []
    count = 0

    def wire(kind: str, *ins: str) -> str:
        nonlocal count
        w = f"n{count}"
        count += 1
        body.append(f".wire {w} 1")
        body.append(f".gate {kind} {w} " + " ".join(ins))
        return w

    for b, edges in enumerate(graphs):
        lines.append(f".output bad{b} 1")
        lines += [f".input e{b}_{i} 1" for i in range(len(edges))]
        incident: dict[int, list[str]] = {i: [] for i in range(v)}
        for i, (x, y) in enumerate(edges):
            incident[x].append(f"e{b}_{i}")
            incident[y].append(f"e{b}_{i}")
        oks = []
        for vtx in range(v):
            a, c, d, e = incident[vtx]
            x = wire("XOR", wire("XOR", a, c), wire("XOR", d, e))
            oks.append(wire("NOT", x) if vtx == 0 else x)
        acc = oks[0]
        for t in oks[1:]:
            acc = wire("AND", acc, t)
        body.append(f".gate AND bad{b} {acc} {acc}")
    return "\n".join(lines + body + [".endmodule"]) + "\n"


def random_module(rng: random.Random, name: str) -> str:
    """Random gate DAG over 1-bit registers, some of them uninitialised."""
    lines = [f".module {name}", ".input rst 1"]
    nets = []
    for i in range(RANDOM_INPUTS):
        lines.append(f".input in{i} 1")
        nets.append(f"in{i}")
    for r in range(RANDOM_REGS):
        if rng.random() < 0.3:
            lines.append(f".reg R{r} 1")
        else:
            lines.append(f".reg R{r} 1 init={rng.randrange(2)}")
        nets.append(f"R{r}")
    lines += [".output o0 1", ".output o1 1"]
    for g in range(RANDOM_GATES):
        kind = rng.choice(("AND", "OR", "XOR", "NOT", "MUX"))
        arity = {"NOT": 1, "MUX": 3}.get(kind, 2)
        ins = [rng.choice(nets) for _ in range(arity)]
        lines.append(f".wire n{g} 1")
        lines.append(f".gate {kind} n{g} " + " ".join(ins))
        nets.append(f"n{g}")
    for j in range(2):
        lines.append(f".gate NOT o{j} {rng.choice(nets[-RANDOM_GATES // 2:])}")
    for r in range(RANDOM_REGS):
        lines.append(f".wire d{r} 1")
        lines.append(f".gate NOT d{r} {rng.choice(nets)}")
        lines.append(f".dff R{r} d{r}")
    return "\n".join(lines + [".endmodule"]) + "\n"


def random_prop(rng: random.Random, inst: str) -> str:
    """Invariant over register bits; some hold and some fail."""
    a, b, c = (f"{inst}.R{rng.randrange(RANDOM_REGS)}" for _ in range(3))
    return (f"~({a} & {b})", f"{a} -> {b}", f"~{a} | {b} | {c}",
            f"{a} != {rng.randrange(2)}", f"({a} & {b}) -> {c}",
            f"~({a} & ~{b})")[rng.randrange(6)]


def make_cases(workload: str, seed: int) -> list[dict]:
    """The checks one run of `workload` performs, as program text.

    Each case is one module: its netlist, a one-instance design, its
    properties and the bound.  gateway_flow has no generated cases.
    """
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    if workload == "parity_unsat":
        for m in range(PARITY_MODULES):
            graphs = [regular_edges(PARITY_VERTICES, rng)
                      for _ in range(PARITY_BLOCKS)]
            props = "".join(f"prop quiet{b} : ~(p0.bad{b})\n"
                            for b in range(PARITY_BLOCKS))
            cases.append(_case(f"parity{m}", parity_module(
                f"parity{m}", graphs, PARITY_VERTICES), "p0", props,
                PARITY_BOUND))
    elif workload == "random_checks":
        for m in range(RANDOM_MODULES):
            text = random_module(rng, f"rnd{m}")
            props = "".join(f"prop p{j} : {random_prop(rng, 'm0')}\n"
                            for j in range(RANDOM_PROPS))
            cases.append(_case(f"rnd{m}", text, "m0", props, RANDOM_BOUND))
    elif workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def load_case(case: dict):
    """Parse and elaborate one case: (flat model, properties)."""
    from semiform import frontend, netlist

    ip = frontend.parse_netlist(case["netlist"])
    design = frontend.parse_design(case["design"])
    library = {ip.name: ip}
    props = frontend.parse_props(case["props"], design=design,
                                 library=library)
    return netlist.elaborate(design, library), props


def _case(module: str, netlist: str, inst: str, props: str, bound: int):
    return {"module": module, "netlist": netlist,
            "design": f".design solo_{module}\n.instance {module} {inst}\n",
            "props": props, "bound": bound}
