"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit path enumeration instead
of dynamic programming, explicit state-set reachability instead of SAT,
truth-table enumeration instead of CDCL.  Slow but obviously correct.
"""

from __future__ import annotations

from itertools import product

X = 2

# three-valued connectives, written out rather than imported from the
# package so a table typo there cannot hide here
_AND = {
    (0, 0): 0, (0, 1): 0, (0, X): 0,
    (1, 0): 0, (1, 1): 1, (1, X): X,
    (X, 0): 0, (X, 1): X, (X, X): X,
}
_OR = {
    (0, 0): 0, (0, 1): 1, (0, X): X,
    (1, 0): 1, (1, 1): 1, (1, X): 1,
    (X, 0): X, (X, 1): 1, (X, X): X,
}
_XOR = {
    (0, 0): 0, (0, 1): 1, (0, X): X,
    (1, 0): 1, (1, 1): 0, (1, X): X,
    (X, 0): X, (X, 1): X, (X, X): X,
}
_NOT = {0: 1, 1: 0, X: X}


def _consumers(model):
    cons: dict[str, list[int]] = {}
    for i, n in enumerate(model.nodes):
        for inp in n.inputs:
            cons.setdefault(inp, []).append(i)
    return cons


def enumerate_paths(model, register) -> int:
    """Count simple influence paths by explicit enumeration.

    A path starts at one of the register's output bits, runs through
    combinational gates only, and ends when the current net is a primary
    output or when it enters another register's data flop.  The register's
    own flops do not terminate (or extend) paths.
    """
    reg = model.registers[register]
    cons = _consumers(model)
    outputs = set(model.outputs)
    owner = {}
    for rname, bits in model.registers.items():
        for b in bits:
            owner[b] = rname

    count = 0
    stack: list[tuple[str, ...]] = [(b,) for b in reg]
    while stack:
        path = stack.pop()
        net = path[-1]
        if net in outputs:
            count += 1
        for ci in cons.get(net, ()):
            node = model.nodes[ci]
            if node.kind == "DFF":
                if owner.get(node.output) != register:
                    count += 1
            else:
                stack.append(path + (node.output,))
    return count


def reach_elements(model, register) -> int:
    """Count of distinct circuit nodes downstream of a register.

    Traversal crosses other registers' flops; the register's own flops
    are excluded.
    """
    reg = model.registers[register]
    cons = _consumers(model)
    own = {i for i, n in enumerate(model.nodes)
           if n.kind == "DFF" and n.output in set(reg)}
    reached: set[int] = set()
    seen: set[str] = set()
    work = list(reg)
    while work:
        net = work.pop()
        if net in seen:
            continue
        seen.add(net)
        for ci in cons.get(net, ()):
            if ci in own:
                continue
            if ci not in reached:
                reached.add(ci)
                work.append(model.nodes[ci].output)
    return len(reached)


# ---------------------------------------------------------------------------
# three-valued circuit evaluation (recursive, for small models)


def eval_nets3(model, state: dict[str, int], inputs: dict[str, int]):
    """Settle all nets of a FlatModel in three-valued logic.

    `state` maps each DFF output net to its current value; `inputs` maps
    nets to forced values that override their drivers (driverless nets
    missing from it read X).  Returns a dict net -> 0/1/X covering every
    net.
    """
    memo: dict[str, int] = {}
    driver = {n.output: n for n in model.nodes}

    def val(net: str) -> int:
        got = memo.get(net)
        if got is not None:
            return got
        node = driver.get(net)
        if net in inputs:
            r = inputs[net]
        elif node is None:
            r = X
        elif node.kind == "CONST":
            r = node.value
        elif node.kind == "DFF":
            r = state[net]
        elif node.kind == "NOT":
            r = _NOT[val(node.inputs[0])]
        elif node.kind == "AND":
            r = _AND[(val(node.inputs[0]), val(node.inputs[1]))]
        elif node.kind == "OR":
            r = _OR[(val(node.inputs[0]), val(node.inputs[1]))]
        elif node.kind == "XOR":
            r = _XOR[(val(node.inputs[0]), val(node.inputs[1]))]
        elif node.kind == "MUX":
            s = val(node.inputs[0])
            a = val(node.inputs[1])
            b = val(node.inputs[2])
            if s == 1:
                r = a
            elif s == 0:
                r = b
            elif a == b and a != X:
                r = a
            else:
                r = X
        else:
            raise AssertionError(node.kind)
        memo[net] = r
        return r

    for net in model.nets:
        val(net)
    return memo


def eval_prop3(model, netval: dict[str, int], expr) -> int:
    """Three-valued property expression value over settled nets."""

    def bits(e):
        _, name, idx = e
        bs = list(model.signal_bits(name))
        if idx is not None:
            bs = [bs[idx]]
        return [netval[b] for b in bs]

    def ev(e) -> int:
        k = e[0]
        if k == "int":
            return e[1]
        if k == "sig":
            return bits(e)[0]
        if k == "not":
            return _NOT[ev(e[1])]
        if k == "and":
            return _AND[(ev(e[1]), ev(e[2]))]
        if k == "or":
            return _OR[(ev(e[1]), ev(e[2]))]
        if k == "imp":
            return _OR[(_NOT[ev(e[1])], ev(e[2]))]
        if k in ("eq", "ne"):
            a, b = e[1], e[2]
            if a[0] == "int":
                a, b = b, a
            ab = bits(a)
            bb = [(b[1] >> i) & 1 for i in range(len(ab))] if b[0] == "int" \
                else bits(b)
            acc = 1
            for x, y in zip(ab, bb):
                acc = _AND[(acc, _NOT[_XOR[(x, y)]])]
            return acc if k == "eq" else _NOT[acc]
        raise AssertionError(k)

    return ev(expr)


def explicit_check(model, prop, bound: int, cut=(), pinned=None):
    """Earliest frame with a definite property violation, or None.

    Breadth-first exploration of three-valued register states.  Primary
    inputs branch over {0, 1} each cycle (the environment drives them to
    known values); uninitialized registers start at X.  Nets in `cut` ignore
    their drivers and branch over {0, 1, X} each cycle; nets in `pinned`
    (net -> 0/1) ignore their drivers and read that constant.  A
    property is violated at a frame from its `settle` on: a `known(REG)`
    obligation where any bit of its register reads X, any other where
    its expression reads a definite 0.
    """
    pinned = pinned or {}
    dffs = [n for n in model.nodes if n.kind == "DFF"]
    cut = sorted(set(cut) - set(pinned))
    free = [n for n in model.inputs if n not in cut and n not in pinned]
    choices = [(0, 1)] * len(free) + [(0, 1, X)] * len(cut)
    free += cut
    init = tuple(X if n.init is None else n.init for n in dffs)
    first = prop.settle
    if prop.expr[0] == "known":
        bits = model.registers[prop.expr[1][1]]

        def bad(netval):
            return any(netval[b] == X for b in bits)
    else:
        def bad(netval):
            return eval_prop3(model, netval, prop.expr) == 0

    trans: dict[tuple, tuple[bool, tuple]] = {}
    frontier = {init}
    for frame in range(bound + 1):
        nxt = set()
        for st in frontier:
            for iv in product(*choices):
                key = (st, iv)
                got = trans.get(key)
                if got is None:
                    state = {n.output: s for n, s in zip(dffs, st)}
                    drive = dict(zip(free, iv))
                    drive.update(pinned)
                    netval = eval_nets3(model, state, drive)
                    nstate = tuple(netval[n.inputs[0]] for n in dffs)
                    got = (bad(netval), nstate)
                    trans[key] = got
                if got[0] and frame >= first:
                    return frame
                nxt.add(got[1])
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# truth-table SAT


def brute_force_sat(num_vars: int, clauses) -> bool:
    """Exhaustive satisfiability over at most ~2^20 assignments."""
    for bits in range(1 << num_vars):
        ok = True
        for c in clauses:
            if not any((bits >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0)
                       for l in c):
                ok = False
                break
        if ok:
            return True
    return False
