"""Bounded model checking over a dual-rail unknown-value encoding.

Every signal is modelled by two boolean rails: its value and whether
that value is known.  Unknowns (x) are the pair (0,0).  The known rail
of each gate follows the same pessimistic rules the simulator uses, so
a counterexample found here replays exactly in simulation.

`xprop_encode` builds both rails from `model.compile()` as one graph over
integer ids, held in flat `kind/a/b/c` lists: the value rails first, in
`model.nets` order, then the known rails and the helper gates that
compute them.  Every net has a known-rail node of its own; a NOT
output's is the AND of its input's known rail with itself, which
translates to that rail's literal.  The graph is encoded once per flat
model and kept on it (`model.dual`), so a refinement loop that checks
one model again and again encodes it once.

An unknown starts only at a flop with no init or at a net a check
frees, so a net none of them reaches is known in every frame.  The
encoding marks this once per model: `marked` is `kind` with the known
rail of every net no such flop reaches written ONE, and its helper
gates are never read.  A blackbox is a set of cuts: a box set's base
kinds are `marked` with the known rails its freed nets reach given back
(`_box`).  A check's cuts, pins and boxes are plain data: `cuts` maps
each cut signal to the value it is pinned to, or to None when it is
only cut, and `boxes` names the boxed instances.  They go into the
check's own copy of its box set's base kinds: a freed net, or a net a
cut signal drives, becomes a free (value, known) pair whose driver is
ignored, and a pinned bit a constant.  A cut with no pin is a new
unknown, so the nets it reaches get their known-rail logic back first
(`_unmark`).

Before any frame is translated, one walk over a check's cones
(`_walk_cones`) folds what its pins decide in every frame, on
top of the known rails marked ONE: a node over constants, an AND/OR
that meets its controlling constant or a DFF whose init equals its
constant D becomes a ONE or ZERO of the check's `kind`, and logic that
only such a node reads is never met.
Pinning a register thus collapses everything behind its
decode logic once per check, before the solver ever sees it, which is
what makes the constrain-and-reprove iterations cheap.  Encoding is
then lazy: a node/frame pair is translated to CNF only when some
property cone reaches it, and constants of one frame, such as a flop's
initial value, are folded during translation.  The `Unroller` memoises
literals in one frame-major list, `memo[f * n + id]`, with 0 for a pair
not yet translated.

The properties of a check are split into groups whose cones share no
node, found by the same walk.  Each group has its own `Unroller` and so
its own incremental solver, whose heap, watch lists and learnt clauses
hold only its own cones.  Frames are solved one at a time on the
group's solver, so a failing property always reports its earliest
reachable frame.

A property stops at its cone's sequential depth `d`: the most DFF edges
on any path from the rails it reads to a leaf (an input, a cut or free
pair, or a constant, folded ones included) of this check's live cone.
A folded node is the same constant in every frame, so a pin that cuts
a loop leaves a finite depth.  When no DFF closes a loop in the live
cone, a frame `f >= d` reads no flop's initial value, and inputs and
pairs take fresh variables every frame, so frame `f + 1` is a renamed
copy of frame `f`.  Frames `max(first, d)` and beyond thus hold or fail
together, and proving the first of them proves the bound (Biere et al.,
"Symbolic Model Checking without BDDs", TACAS 1999).

A caller may keep one store of runs in which a property ran out of
budget (`check`'s `reuse`), per model, box set, bound, budget and
properties.  Each run is kept with the kinds its walk met, before
it folded them.  The walk reads the check's `kind` only at the nodes it
meets, and all else it reads is fixed per model, so a later check whose
`kind` equals a stored run's there would walk, and so solve, exactly
the same problem.  It returns that run without walking, as a
refinement check does whose new pin lies outside every property cone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import SemiformError, UnknownInstance
from .frontend import PropertyAst
from .netlist import X, FlatModel
from .sat import Solver
from . import sim as simlib


# ---------------------------------------------------------------------------
# dual-rail model

# node kinds of the dual-rail graph; AND..MUX are `netlist.KIND_CODE`'s
AND, OR, XOR, NOT, MUX, DFF, ZERO, ONE, INPUT, PAIR = range(10)


@dataclass(frozen=True)
class DualModel:
    """The dual-rail graph of a flat model as flat arrays over integer ids.

    Node `i` is `kind[i]` over the ids `a[i]`, `b[i]`, `c[i]`; a DFF
    reads `a` one frame back and starts at `b` (0/1).  ZERO and ONE are
    constants, INPUT is a fresh variable per frame (a net the environment
    drives to a known value) and PAIR a free (value, known) pair.  A
    net's value-rail id is its id in `model.index`, and a value rail
    reads what the net's gate or flop reads in `model.compile()`.

    `marked` is `kind` with the known rail of each net that no flop
    without init reaches written ONE.  `boxed` keeps what `_box` finds
    per box set.  Each check starts from its own copy of its box set's
    base kinds, so the graph holds nothing of any check: `check`'s store
    of timed-out runs, kept by the caller, matches a run by the kinds its
    walk met.
    """

    known: list[int]  # known-rail id of each value-rail id
    kind: list[int]
    marked: list[int]
    a: list[int]
    b: list[int]
    c: list[int]
    boxed: dict = field(default_factory=dict)  # box set -> `_box`'s result


def _unmark(model: FlatModel, dual: DualModel, kind: list[int], starts,
            stops=()):
    """Give the known rails of `starts`, and of every net they reach
    before a net in `stops`, their kinds in `dual.kind` back in `kind`.

    The walk follows the readers of `model.compile()`, whose net ids are
    the value-rail ids.  A reader whose known rail is already
    `dual.kind`'s is not walked: in every list this fills, an unknown
    reaches it and all it drives.
    """
    known, orig = dual.known, dual.kind
    readers = model.compile().readers
    work = list(starts)
    for v in work:
        kind[known[v]] = orig[known[v]]
    while work:
        for o in readers[work.pop()]:
            ko = known[o]
            if kind[ko] != orig[ko] and o not in stops:
                kind[ko] = orig[ko]
                work.append(o)


def xprop_encode(model: FlatModel) -> DualModel:
    """Attach a known rail to every net of the flat model.

    Ids `0..len(model.nets)-1` are the value rails in `model.nets` order;
    the known rails follow, then the helper nodes that compute them, in
    the order of the compiled gates.  Every net has a known-rail node of
    its own, so a check can free any net by writing its two nodes over
    (see `_constrain`).
    """
    cm = model.compile()
    n = cm.n_nets
    kind, a, b, c = [INPUT] * n, [0] * n, [0] * n, [0] * n

    def node(k: int, x: int = 0, y: int = 0, z: int = 0) -> int:
        kind.append(k)
        a.append(x)
        b.append(y)
        c.append(z)
        return len(kind) - 1

    def gate(i: int, k: int, x: int, y: int = 0, z: int = 0):
        kind[i], a[i], b[i], c[i] = k, x, y, z

    # every rail starts out known: the environment drives undriven nets
    known = [node(ONE) for _ in range(n)]
    for o, value in zip(cm.const_idx, cm.const_val):
        kind[o] = ONE if value else ZERO
    for q, d, init in zip(cm.dff_q, cm.dff_d, cm.dff_init):
        gate(q, DFF, d, 0 if init == X else init)
        gate(known[q], DFF, known[d], int(init != X))
    for k, x, y, z, o in cm.gates:
        gate(o, k, x, y, z)
        kx, ky, ko = known[x], known[y], known[o]
        if k == NOT:
            # known exactly when the input is; `Unroller.lit` folds the
            # AND of a rail with itself to that rail's literal
            gate(ko, AND, kx, kx)
        elif k == XOR:
            gate(ko, AND, kx, ky)
        elif k == MUX:  # y when x, else z
            kz = known[z]
            t1 = node(AND, kx, node(MUX, x, ky, kz))
            nx = node(NOT, node(XOR, y, z))
            t3 = node(AND, node(AND, ky, kz), nx)
            gate(ko, OR, t1, t3)
        else:
            # known when both sides known, or either side is known at
            # the controlling value (0 for AND, 1 for OR)
            if k == AND:
                cx, cy = node(NOT, x), node(NOT, y)
            else:
                cx, cy = x, y
            t1, t2, t3 = node(AND, kx, ky), node(AND, kx, cx), node(AND, ky, cy)
            gate(ko, OR, node(OR, t1, t2), t3)

    dual = DualModel(known, kind, kind.copy(), a, b, c)
    dual.marked[n:2 * n] = [ONE] * n  # the known rails, in `known` order
    _unmark(model, dual, dual.marked,
            [q for q, init in zip(cm.dff_q, cm.dff_init) if init == X])
    dual.boxed[frozenset()] = dual.marked, (), frozenset()  # no box
    return dual


# ---------------------------------------------------------------------------
# lazy unroller


class _EncodeTimeout(Exception):
    pass


class Unroller:
    """Translates (node id, frame) pairs to solver literals on demand.

    One Unroller, with its own solver, serves each group of a check's
    properties whose cones share no node with another group's (see
    `_walk_cones`).  The graph is `model.dual`, read through `kind`: the
    check's copy of its box set's base kinds with its cuts, pins and
    folds in (see `_constrain` and `_walk_cones`), which its groups
    share.
    `partner` maps the known rail of each free pair, the freed and the
    cut nets, to its value rail.

    Built with `log=True`, `log` holds the solver's calls as iCNF lines
    in call order: each clause added, and an `a <lits> 0` line for each
    solve (`_attempt`), so the lines alone are the group's whole problem.

    Literal 1 is pinned true, so +1/-1 act as constants and folding is
    just integer comparison.  `memo[f * n + id]` holds the literal of
    node `id` at frame `f`, 0 while untranslated, where `n` is the number
    of dual-rail nodes; it grows by one frame of n slots as deeper frames
    are asked for.
    """

    TRUE = 1
    FALSE = -1

    def __init__(self, model: FlatModel, kind: list[int],
                 partner: dict[int, int], log: bool = False):
        self.dual = model.dual
        self.index = model.index
        self.kind = kind
        self.partner = partner
        self.n = len(kind)
        self.solver = Solver()
        self.solver.ensure_vars(1)
        self.log: list[str] | None = [] if log else None
        self.n_clauses = 0  # clauses emitted; the solver's list also holds learnts
        self._add([1])
        self.memo: list[int] = []
        self.deadline: float | None = None
        self._ops = 0

    # -- clause emission -----------------------------------------------------

    def _add(self, clause):
        self.n_clauses += 1
        if self.log is not None:
            self.log.append(" ".join(map(str, clause)) + " 0")
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
        # `lit` folds a constant select before it calls this
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

    # -- node translation -------------------------------------------------------

    def lit(self, i: int, f: int) -> int:
        """Literal of node `i` at frame `f`, translating its cone first.

        Depth first: a node whose inputs are not all translated pushes
        the first missing one and is looked at again once it is done.
        AND/OR stop at the first input with the controlling value, and a
        MUX with a constant select visits only the branch it picks.  A
        node the walk folded is a ONE or ZERO of `kind` and costs one
        step; what folds here is what holds in frame `f` alone, such as
        a flop's init at frame 0.
        """
        n, memo = self.n, self.memo
        key = f * n + i
        if key >= len(memo):
            memo.extend([0] * ((f + 1) * n - len(memo)))
        r = memo[key]
        if r:
            return r
        kind, A, B, C = self.kind, self.dual.a, self.dual.b, self.dual.c
        add, new, deadline, ops = self._add, self._new, self.deadline, self._ops
        stack = [key]
        while stack:  # a key is pushed only while its slot is 0
            top = stack[-1]
            ops += 1
            if not ops & 4095 and deadline is not None \
                    and time.perf_counter() > deadline:
                self._ops = ops
                raise _EncodeTimeout()
            i = top % n
            base = top - i
            k = kind[i]
            if k <= MUX:  # a gate: its first input comes first
                x = memo[base + A[i]]
                if not x:
                    stack.append(base + A[i])
                    continue
                sign = -1 if k == OR else 1  # OR(x, y) = -AND(-x, -y)
                if k == NOT:
                    r = -x
                elif k <= OR and x == -sign:
                    r = x  # the controlling value: skip the other cone
                elif k == MUX and (x == 1 or x == -1):
                    pick = base + (B[i] if x == 1 else C[i])
                    r = memo[pick]
                    if not r:
                        stack.append(pick)
                        continue
                else:
                    y = memo[base + B[i]]
                    if not y:
                        stack.append(base + B[i])
                        continue
                    if k == XOR:
                        r = self._xor(x, y)
                    elif k == MUX:
                        z = memo[base + C[i]]
                        if not z:
                            stack.append(base + C[i])
                            continue
                        r = self._mux(x, y, z)
                    else:  # two-input AND, folded as `_and` would
                        x, y = sign * x, sign * y
                        if y == -1 or x == -y:
                            r = -1
                        elif x == 1 or x == y:
                            r = y
                        elif y == 1:
                            r = x
                        else:
                            r = new()
                            add([-r, x])
                            add([-r, y])
                            add([r, -x, -y])
                        r *= sign
            elif k == DFF:
                if not base:
                    r = 1 if B[i] else -1
                else:
                    r = memo[base - n + A[i]]
                    if not r:
                        stack.append(base - n + A[i])
                        continue
            elif k == ONE:
                r = 1
            elif k == ZERO:
                r = -1
            elif k == INPUT:
                r = new()  # environment-driven input, fresh per frame
            else:  # PAIR: allocate the value and known rails together
                v = self.partner.get(i, i)
                vv, kk = new(), new()
                add([-vv, kk])  # unknown values are canonical (0,0)
                memo[base + v] = vv
                memo[base + self.dual.known[v]] = kk
                r = memo[top]
            memo[top] = r
            stack.pop()
        self._ops = ops
        return memo[key]

    def pair(self, net: str, frame: int) -> tuple[int, int]:
        """(value, known) literals of a base-model net."""
        i = self.index[net]
        return self.lit(i, frame), self.lit(self.dual.known[i], frame)

    def known(self, net: str, frame: int) -> int:
        """Known-rail literal of a base-model net."""
        return self.lit(self.dual.known[self.index[net]], frame)

    def peek(self, net: str, frame: int) -> tuple[int, int]:
        """(value, known) literals of a net if translated, else 0s; a
        pinned net, which a fold may leave untranslated, as its constant."""
        i = self.index[net]
        if self.kind[i] == ONE or self.kind[i] == ZERO:
            return (1 if self.kind[i] == ONE else -1), 1
        base = frame * self.n
        if base >= len(self.memo):
            return 0, 0
        return self.memo[base + i], self.memo[base + self.dual.known[i]]


# ---------------------------------------------------------------------------
# a check's cones


def _box(model: FlatModel, boxes: frozenset[str]):
    """A box set's base kinds, the value-rail ids it frees and the nets
    it hides, found once per model and set and kept on `model.dual`.

    A box set frees each net it drives that a gate outside it reads or
    that is a model output; like a cut net, it becomes a free pair (see
    `_constrain`), so no cone meets the set's logic.  The base kinds are
    `marked` with the known rails the freed nets reach given back.  A
    net only the set's gates drive or read, and no model input or
    output, is hidden: a cut may not name it.
    """
    got = model.dual.boxed.get(boxes)
    if got is None:
        outputs = set(model.outputs)
        driven, inside, outside = set(), set(), set()
        for nd, inst in zip(model.nodes, model.node_instance):
            if inst in boxes:
                driven.add(nd.output)
                inside.update(nd.inputs)
            else:
                outside.update(nd.inputs)
                outside.add(nd.output)
        freed = tuple(sorted(model.index[net] for net in driven
                             if net in outside or net in outputs))
        base = model.dual.marked.copy()
        _unmark(model, model.dual, base, freed)
        hidden = (driven | inside) - outside - outputs.union(model.inputs)
        got = model.dual.boxed[boxes] = base, freed, frozenset(hidden)
    return got


def _constrain(model: FlatModel, cut, pins: dict[str, int],
               boxes=frozenset()) -> tuple[list[int], dict[int, int]]:
    """This check's copy of its box set's base kinds (see `_box`) with
    its cut nets `cut`, its `{register: value}` pins and its boxes in.

    A cut net that no pin fixes is a new unknown: each net it reaches,
    up to the next freed or cut net, gets its known-rail node's kind
    back from `model.dual.kind`.  Then each freed net and each net in
    `cut` becomes a free pair (both of its nodes PAIR, its driver
    unread), and each pinned bit a constant with a ONE known rail.  Also
    returns `partner`, which maps the known rail of each free pair to
    its value rail.
    """
    dual = model.dual
    index, known = model.index, dual.known
    base, freed, _ = _box(model, boxes)
    kind = base.copy()
    pairs = set(freed).union(index[net] for net in cut)
    bits = {}  # value-rail id -> pinned bit; each is cut, so checked already
    for reg, value in pins.items():
        for i, bit in enumerate(model.registers[reg]):
            bits[index[bit]] = (value >> i) & 1
    _unmark(model, dual, kind, [v for v in (index[net] for net in cut)
                                if v not in bits], pairs)
    for v in pairs:
        kind[v] = kind[known[v]] = PAIR
    for v, bit in bits.items():
        kind[v] = ONE if bit else ZERO
        kind[known[v]] = ONE
    return kind, {known[v]: v for v in pairs}


_UNSEEN, _LOOP = -1, 1 << 40  # walk marks: not met yet; a loop's depth
_FIRST, _REST = _LOOP + 1, _LOOP + 2  # open: first input pushed, rest pushed


def _walk_cones(model: FlatModel, kind: list[int], partner: dict[int, int],
                nets: list[list[str]]):
    """Fold, depth and group the cones of a check's properties.

    The cone of property `p` is what the two rails of each net in
    `nets[p]` reach in this check's `kind`, walked as `Unroller.lit`
    translates it but over the constants that hold in every frame.  An
    AND/OR visits its second input only when its first is not the
    controlling constant, a MUX with a constant select only the branch
    it picks, and dead logic, which no visit reaches, is never met.  A
    node its visited inputs decide folds: NOT, XOR and MUX over
    constants, an AND/OR that meets its controlling constant, a DFF
    whose init equals its constant D.  The walk writes ONE or ZERO over
    its kind, so `lit` returns it at once.  The known rail of a net no
    unknown reaches is a ONE leaf already (see `_constrain`), so the
    helper gates behind it are never met.  One depth-first walk per
    property, all sharing one memo, finds:

    - its sequential depth: the most DFF edges on any path from the
      rails to a leaf, or None when a DFF closes a loop in the cone.
      Leaves are the INPUT, PAIR, ONE and ZERO nodes, folds included, so
      cut, freed and pinned nets end paths and a fold ends a loop.
      A node is open from its first visit to its close, when its depth
      is taken from its visited inputs: one still open is on the path
      to it, which closes a loop.
    - its group: each node's owner is the property whose walk met it
      first, each property's rails first, so a node owned by an earlier
      property was met by that property's walk, and the two groups
      merge.  A pair's two rails are one leaf, as `lit` allocates them
      together.  Properties of different groups share no node.  A group
      is named by its smallest property index.

    Returns the depths and the groups, then the ids the walk met in the
    order it first met them and each one's kind then.  A node folds only
    after it is met, so that is its kind before the walk: what `check`'s
    store matches a later check's `kind` against.
    """
    dual = model.dual
    index, known, A, B, C = model.index, dual.known, dual.a, dual.b, dual.c
    unseen, loop, first, rest = _UNSEEN, _LOOP, _FIRST, _REST
    ctrl = (ZERO, ONE, -1, -1, -1, -1)  # an AND's, an OR's; -1 is no kind
    d = [unseen] * len(kind)
    # the property whose walk met each node first; a node with a depth
    # mark has one
    owner = [-1] * len(kind)
    group = list(range(len(nets)))  # union-find parents
    depths: list[int | None] = []
    met: list[int] = []  # ids in the order they are first met
    was: list[int] = []  # the kind of each when it was first met

    def find(p: int) -> int:
        while group[p] != p:
            p = group[p]
        return p

    def merge(p: int, q: int):
        p, q = find(p), find(q)
        group[max(p, q)] = min(p, q)

    for p, ns in enumerate(nets):
        rails = [r for net in ns for r in (index[net], known[index[net]])]
        for r in rails:
            if owner[r] < 0:
                owner[r] = p
                met.append(r)
                was.append(kind[r])
            elif owner[r] < p:
                merge(p, owner[r])
        worst = 0
        for root in rails:
            stack = [root]
            while stack:
                i = stack[-1]
                di = d[i]
                if di == unseen:
                    k = kind[i]
                    if owner[i] < 0:
                        owner[i] = p
                        met.append(i)
                        was.append(k)
                    if k > DFF:  # a leaf; a pair closes both of its rails
                        stack.pop()
                        d[i] = 0
                        if k == PAIR:
                            j = partner[i] if i in partner else known[i]
                            d[j] = 0
                            if owner[j] < 0:
                                owner[j] = p
                                met.append(j)
                                was.append(kind[j])
                        continue
                    d[i] = first
                    j = A[i]
                    if d[j] == unseen:
                        stack.append(j)
                        continue
                    if owner[j] < p:
                        merge(p, owner[j])
                elif di <= loop:  # closed
                    stack.pop()
                    continue
                else:
                    k = kind[i]
                a = A[i]
                x = kind[a]  # the first input is closed, or open on the path
                if di != rest and k != NOT and k != DFF:
                    d[i] = rest  # and push the inputs the first leaves live
                    if k != MUX:
                        ins = () if x == ctrl[k] else (B[i],)
                    elif x == ONE or x == ZERO:
                        ins = (B[i] if x == ONE else C[i],)
                    else:
                        ins = (B[i], C[i])
                    top = len(stack)
                    for j in ins:
                        if d[j] == unseen:
                            stack.append(j)
                        elif owner[j] < p:
                            merge(p, owner[j])
                    if len(stack) > top:
                        continue
                # close: fold, or take the depth over the visited inputs
                stack.pop()
                dx, c = d[a], 0
                if x == ONE or x == ZERO:
                    if k == NOT:
                        c = ONE + ZERO - x
                    elif k == DFF:
                        c = x if x == ZERO + B[i] else 0
                    elif x == ctrl[k]:
                        c = x
                    else:
                        j = B[i] if k != MUX or x == ONE else C[i]
                        y = kind[j]
                        if y == ONE or y == ZERO:
                            c = y if k != XOR else ONE if x != y else ZERO
                        dx = d[j]
                elif k != NOT and k != DFF:
                    y = kind[B[i]]
                    if d[B[i]] > dx:
                        dx = d[B[i]]
                    if k == MUX:
                        if y == kind[C[i]] and (y == ONE or y == ZERO):
                            c = y
                        if d[C[i]] > dx:
                            dx = d[C[i]]
                    elif y == ctrl[k]:
                        c = y
                if c:
                    kind[i] = c
                    d[i] = 0
                    continue
                if k == DFF and dx < loop:
                    dx += 1
                d[i] = dx if dx < loop else loop
            if d[root] > worst:
                worst = d[root]
        depths.append(None if worst == loop else worst)
    return depths, [find(p) for p in range(len(nets))], met, was


def _kinds_at(ids: list[int]):
    """A function that reads a kind list at `ids`, as a tuple."""
    if len(ids) > 1:
        return itemgetter(*ids)  # one C call
    return lambda kind: tuple(kind[i] for i in ids)  # itemgetter() raises


# ---------------------------------------------------------------------------
# property translation


def _expr_pair(enc: Unroller, model: FlatModel, expr, frame: int):
    """(value, known) literals of a property expression at `frame`, by
    `sim.eval_expr3`'s rules, which replay checks: `("known", sig)` is a
    known 1 when every bit of `sig` is known, else a known 0."""
    op = expr[0]
    if op == "sig":
        bits = simlib.sig_nets(model, expr)
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
    if op == "known":
        return enc._and([enc.known(bit, frame)
                         for bit in simlib.sig_nets(model, expr[1])]), enc.TRUE
    raise SemiformError(f"unexpected expression {op}")


def _operand_bits(enc: Unroller, model: FlatModel, a, b, frame: int):
    def width_of(e):
        return len(simlib.sig_nets(model, e)) if e[0] == "sig" else None

    w = width_of(a) or width_of(b) or 1

    def bits_of(e):
        if e[0] == "sig":
            return [enc.pair(bit, frame) for bit in simlib.sig_nets(model, e)]
        v = e[1]
        return [((enc.TRUE if (v >> i) & 1 else enc.FALSE), enc.TRUE)
                for i in range(w)]

    return bits_of(a), bits_of(b)


def _violation_lit(enc: Unroller, model: FlatModel, prop: PropertyAst,
                   frame: int) -> int:
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


@dataclass
class BmcRun:
    outcomes: dict[str, PropertyOutcome] = field(default_factory=dict)
    k: int = 0
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


def check(model: FlatModel, props,
          cuts: dict[str, int | None] | None = None, boxes=(), k: int = 20,
          budget: float | None = None, dump_icnf: str | None = None,
          reuse: dict | None = None) -> BmcRun:
    """Bounded check of `props` on `model` under its cuts, pins and boxes.

    `cuts` maps each cut signal, a register or a wire, to the value it is
    pinned to, or to None when it is only cut; only a register can be
    pinned.  `boxes` names the blackboxed instances.  The dual-rail
    graph and each box set's base kinds come from caches kept with
    `model`; cuts, pins, boxes and the folds they decide are written
    into this check's copy of the node kinds only, so the model is left
    as it was found.  A check with no property left to solve returns
    before the graph is encoded, unless it has a cut to validate against
    a box, and one that also has no cut to validate, such as a check
    whose every property blackboxing makes vacuous, returns before any
    box is read.  A box that names no instance still raises
    `UnknownInstance`.

    The pending properties are split into groups whose cones share no
    node (see `_walk_cones`), and each group gets its own `Unroller` and
    so its own solver; `n_vars`, `n_clauses` and `n_conflicts` are sums
    over the groups.  The budget is split evenly over the unresolved
    properties and redistributed in rounds, so one stubborn property
    cannot starve the rest.  Each property is solved frame by frame, from
    its `settle` on, on its group's incremental solver; a FAIL therefore
    carries its earliest reachable frame.  A property whose live cone has no loop
    through a flop is solved only up to `min(k, max(first frame, depth))`;
    when those frames hold it passes with bound `k`, since every later
    frame is a renamed copy of the last one solved.

    With `reuse`, a run where a property ran out of budget is stored
    under the model, the box set, `k`, the budget and the properties,
    which fix the vacuous names and the nets each property reads,
    together with the kinds its walk met (see `_walk_cones`).  A check
    under a stored key whose `kind` equals a stored run's at those
    nodes, as after a pin outside every cone, would walk and solve the
    same problem: it returns that run without walking, and charges what
    it did.  Under a seconds budget that stands in for a rerun of the
    same clauses at the same budget; under a work limit it would be
    exact.

    With `dump_icnf`, each group's solver calls are written, once the
    check is done and also when a property ran out of budget, to
    `dump_icnf/group<g>.icnf` in iCNF, the incremental format of SAT
    Race 2015: a `p inccnf` header, a `c` line naming the group's
    properties, then the clauses and one `a <lits> 0` line per solve,
    in call order.  `g` is the group's smallest property index.  A check
    that returns before it walks the cones, a reused one included,
    writes nothing.
    """
    if k < 0 or (budget is not None and budget < 0):
        raise ValueError(f"bound and budget must be >= 0, got {k}, {budget}")
    start = time.perf_counter()
    cuts = cuts or {}
    boxes = frozenset(boxes)

    run = BmcRun(k=k)
    pending: list[PropertyAst] = []
    props = sorted(props, key=lambda p: p.name)
    for prop in props:
        dead = sorted(prop.scope & boxes) + \
            sorted(i for i in prop.scope if i not in model.instances)
        if dead:
            run.outcomes[prop.name] = PropertyOutcome(
                prop.name, "VACUOUS", reason=f"scope blackboxed: {dead[0]}")
        elif prop.settle > k:
            run.outcomes[prop.name] = PropertyOutcome(
                prop.name, "UNDETERMINED", reason="bound",
                bound=k)
        else:
            pending.append(prop)
    if not boxes <= set(model.instances):
        unknown = min(boxes.difference(model.instances))
        raise UnknownInstance(f"model {model.name} has no instance {unknown}")
    if not (pending or cuts):
        return run
    if model.dual is None and (pending or (boxes and cuts)):
        model.dual = xprop_encode(model)
    hidden = _box(model, boxes)[2] if boxes and cuts else ()
    cut = {}  # net -> the signal that cuts it
    for signal in cuts:
        for bit in model.signal_bits(signal):
            cut[bit] = signal
    for net, signal in cut.items():
        if net not in model.index or net in hidden:
            raise SemiformError(f"stopat {signal} names net {net}, which "
                                "nothing drives or reads")
    pins = {r: v for r, v in cuts.items() if v is not None}
    for r, value in pins.items():
        bits = model.registers.get(r)
        if bits is None:
            raise SemiformError(f"assume on unknown register {r}")
        if value >> len(bits):
            raise SemiformError(f"assume value {value:#x} overflows {r}")
    if not pending:
        return run
    nets = [simlib.check_prop_nets(model, p) for p in pending]
    kind, partner = _constrain(model, cut, pins, boxes)
    key = (model, boxes, k, budget, tuple(props))
    if reuse is not None:
        for kinds_at, before, stored in reuse.get(key, ()):
            if kinds_at(kind) == before:
                return stored
    depths, groups, met, before = _walk_cones(model, kind, partner, nets)
    total_deadline = None if budget is None else start + budget
    next_frame = {p.name: p.settle for p in pending}
    last, encs, units = {}, {}, {}
    for p, d, g in zip(pending, depths, groups):
        last[p.name] = k if d is None else min(k, max(next_frame[p.name], d))
        if g not in units:
            units[g] = Unroller(model, kind, partner,
                                log=dump_icnf is not None)
        encs[p.name] = units[g]

    while pending:
        now = time.perf_counter()
        if total_deadline is not None and total_deadline - now < 0.005:
            for prop in pending:
                run.outcomes[prop.name] = PropertyOutcome(
                    prop.name, "UNDETERMINED", reason="timeout",
                    bound=max(0, next_frame[prop.name] - 1))
            break
        share = None
        if total_deadline is not None:
            share = (total_deadline - now) / len(pending)
        still = []
        for prop in pending:
            deadline = None if share is None else \
                min(time.perf_counter() + share, total_deadline)
            out = _attempt(encs[prop.name], model, prop, k, last[prop.name],
                           next_frame, deadline)
            if out is None:
                still.append(prop)
            else:
                run.outcomes[prop.name] = out
        pending = still
        if share is None:
            break  # unbounded: one pass resolves everything

    for enc in units.values():
        run.n_vars += enc.solver.num_vars
        run.n_clauses += enc.n_clauses
        run.n_conflicts += enc.solver.n_conflicts
    if dump_icnf is not None:
        os.makedirs(dump_icnf, exist_ok=True)
        for g, enc in units.items():
            names = [name for name, e in encs.items() if e is enc]
            with open(os.path.join(dump_icnf, f"group{g}.icnf"), "w") as fh:
                fh.write("\n".join(["p inccnf", "c " + " ".join(names),
                                    *enc.log]) + "\n")
    if reuse is not None and any(o.reason == "timeout"
                                 for o in run.outcomes.values()):
        # a PASS or FAIL ends its loop anyway
        reuse.setdefault(key, []).append((_kinds_at(met), tuple(before), run))
    return run


def _attempt(enc: Unroller, model: FlatModel, prop: PropertyAst, k: int,
             last: int, next_frame: dict[str, int], deadline: float | None
             ) -> PropertyOutcome | None:
    """Run one budget slice; None means still unresolved.

    Frames up to `last` are solved; once they all hold, so does every
    frame up to `k`.
    """
    enc.deadline = deadline
    try:
        while next_frame[prop.name] <= last:
            f = next_frame[prop.name]
            if deadline is not None and time.perf_counter() > deadline:
                return None
            viol = _violation_lit(enc, model, prop, f)
            if viol == enc.FALSE:
                next_frame[prop.name] = f + 1
                continue
            assumed = [viol] if viol != enc.TRUE else []
            if enc.log is not None:
                enc.log.append(" ".join(["a", *map(str, assumed), "0"]))
            res = enc.solver.solve(assumed, deadline)
            if res == "timeout":
                return None
            if res == "unsat":
                next_frame[prop.name] = f + 1
                continue
            trace = _extract_trace(enc, model, prop.name, f)
            if not replay_counterexample(model, prop, trace):
                raise SemiformError(
                    f"counterexample for {prop.name} at frame {f} does not "
                    "replay in simulation")
            return PropertyOutcome(prop.name, "FAIL", frame=f, trace=trace)
    except _EncodeTimeout:
        return None
    finally:
        enc.deadline = None
    return PropertyOutcome(prop.name, "PASS", bound=k)


def _extract_trace(enc: Unroller, model: FlatModel, prop: str,
                   frame: int) -> CexTrace:
    nets = sorted(set(model.inputs)
                  | {model.nets[v] for v in enc.partner.values()})
    rows = []
    mv = enc.solver.model_value
    for t in range(frame + 1):
        row = []
        for n in nets:
            vlit, klit = enc.peek(n, t)
            known = vlit and (not klit or mv(klit))
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
