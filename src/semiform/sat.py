"""CDCL satisfiability solver with incremental assumptions.

Architecture after MiniSat (Eén & Sörensson, "An Extensible SAT-solver",
SAT 2003): two watched literals, first-UIP conflict learning, VSIDS-style
variable activity with phase saving, Luby restarts and learnt-clause
deletion.  No internal randomness: given the same clauses and assumptions
the search is identical, which the reports rely on.

Internally a literal is encoded as `2v` (v true) or `2v+1` (v false), so
negation is `x ^ 1` and the variable is `x >> 1`.  `value[x]` holds 1, -1
or 0 (unassigned) for every encoded literal, kept in step for both
polarities, so testing a literal is one list read.  The public methods
(`add_clause`, `solve`, `model_value`) take DIMACS literals;
`clauses` holds encoded literals, with None for a deleted learnt clause.

`watches[x]` lists the clauses watching literal x as flat pairs
`[ci, blocker, ci, blocker, ...]`.  The blocker is another literal of
clause ci; when it is true the clause is satisfied and propagation skips
it without touching the clause.  The two watched literals of a live
clause are always its first two.  Every 8,192 learnt clauses `_reduce_db`
drops the less active half of the unlocked learnts longer than two
literals, sets their `clauses` entries to None and purges them from every
watch list, so propagation never meets a deleted clause.

Counters: `n_conflicts`, `n_learnts` (learnt clauses recorded, not counting
units), and `n_propagations`, the number of watch entries visited during
propagation, whether or not the visit touched the clause: an entry
skipped for its true blocker counts as visited.

The solver object is incremental: clauses may be added between `solve`
calls and learned clauses are kept (they are implied by the database, so
they stay valid when assumptions change).
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from .errors import SemiformError


def _luby(i: int) -> int:
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


def _enc(lit: int) -> int:
    """Encoded form of DIMACS literal `lit`."""
    return lit << 1 if lit > 0 else (-lit << 1) | 1


class Solver:
    """One incremental CDCL problem; see the module docstring.

    Nothing is shared between instances, so separate problems get
    separate solvers: `bmc.check` gives each group of properties whose
    cones share no node its own, with a heap, watch lists and learnt
    clauses over that group's variables only.
    """

    RESTART_BASE = 128
    REDUCE_INTERVAL = 8192  # learnt clauses between database reductions
    VAR_DECAY = 1.0 / 0.95
    CLA_DECAY = 1.0 / 0.999

    def __init__(self):
        self.clauses: list[list[int] | None] = []
        self.watches: list[list[int]] = [[], []]  # indexed by encoded literal
        self.value: list[int] = [0, 0]  # indexed by encoded literal
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]  # clause index
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]  # sign bit of the last value
        self.seen: list[bool] = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.cla_act: dict[int, float] = {}
        self.ok = True
        self.n_conflicts = 0
        self.n_propagations = 0
        self.n_learnts = 0
        self.next_reduce = self.REDUCE_INTERVAL
        self._model: list[int] = []

    # -- variables and clauses ----------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.level) - 1

    def new_var(self) -> int:
        self.value.append(0)
        self.value.append(0)
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.phase.append(0)
        self.seen.append(False)
        self.watches.append([])
        self.watches.append([])
        v = len(self.level) - 1
        heappush(self.heap, (0.0, v))
        return v

    def ensure_vars(self, n: int):
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, lits) -> bool:
        """Add a clause.  Returns False once the DB is UNSAT."""
        if not self.ok:
            return False
        if self.trail_lim:
            self._cancel_until(0)
        value = self.value
        out = []
        for lit in lits:
            x = lit << 1 if lit > 0 else (-lit << 1) | 1  # _enc, inlined
            if x >= len(value):
                self.ensure_vars(x >> 1)
            v = value[x]
            if v == 1:
                return True  # already satisfied at level 0
            if v == -1 or x in out:
                continue  # false at level 0, or a repeat
            if x ^ 1 in out:
                return True  # tautology
            out.append(x)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], -1)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        ci = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]] += (ci, out[1])
        self.watches[out[1]] += (ci, out[0])
        return True

    # -- trail ----------------------------------------------------------------

    def _enqueue(self, x: int, reason_ci: int):
        self.value[x] = 1
        self.value[x ^ 1] = -1
        v = x >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(x)

    def _cancel_until(self, lvl: int):
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        trail = self.trail
        value = self.value
        phase = self.phase
        activity = self.activity
        heap = self.heap
        bound = trail_lim[lvl]
        # reason[] of unassigned variables is stale and never read
        for x in reversed(trail[bound:]):
            v = x >> 1
            phase[v] = x & 1
            value[x] = 0
            value[x ^ 1] = 0
            heappush(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[lvl:]
        self.qhead = bound

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        trail = self.trail
        value = self.value
        watches = self.watches
        clauses = self.clauses
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        visited = 0
        confl = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            wl = watches[false_lit]
            n = len(wl)
            i = j = 0
            while i < n:
                ci = wl[i]
                blocker = wl[i + 1]
                i += 2
                if value[blocker] == 1:
                    wl[j] = ci
                    wl[j + 1] = blocker
                    j += 2
                    continue
                c = clauses[ci]
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                if first != blocker and value[first] == 1:
                    wl[j] = ci
                    wl[j + 1] = first
                    j += 2
                    continue
                # look for a new literal to watch; a three-literal clause,
                # the most common, has one candidate and skips the loop
                n_c = len(c)
                if n_c == 3:
                    x = c[2]
                    if value[x] != -1:
                        c[1] = x
                        c[2] = false_lit
                        watches[x] += (ci, first)
                        continue
                elif n_c > 3:
                    for k in range(2, n_c):
                        x = c[k]
                        if value[x] != -1:
                            c[1] = x
                            c[k] = false_lit
                            watches[x] += (ci, first)
                            break
                    else:
                        k = 0  # nothing to move to (a break leaves k >= 2)
                    if k:
                        continue
                # none: the clause is unit or conflicting
                wl[j] = ci
                wl[j + 1] = first
                j += 2
                if value[first] == -1:
                    confl = c
                    break
                value[first] = 1
                value[first ^ 1] = -1
                v = first >> 1
                level[v] = lvl
                reason[v] = ci
                trail.append(first)
            visited += i
            if confl is not None:
                del wl[j:i]
                qhead = len(trail)
                break
            del wl[j:]
        self.qhead = qhead
        self.n_propagations += visited >> 1
        return confl

    # -- learning ---------------------------------------------------------------

    def _rescale_var_activity(self):
        activity = self.activity
        for i in range(1, len(activity)):
            activity[i] *= 1e-100
        self.var_inc *= 1e-100

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        seen = self.seen
        level = self.level
        activity = self.activity
        trail = self.trail
        reason = self.reason
        clauses = self.clauses
        cla_act = self.cla_act
        var_inc = self.var_inc
        learnt = [0]
        counter = 0
        pv = 0  # the variable resolved on; none yet, and var 0 is never seen
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        c = confl
        while True:
            # pv stays seen while its reason clause is read, which skips
            # the clause's own literal of pv
            for q in c:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    a = activity[v] + var_inc
                    activity[v] = a
                    if a > 1e100:
                        self._rescale_var_activity()
                        var_inc = self.var_inc
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            seen[pv] = False
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            pv = p >> 1
            counter -= 1
            if counter == 0:
                break
            ci = reason[pv]
            # only learnt clauses live in cla_act; originals are never
            # deletable, which matters with incremental add_clause
            # interleaved between solves
            act = cla_act.get(ci)
            if act is not None:
                act += self.cla_inc
                cla_act[ci] = act
                if act > 1e20:
                    for k in cla_act:
                        cla_act[k] *= 1e-20
                    self.cla_inc *= 1e-20
            c = clauses[ci]
        learnt[0] = p ^ 1
        seen[pv] = False
        # every other seen variable of the current level was unmarked as
        # the walk passed it; the rest are the learnt clause's
        bt = 0
        mi = 1
        for i in range(1, len(learnt)):
            q = learnt[i]
            seen[q >> 1] = False
            lv = level[q >> 1]
            if lv > bt:  # the first literal of the highest level below
                bt = lv
                mi = i
        if mi > 1:  # it goes to position 1, to be watched
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, bt

    def _record_learnt(self, learnt: list[int]):
        if len(learnt) == 1:
            self._enqueue(learnt[0], -1)
            return
        ci = len(self.clauses)
        self.clauses.append(learnt)
        self.n_learnts += 1
        self.cla_act[ci] = self.cla_inc
        self.watches[learnt[0]] += (ci, learnt[1])
        self.watches[learnt[1]] += (ci, learnt[0])
        self._enqueue(learnt[0], ci)

    def _reduce_db(self):
        reason = self.reason
        clauses = self.clauses
        cla_act = self.cla_act
        locked = {reason[x >> 1] for x in self.trail}
        cand = [ci for ci in cla_act
                if ci not in locked and len(clauses[ci]) > 2]
        if len(cand) < 2000:
            return
        cand.sort(key=cla_act.__getitem__)
        for ci in cand[: len(cand) // 2]:
            clauses[ci] = None
            del cla_act[ci]
        for wl in self.watches:
            live = [k for k in range(0, len(wl), 2)
                    if clauses[wl[k]] is not None]
            if 2 * len(live) < len(wl):
                wl[:] = [x for k in live for x in (wl[k], wl[k + 1])]

    # -- search -------------------------------------------------------------------

    def _decide(self) -> int | None:
        # lazy heap: entries may carry stale priorities, which only skews
        # pick order.  Every unassigned variable has an entry (`new_var`,
        # `_cancel_until`), and `solve` assigns the one returned at once.
        value = self.value
        while self.heap:
            _, v = heappop(self.heap)
            if value[v << 1] == 0:
                return v
        return None

    def solve(self, assumptions=(), deadline: float | None = None) -> str:
        """Returns 'sat', 'unsat', or 'timeout'."""
        if not self.ok:
            return "unsat"
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            return "unsat"
        assumed = [_enc(a) for a in assumptions]
        if assumed:
            self.ensure_vars(max(assumed) >> 1)
        value = self.value
        level = self.level
        reason = self.reason
        phase = self.phase
        trail = self.trail
        trail_lim = self.trail_lim
        propagate = self._propagate
        conflicts_here = 0
        passes = 0
        restart_n = 1
        limit = _luby(restart_n) * self.RESTART_BASE
        while True:
            if deadline is not None:
                passes += 1
                if (passes & 63) == 0 and time.perf_counter() > deadline:
                    self._cancel_until(0)
                    return "timeout"
            confl = propagate()
            if confl is not None:
                self.n_conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    return "unsat"
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._record_learnt(learnt)
                self.var_inc *= self.VAR_DECAY
                self.cla_inc *= self.CLA_DECAY
                if self.n_learnts >= self.next_reduce:
                    self.next_reduce += self.REDUCE_INTERVAL
                    self._reduce_db()
                continue
            if conflicts_here >= limit:
                conflicts_here = 0
                restart_n += 1
                limit = _luby(restart_n) * self.RESTART_BASE
                self._cancel_until(0)
                continue
            if len(trail_lim) < len(assumed):
                a = assumed[len(trail_lim)]
                v = value[a]
                if v == 1:
                    trail_lim.append(len(trail))
                    continue
                if v == -1:
                    self._cancel_until(0)
                    return "unsat"
                trail_lim.append(len(trail))
                self._enqueue(a, -1)
                continue
            v = self._decide()
            if v is None:
                self._verify_model(assumed)
                self._model = value.copy()
                return "sat"
            trail_lim.append(len(trail))
            x = (v << 1) | phase[v]  # `_enqueue`, inlined
            value[x] = 1
            value[x ^ 1] = -1
            level[v] = len(trail_lim)
            reason[v] = -1
            trail.append(x)

    def _verify_model(self, assumed):
        value = self.value
        if any(value[x] != 1 for x in assumed):
            raise SemiformError("model does not satisfy an assumption")
        get = value.__getitem__
        for ci, c in enumerate(self.clauses):
            # every variable is assigned: a clause with no true literal
            if c is not None and max(map(get, c)) != 1:
                raise SemiformError(f"model leaves clause {ci} unsatisfied")

    def model_value(self, lit: int) -> bool:
        """Value of `lit` in the most recent satisfying assignment."""
        x = _enc(lit)
        a = self._model[x] if x < len(self._model) else 0
        return a == 1 if lit > 0 else a != -1  # unassigned vars read false

