"""Solver helpers the tests use on top of `semiform.sat`: a one-shot solve
of plain clauses on a fresh `Solver`, and an iCNF reader and replayer, so
a log that `bmc.check(..., dump_icnf=...)` writes can be read back and
its calls made again on a fresh solver."""

from __future__ import annotations

import time
from dataclasses import dataclass

from semiform.errors import ParseError
from semiform.sat import Solver


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "SAT" | "UNSAT" | "TIMEOUT"
    model: dict[int, bool] | None
    elapsed: float


def solve(clauses, assumptions=(), budget: float | None = None) -> SolveOutcome:
    """Solve plain clauses (tuples of DIMACS literals) on a fresh solver."""
    start = time.perf_counter()
    s = Solver()
    for c in clauses:
        if not s.add_clause(list(c)):
            return SolveOutcome("UNSAT", None, time.perf_counter() - start)
    deadline = None if budget is None else start + budget
    res = s.solve(assumptions, deadline)
    elapsed = time.perf_counter() - start
    if res == "sat":
        model = {v: s.model_value(v) for v in range(1, s.num_vars + 1)}
        return SolveOutcome("SAT", model, elapsed)
    return SolveOutcome("UNSAT" if res == "unsat" else "TIMEOUT", None, elapsed)


def read_icnf(text: str) -> tuple[list[str], list[tuple[str, tuple[int, ...]]]]:
    """The comments and the calls of an iCNF log.

    After the `p inccnf` header each line is a comment (`c ...`), a
    clause or an `a` line of assumptions, each ending in 0.  The calls
    are `("add", clause)` and `("solve", assumptions)`, in file order.
    """
    lines = text.splitlines()
    if not lines or lines[0].split() != ["p", "inccnf"]:
        raise ParseError("missing iCNF header 'p inccnf'", 1, 1)
    comments: list[str] = []
    calls: list[tuple[str, tuple[int, ...]]] = []
    for ln, raw in enumerate(lines[1:], start=2):
        toks = raw.split()
        if toks[:1] == ["c"]:
            comments.append(raw[2:])
            continue
        op = "add"
        if toks[:1] == ["a"]:
            op, toks = "solve", toks[1:]
        try:
            lits = [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"bad literal in {raw!r}", ln, 1) from None
        if not lits or lits[-1] != 0 or 0 in lits[:-1]:
            raise ParseError(f"line {raw!r} does not end in one 0", ln, 1)
        calls.append((op, tuple(lits[:-1])))
    return comments, calls


def replay(calls) -> tuple[list[str], Solver]:
    """Make `read_icnf`'s calls on a fresh solver, which is told no
    variable count; returns each solve's result and the solver."""
    s = Solver()
    results = []
    for op, lits in calls:
        if op == "solve":
            results.append(s.solve(lits))
        else:
            s.add_clause(list(lits))
    return results, s
