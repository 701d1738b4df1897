"""CNF helpers the tests use on top of `semiform.sat`: a one-shot solve
of a `Cnf` on a fresh `Solver`, and a DIMACS reader, so a problem written
by `export_dimacs` (or `bmc.check(..., dump_cnf=...)`) can be read back
and solved."""

from __future__ import annotations

import time
from dataclasses import dataclass

from semiform.errors import ParseError
from semiform.sat import Cnf, Solver


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "SAT" | "UNSAT" | "TIMEOUT"
    model: dict[int, bool] | None
    elapsed: float


def solve(cnf: Cnf, assumptions=(),
          budget: float | None = None) -> SolveOutcome:
    """Solve a CNF on a fresh solver."""
    start = time.perf_counter()
    s = Solver()
    s.ensure_vars(cnf.num_vars)
    for c in cnf.clauses:
        if not s.add_clause(list(c)):
            return SolveOutcome("UNSAT", None, time.perf_counter() - start)
    deadline = None if budget is None else start + budget
    res = s.solve(assumptions, deadline)
    elapsed = time.perf_counter() - start
    if res == "sat":
        model = {v: s.model_value(v) for v in range(1, cnf.num_vars + 1)}
        return SolveOutcome("SAT", model, elapsed)
    return SolveOutcome("UNSAT" if res == "unsat" else "TIMEOUT", None, elapsed)


def import_dimacs(text: str) -> Cnf:
    num_vars = None
    expected = None
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad DIMACS header {line!r}", ln, 1)
            try:
                num_vars, expected = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad DIMACS header {line!r}", ln, 1) from None
            continue
        if num_vars is None:
            raise ParseError("clause before DIMACS header", ln, 1)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", ln, 1) from None
            if lit == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} out of range", ln, 1)
                cur.append(lit)
    if num_vars is None:
        raise ParseError("missing DIMACS header", 1, 1)
    if cur:
        clauses.append(tuple(cur))
    if expected is not None and len(clauses) != expected:
        raise ParseError(
            f"header declares {expected} clauses, found {len(clauses)}", 1, 1)
    return Cnf(num_vars, tuple(clauses))
