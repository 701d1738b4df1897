"""CDCL solver: answers vs brute force, incrementality, clause retention,
learnt-database reduction and determinism."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from semiform.errors import SemiformError
from semiform.sat import Solver

import oracles
from sat_helpers import read_icnf, replay, solve


def _random_clauses(rng, num_vars, n_clauses, max_len=4):
    out = []
    for _ in range(n_clauses):
        k = rng.randrange(1, max_len + 1)
        vs = rng.sample(range(1, num_vars + 1), min(k, num_vars))
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return out


def _check_model(s: Solver, clauses):
    for c in clauses:
        assert any(s.model_value(l) for l in c), f"clause {c} unsatisfied"


def test_trivial():
    s = Solver()
    s.ensure_vars(2)
    assert s.add_clause([1])
    assert s.add_clause([-1, 2])
    assert s.solve() == "sat"
    assert s.model_value(1) and s.model_value(2)
    # contradicting the root-level trail reports unsat straight away
    assert not s.add_clause([-2])
    assert s.solve() == "unsat"


def test_empty_clause_unsat():
    s = Solver()
    assert not s.add_clause([])
    assert s.solve() == "unsat"


def test_random_cnfs_match_brute_force():
    rng = random.Random(5)
    for trial in range(300):
        nv = rng.randrange(1, 11)
        clauses = _random_clauses(rng, nv, rng.randrange(1, 30))
        s = Solver()
        s.ensure_vars(nv)
        ok = True
        for c in clauses:
            ok = s.add_clause(list(c)) and ok
        got = s.solve() if ok else "unsat"
        want = oracles.brute_force_sat(nv, clauses)
        assert got == ("sat" if want else "unsat"), (trial, clauses)
        if got == "sat":
            _check_model(s, clauses)


def test_incremental_segments_match_brute_force():
    # interleave add_clause and solve; earlier answers must stay sound as
    # the clause set grows and learnt clauses/restarts accumulate
    rng = random.Random(9)
    for trial in range(60):
        nv = rng.randrange(2, 11)
        s = Solver()
        s.ensure_vars(nv)
        so_far = []
        ok = True
        for seg in range(rng.randrange(2, 5)):
            fresh = _random_clauses(rng, nv, rng.randrange(1, 12))
            so_far.extend(fresh)
            for c in fresh:
                ok = s.add_clause(list(c)) and ok
            got = s.solve() if ok else "unsat"
            want = oracles.brute_force_sat(nv, so_far)
            assert got == ("sat" if want else "unsat"), (trial, seg, so_far)
            if got == "sat":
                _check_model(s, so_far)
            if got == "unsat":
                break


def test_assumptions_match_brute_force():
    rng = random.Random(13)
    for trial in range(80):
        nv = rng.randrange(2, 10)
        clauses = _random_clauses(rng, nv, rng.randrange(1, 20))
        s = Solver()
        s.ensure_vars(nv)
        ok = True
        for c in clauses:
            ok = s.add_clause(list(c)) and ok
        for _ in range(3):
            n_a = rng.randrange(0, 3)
            vs = rng.sample(range(1, nv + 1), min(n_a, nv))
            assume = [v if rng.random() < 0.5 else -v for v in vs]
            if not ok:
                got = "unsat"
            else:
                got = s.solve(assumptions=assume)
            want = oracles.brute_force_sat(
                nv, clauses + [(a,) for a in assume])
            assert got == ("sat" if want else "unsat"), (trial, assume)
            if got == "sat":
                _check_model(s, clauses + [(a,) for a in assume])


def test_unsat_under_assumption_recovers():
    s = Solver()
    s.ensure_vars(3)
    s.add_clause([1, 2])
    s.add_clause([-1, 3])
    assert s.solve(assumptions=[-2, -3]) == "unsat"  # forces 1 and -3 clash
    assert s.solve() == "sat"
    assert s.solve(assumptions=[-2]) == "sat"
    assert s.model_value(1) and s.model_value(3)


def test_originals_added_after_learning_are_never_deleted():
    # clauses added between solve calls must not be classified as learnt
    # (deletable); regression for incremental soundness
    s = Solver()
    s.ensure_vars(4)
    s.add_clause([1, 2])
    s.add_clause([1, -2])
    s.add_clause([-1, 3])
    s.add_clause([-1, -3, 4])
    assert s.solve(assumptions=[-4]) == "unsat"  # produces learnt clauses
    n_before = len(s.clauses)
    # originals that land above the learnt indices, on fresh variables,
    # and that take part in conflicts as reasons (an UNSAT 3-SAT set)
    for c in _random_3sat(3, 40, ratio=6):
        s.add_clause([l + (4 if l > 0 else -4) for l in c])
    n_after = len(s.clauses)
    assert s.cla_act and max(s.cla_act) < n_before
    conflicts = s.n_conflicts
    assert s.solve() == "unsat"
    assert s.n_conflicts - conflicts > 10
    # conflict analysis bumped the new originals without registering them
    assert not set(s.cla_act) & set(range(n_before, n_after))


def test_luby_restart_sequence_shape():
    from semiform.sat import _luby
    assert [_luby(i) for i in range(15)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_deadline_timeout():
    rng = random.Random(1)
    # a hard random 3-sat instance near the phase transition
    nv = 140
    clauses = []
    for _ in range(int(nv * 4.26)):
        vs = rng.sample(range(1, nv + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    out = solve(clauses, budget=0.0)
    assert out.status == "TIMEOUT"
    assert out.model is None


def test_solve_wrapper_and_outcome():
    out = solve([(1,), (-1, 2)])
    assert out.status == "SAT" and out.model == {1: True, 2: True}
    out = solve([(1,), (-1, 2)], assumptions=(-2,))
    assert out.status == "UNSAT"


def test_icnf_reads_and_replays_calls_in_order():
    text = "p inccnf\nc a b\n1 -2 0\na 2 0\na -1 2 0\n-1 0\na 0\n"
    comments, calls = read_icnf(text)
    assert comments == ["a b"]
    assert calls == [("add", (1, -2)), ("solve", (2,)), ("solve", (-1, 2)),
                     ("add", (-1,)), ("solve", ())]
    results, s = replay(calls)
    assert results == ["sat", "unsat", "sat"] and s.num_vars == 2
    for bad in ("p cnf 2 1\n1 0\n", "p inccnf\n1 2\n", "p inccnf\na x 0\n"):
        with pytest.raises(SemiformError):
            read_icnf(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_hypothesis_random_instances(nv, data):
    clauses = data.draw(st.lists(
        st.lists(st.integers(-nv, nv).filter(lambda x: x != 0),
                 min_size=1, max_size=4).map(tuple),
        min_size=1, max_size=20))
    s = Solver()
    s.ensure_vars(nv)
    ok = True
    for c in clauses:
        ok = s.add_clause(list(c)) and ok
    got = s.solve() if ok else "unsat"
    want = oracles.brute_force_sat(nv, clauses)
    assert got == ("sat" if want else "unsat")
    if got == "sat":
        _check_model(s, clauses)


def _unassigned_without_heap_entry(s: Solver) -> list[int]:
    queued = {v for _, v in s.heap}
    return [v for v in range(1, s.num_vars + 1)
            if s.value[v << 1] == 0 and v not in queued]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_every_unassigned_variable_has_a_heap_entry(nv, data):
    # `_decide` trusts the heap alone to find an unassigned variable
    s = Solver()
    decide = s._decide

    def checked_decide():
        assert _unassigned_without_heap_entry(s) == []
        return decide()

    s._decide = checked_decide
    lit = st.integers(-nv, nv).filter(bool)
    clauses = []
    for _ in range(data.draw(st.integers(1, 5))):
        for c in data.draw(st.lists(st.lists(lit, min_size=1, max_size=4),
                                    max_size=6)):
            s.add_clause(c)
            clauses.append(c)
            assert _unassigned_without_heap_entry(s) == []
        assumptions = data.draw(st.lists(lit, max_size=3))
        got = s.solve(assumptions)
        assert _unassigned_without_heap_entry(s) == []
        want = oracles.brute_force_sat(
            nv, clauses + [[a] for a in assumptions])
        assert got == ("sat" if want else "unsat")


def test_model_leaving_a_clause_false_raises():
    s = Solver()
    assert s.add_clause([1, 2])
    # (-1 | -2), encoded, with no watches: the search never sees it, and
    # the model it finds (both variables true, phase 0) makes it false
    s.clauses.append([3, 5])
    with pytest.raises(SemiformError, match="model leaves clause 1 "):
        s.solve()


def test_reduce_db_fires_once_per_interval():
    # decisions 1 then 2 conflict on 3 and learn (-1 -2), the 8,192nd learnt;
    # the backjump asserts -2, which conflicts on 4 and learns the unit (-1)
    # straight after it.  A unit adds no learnt, so the count stays at 8,192
    # and must not trigger a second reduction.
    s = Solver()
    s.ensure_vars(4)
    for c in ([-1, -2, 3], [-1, -2, -3], [-1, 2, 4], [-1, 2, -4]):
        s.add_clause(c)
    s.n_learnts = 8191
    calls = []
    reduce_db = s._reduce_db

    def counted():
        calls.append(s.n_learnts)
        reduce_db()

    s._reduce_db = counted
    assert s.solve() == "sat"
    assert s.n_conflicts == 2 and s.n_learnts == 8192
    assert not s.model_value(1)
    assert calls == [8192]


def _pigeonhole(s: Solver, pigeons: int, holes: int):
    """Pigeons into holes, each pigeon's clause guarded by an activation
    literal.  Returns that literal and the clauses."""
    def p(i, j):
        return 1 + i * holes + j
    act = pigeons * holes + 1
    s.ensure_vars(act)
    clauses = []
    for i in range(pigeons):
        clauses.append([-act] + [p(i, j) for j in range(holes)])
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append([-p(i, j), -p(k, j)])
    for c in clauses:
        assert s.add_clause(c)
    return act, clauses


def test_reduce_db_purges_dropped_clauses():
    s = Solver()
    act, clauses = _pigeonhole(s, 8, 7)
    assert s.solve([act]) == "unsat"
    n_live = len(s.cla_act)
    assert n_live >= 2000  # enough learnts for a reduction
    s._reduce_db()
    assert 0 < len(s.cla_act) < n_live
    dropped = {ci for ci, c in enumerate(s.clauses) if c is None}
    assert dropped and not dropped & set(s.cla_act)
    watched = Counter()
    for x, wl in enumerate(s.watches):
        for ci, blocker in zip(wl[::2], wl[1::2]):
            assert ci not in dropped
            c = s.clauses[ci]
            assert x in c[:2] and blocker in c
            watched[ci] += 1
    live = [ci for ci, c in enumerate(s.clauses) if c is not None]
    assert all(watched[ci] == 2 for ci in live)  # once by each of c[0], c[1]
    assert s.solve([act]) == "unsat"
    assert s.solve() == "sat"
    _check_model(s, clauses)
    assert not s.model_value(act)


def _random_3sat(seed, nv, ratio=4.26):
    rng = random.Random(seed)
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), 3))
            for _ in range(int(nv * ratio))]


@pytest.mark.parametrize("seed", [3, 6])  # one UNSAT, one SAT
def test_solver_is_deterministic(seed):
    nv = 90
    clauses = _random_3sat(seed, nv)
    runs = []
    for _ in range(2):
        s = Solver()
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(list(c))
        status = s.solve()
        model = [s.model_value(v) for v in range(1, nv + 1)]
        runs.append((status, s.n_conflicts, s.n_propagations, model))
    assert runs[0] == runs[1]
    assert runs[0][1] > 100  # real search, not unit propagation alone


@pytest.mark.parametrize("inc, limit", [("var_inc", 1e100),
                                        ("cla_inc", 1e20)])
def test_activity_rescale_keeps_answers(inc, limit):
    # the bump starts just below the point where activities are scaled
    # down, so the first conflicts rescale them mid-search
    rescaled = 0
    for seed in range(120):
        nv = 8 + seed % 5
        clauses = _random_3sat(seed, nv)
        s = Solver()
        s.ensure_vars(nv)
        setattr(s, inc, 0.9 * limit)
        ok = all([s.add_clause(list(c)) for c in clauses])
        n_orig = len(s.clauses)
        got = s.solve() if ok else "unsat"
        want = oracles.brute_force_sat(nv, clauses)
        assert got == ("sat" if want else "unsat"), seed
        if got == "sat":
            _check_model(s, clauses)
        rescaled += getattr(s, inc) < limit * 1e-10
        # conflict analysis bumps learnt clauses only
        assert min(s.cla_act, default=n_orig) >= n_orig
    assert rescaled >= 20
