"""Bounded checking: outcomes, cuts, pins and boxes, traces, unknown-value
encoding."""

import random

import pytest

from semiform import bmc, errors, netlist, sim as simlib
from semiform.frontend import (PropertyAst, gen_xprop, parse_design,
                               parse_netlist)
from semiform.netlist import elaborate

import oracles
from conftest import (COUNTER_TEXT, FAIL_TRACES, UNUSED_WIRE_TEXT,
                      build_model, hard_block_module, pipeline_module,
                      props_for, random_dag_module, random_prop,
                      record_fails)
from sat_helpers import read_icnf, replay

UNINIT_TEXT = """\
.module holdx
.input rst 1
.input d 1
.output q 1
.reg R 1
.dff R d
.gate NOT q R
.endmodule
"""

# R starts unknown and `w = ~R` is the net a stopat cuts
CUT_NOT_TEXT = """\
.module cutnot
.input rst 1
.input a 1
.reg R 1
.dff R a
.wire w 1
.gate NOT w R
.wire g 1
.gate AND g w a
.endmodule
"""

# a three-flop shift register: R2 shows in0 three cycles late
SHIFT3_TEXT = """\
.module shift3
.input rst 1
.input in0 1
.reg R0 1 init=0
.reg R1 1 init=0
.reg R2 1 init=0
.dff R0 in0
.dff R1 R0
.dff R2 R1
.endmodule
"""

# H has no `.dff`, so it holds its init=1 by reading its own Q; S shows
# it one cycle late
HOLD_TEXT = """\
.module hold
.input rst 1
.reg H 1 init=1
.reg S 1 init=0
.dff S H
.endmodule
"""

GATED_UNINIT_TEXT = """\
.module holdg
.input rst 1
.input d 1
.input en 1
.output q 1
.reg R 1
.dff R d en=en
.gate NOT q R
.endmodule
"""


def test_counter_reaches_ten(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 10\n", design, lib)
    run = bmc.check(model, props, k=12)
    o = run.outcomes["p"]
    assert o.status == "FAIL" and o.frame == 10
    assert run.status == "FAIL"
    assert o.trace is not None and len(o.trace.frames) == 11
    assert bmc.replay_counterexample(model, props[0], o.trace)
    record_fails(model, props, run)


def test_counter_cannot_skip(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 15\n", design, lib)
    run = bmc.check(model, props, k=10)
    o = run.outcomes["p"]
    assert o.status == "PASS" and o.bound == 10
    assert run.status == "PASS"


def test_multiple_props_individual_outcomes(counter):
    model, design, lib = counter
    props = props_for("prop a : m0.CNT != 3\nprop b : m0.CNT != 12\n",
                      design, lib)
    run = bmc.check(model, props, k=5)
    assert run.outcomes["a"].status == "FAIL"
    assert run.outcomes["a"].frame == 3
    assert run.outcomes["b"].status == "PASS"
    assert run.status == "FAIL"
    record_fails(model, props, run)


def test_stopat_cuts_cone(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 10\n", design, lib)
    run = bmc.check(model, props, {"m0.CNT": None}, k=12)
    # with the register cut free, frame 0 already violates
    o = run.outcomes["p"]
    assert o.status == "FAIL" and o.frame == 0


def test_assume_pins_value(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 10\n", design, lib)
    cuts = {"m0.CNT": 7}
    run = bmc.check(model, props, cuts, k=12)
    assert run.outcomes["p"].status == "PASS"
    # assumption makes the complementary claim fail immediately
    props7 = props_for("prop q : m0.CNT != 7\n", design, lib)
    run7 = bmc.check(model, props7, cuts, k=12)
    assert run7.outcomes["q"].status == "FAIL"
    assert run7.outcomes["q"].frame == 0


def test_blackbox_vacuous(mini_parsed):
    design, lib, _, _, props = mini_parsed
    from semiform.netlist import elaborate
    model = elaborate(design, lib)
    run = bmc.check(model, props, boxes={"a0"}, k=4)
    assert run.outcomes["alpha_quiet"].status == "VACUOUS"
    assert run.outcomes["cross_ok"].status == "VACUOUS"
    assert run.outcomes["beta_quiet"].status in ("PASS", "FAIL")


def test_blackboxed_model_is_built_once(mini_parsed, monkeypatch):
    # a box builds no model: its base kinds are found once per box set
    design, lib, _, _, props = mini_parsed
    model = elaborate(design, lib)
    built, boxed = [], []
    init, box = netlist.FlatModel.__init__, bmc._box

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def found(model, boxes):
        if boxes not in model.dual.boxed:
            boxed.append(boxes)
        return box(model, boxes)
    monkeypatch.setattr(netlist.FlatModel, "__init__", counted)
    monkeypatch.setattr(bmc, "_box", found)
    runs = [bmc.check(model, props, boxes=boxes, k=4)
            for boxes in [{"a0"}] * 2 + [{"b0"}]]
    assert built == [] and boxed == [frozenset({"a0"}), frozenset({"b0"})]
    assert runs[0].outcomes == runs[1].outcomes


def test_budget_timeout(hard_ungated):
    _, design, lib, _, _, props = hard_ungated
    from semiform.netlist import elaborate
    model = elaborate(design, lib)
    run = bmc.check(model, props, k=20, budget=0.3)
    o = run.outcomes["quiet"]
    assert o.status == "UNDETERMINED" and o.reason == "timeout"
    assert run.status == "INCOMPLETE"
    assert o.bound is not None and o.bound < 20


def _xor_chain(n):
    """A module whose output is the XOR of a chain of n gates."""
    return ".module chain\n.input rst 1\n.input a 1\n.input b 1\n" + \
        "".join(f".wire w{i} 1\n" for i in range(n)) + \
        ".gate XOR w0 a b\n" + \
        "".join(f".gate XOR w{i} w{i - 1} b\n" for i in range(1, n)) + \
        ".endmodule\n"


def test_deadline_inside_the_encoding_leaves_the_property_open(monkeypatch):
    # `Unroller.lit` reads the clock every 4,096 steps; a clock that
    # reads past every deadline once `lit` has begun ends the attempt
    # there, before any solver call
    model, design, lib = build_model(_xor_chain(5000))
    props = props_for("prop p : ~m0.w4999\n", design, lib)
    entered, raised, solved = [], [], []
    lit = bmc.Unroller.lit

    def timed_lit(self, i, f):
        entered.append(f)
        try:
            return lit(self, i, f)
        except bmc._EncodeTimeout:
            raised.append(f)
            raise

    class Clock:
        @staticmethod
        def perf_counter():
            return 10.0 if entered else 0.0
    monkeypatch.setattr(bmc.Unroller, "lit", timed_lit)
    monkeypatch.setattr(bmc, "time", Clock)
    monkeypatch.setattr(bmc.Solver, "solve",
                        lambda *args: solved.append(args) or "unsat")
    o = bmc.check(model, props, k=3, budget=1.0).outcomes["p"]
    assert (o.status, o.reason, o.bound) == ("UNDETERMINED", "timeout", 0)
    assert raised == [0] and solved == []


def test_property_bit_select_matches_explicit_oracle(counter):
    # `m0.CNT[2]` reads one bit of the register (`sim.sig_nets`)
    model, design, lib = counter
    props = props_for("prop b2 : ~m0.CNT[2]\nprop b3 : m0.CNT[3] != 1\n",
                      design, lib)
    run = bmc.check(model, props, k=6)
    for prop in props:
        frame = oracles.explicit_check(model, prop, 6)
        o = run.outcomes[prop.name]
        want = ("PASS", None) if frame is None else ("FAIL", frame)
        assert (o.status, o.frame) == want, prop.name
    o = run.outcomes["b2"]
    assert (o.status, o.frame) == ("FAIL", 4)
    assert bmc.replay_counterexample(model, props[0], o.trace)
    record_fails(model, props, run)


def test_literal_on_the_left_of_a_comparison(counter):
    # `3 == m0.CNT` reads as `m0.CNT == 3`: the encoder, the simulator's
    # replay and the oracle each put the literal on the right themselves
    model, design, lib = counter
    props = props_for("prop lhs : ~(3 == m0.CNT)\n"
                      "prop rhs : ~(m0.CNT == 3)\n"
                      "prop ne : 5 != m0.CNT\n", design, lib)
    run = bmc.check(model, props, k=6)
    for prop in props:
        o = run.outcomes[prop.name]
        assert oracles.explicit_check(model, prop, 6) == o.frame, prop.name
        assert bmc.replay_counterexample(model, prop, o.trace), prop.name
    assert [run.outcomes[n].frame for n in ("lhs", "rhs", "ne")] == [3, 3, 5]
    record_fails(model, props, run)


def test_xprop_outcomes(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    from semiform.netlist import elaborate
    model = elaborate(design, lib)
    xs = gen_xprop(design, lib, settle=2)
    run = bmc.check(model, xs, k=6)
    # CFG and GAIN have reset values: known from frame 0 onwards
    assert run.outcomes["xprop_a0_CFG"].status == "PASS"
    assert run.outcomes["xprop_b0_GAIN"].status == "PASS"


def test_xprop_passes_when_environment_always_writes():
    # an ungated register latches its (binary) input every cycle, so it
    # is known from frame 1 on regardless of the missing reset value
    model, design, lib = build_model(UNINIT_TEXT)
    prop = PropertyAst(name="x", expr=("known", ("sig", "m0.R", None)),
                       scope=frozenset({"m0"}), settle=2)
    run = bmc.check(model, [prop], k=6)
    assert run.outcomes["x"].status == "PASS"


def test_xprop_fails_when_enable_can_stall():
    model, design, lib = build_model(GATED_UNINIT_TEXT)
    prop = PropertyAst(name="x", expr=("known", ("sig", "m0.R", None)),
                       scope=frozenset({"m0"}), settle=2)
    run = bmc.check(model, [prop], k=6)
    o = run.outcomes["x"]
    assert o.status == "FAIL" and o.frame == 2
    en_col = o.trace.nets.index("m0.en")
    assert all(row[en_col] != 1 for row in o.trace.frames[:2])
    assert bmc.replay_counterexample(model, prop, o.trace)


def test_xprop_settle_beyond_bound():
    model, design, lib = build_model(UNINIT_TEXT)
    prop = PropertyAst(name="x", expr=("known", ("sig", "m0.R", None)),
                       scope=frozenset({"m0"}), settle=9)
    run = bmc.check(model, [prop], k=6)
    o = run.outcomes["x"]
    assert o.status == "UNDETERMINED" and o.reason == "bound"


def test_scope_outside_model_is_vacuous(counter):
    model, design, lib = counter
    prop = PropertyAst(name="p", expr=("int", 1), scope=frozenset({"zz"}))
    run = bmc.check(model, [prop], k=2)
    assert run.outcomes["p"].status == "VACUOUS"


def test_dump_cnf_reimports_and_solves(tmp_path, counter):
    # the log is the group's whole problem: replayed on a fresh solver,
    # the FAIL frame's solve is SAT again and every earlier one UNSAT
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 4\n", design, lib)
    run = bmc.check(model, props, k=6, dump_icnf=str(tmp_path / "dump"))
    assert run.outcomes["p"].status == "FAIL"
    assert [p.name for p in (tmp_path / "dump").iterdir()] == ["group0.icnf"]
    comments, calls = read_icnf((tmp_path / "dump" / "group0.icnf").read_text())
    assert comments == ["p"]
    results, _ = replay(calls)
    assert results[-1] == "sat" and set(results[:-1]) <= {"unsat"}
    assert calls[-1][0] == "solve" and len(calls[-1][1]) == 1
    record_fails(model, props, run)


def test_n_clauses_counts_the_encoding_not_learnts(tmp_path):
    # an UNSAT refutation that learns clauses: the reported size must be
    # the emitted problem, the log's clause lines, not the solver's list
    model, design, lib = build_model(hard_block_module(8, 3, gated=False))
    props = props_for("prop quiet : ~(m0.bad)\n", design, lib)
    run = bmc.check(model, props, k=1, dump_icnf=str(tmp_path))
    assert run.outcomes["quiet"].status == "PASS"
    assert run.n_conflicts > 0
    _, calls = read_icnf((tmp_path / "group0.icnf").read_text())
    assert run.n_clauses == sum(op == "add" for op, _ in calls)


def test_trace_format_mentions_every_cycle(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 2\n", design, lib)
    run = bmc.check(model, props, k=4)
    text = bmc.format_trace(run.outcomes["p"].trace)
    assert "violated at frame 2" in text
    assert "frame 0:" in text and "frame 2:" in text
    record_fails(model, props, run)


def test_enable_gating_shows_in_trace(counter):
    # the cex must drive en=1 for ten straight cycles to reach 10
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 1\n", design, lib)
    run = bmc.check(model, props, k=4)
    tr = run.outcomes["p"].trace
    en_col = tr.nets.index("m0.en")
    assert tr.frames[0][en_col] == 1
    record_fails(model, props, run)


def test_free_inputs_may_stay_unknown(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    model = elaborate(design, lib)
    # sig = GAIN[0] & sense with sense freed by the box: claiming "sig is
    # never 1" must fail only through a definitely-1 witness
    props = props_for("prop s : ~b0.sig\n", design, lib)
    run = bmc.check(model, props, {"b0.GAIN": 1}, {"a0"}, k=3)
    o = run.outcomes["s"]
    assert o.status == "FAIL"
    assert bmc.replay_counterexample(model, props[0], o.trace)
    record_fails(model, props, run)


def test_property_on_unused_wire_is_an_error():
    # a declared wire that drives and reads nothing is not a model net
    model, design, lib = build_model(UNUSED_WIRE_TEXT)
    props = props_for("prop p : ~m0.w\n", design, lib)
    with pytest.raises(errors.SemiformError, match="property p .* m0.w"):
        bmc.check(model, props, k=2)


@pytest.mark.parametrize("chunk", range(4))
def test_check_matches_explicit_oracle(chunk):
    # status and FAIL frame against breadth-first three-valued exploration,
    # uninitialised registers included
    for seed in range(chunk * 100, (chunk + 1) * 100):
        rng = random.Random(seed)
        n_regs = rng.choice((2, 3))
        model, design, lib = build_model(
            random_dag_module(rng, n_regs=n_regs, uninit=True))
        text = "".join(f"prop p{j} : {random_prop(rng, n_regs)}\n"
                       for j in range(3))
        props = props_for(text, design, lib)
        k = rng.randint(1, 4)
        run = bmc.check(model, props, k=k)
        for prop in props:
            frame = oracles.explicit_check(model, prop, k)
            want = ("PASS", None) if frame is None else ("FAIL", frame)
            o = run.outcomes[prop.name]
            assert (o.status, o.frame) == want, (seed, prop.name)


def test_value_rails_copy_the_compiled_gates(counter):
    # the encoder copies each compiled gate into its net's value rail, so
    # the dual-rail kinds AND..MUX must be netlist's kind codes
    assert netlist.KIND_CODE == {"AND": bmc.AND, "OR": bmc.OR,
                                 "XOR": bmc.XOR, "NOT": bmc.NOT,
                                 "MUX": bmc.MUX}
    model, _, _ = counter
    dual = bmc.xprop_encode(model)
    for k, x, y, z, o in model.compile().gates:
        assert (dual.kind[o], dual.a[o], dual.b[o], dual.c[o]) == (k, x, y, z)


def test_stopat_on_not_output_frees_only_that_net():
    # cutting w = ~R must leave R's own known rail alone (p: R is unknown
    # at frame 0) and reach w's readers (q: g = w & a is 1 at frame 0)
    model, design, lib = build_model(CUT_NOT_TEXT)
    props = props_for("prop p : m0.R\nprop q : ~m0.g\n", design, lib)
    run = bmc.check(model, props, {"m0.w": None}, k=3)
    for prop, frame in zip(props, (1, 0)):
        assert oracles.explicit_check(model, prop, 3, cut=["m0.w"]) == frame
        o = run.outcomes[prop.name]
        assert (o.status, o.frame) == ("FAIL", frame), prop.name
        assert bmc.replay_counterexample(model, prop, o.trace)
    record_fails(model, props, run)


def test_stopat_on_unused_wire_is_an_error():
    model, design, lib = build_model(UNUSED_WIRE_TEXT)
    props = props_for("prop p : ~m0.R\n", design, lib)
    with pytest.raises(errors.SemiformError, match="stopat m0.w .* m0.w"):
        bmc.check(model, props, {"m0.w": None}, k=2)


def _forced_nets(model, signals):
    return [model.signal_bits(s)[0] for s in signals]


def _cut_map(cuts, pins):
    """`bmc.check`'s cuts: each of `cuts` to its value in `pins`, or None."""
    return {c: pins.get(c) for c in cuts}


def _match_oracle(seed, model, props, k, cuts=None, cut=(), pinned=None):
    run = bmc.check(model, props, cuts, k=k)
    for prop in props:
        frame = oracles.explicit_check(model, prop, k, cut, pinned)
        want = ("PASS", k, None) if frame is None else ("FAIL", None, frame)
        o = run.outcomes[prop.name]
        assert (o.status, o.bound, o.frame) == want, (seed, prop.name)


def _constrained_case(seed):
    """A random module, three properties, cuts on registers and wires
    (NOT outputs among them) and pins on some cut registers."""
    rng = random.Random(seed)
    n_regs = rng.choice((2, 3))
    module = random_dag_module(rng, n_regs=n_regs, uninit=True)
    model, design, lib = build_model(module)
    text = "".join(f"prop p{j} : {random_prop(rng, n_regs)}\n"
                   for j in range(3))
    props = props_for(text, design, lib)
    names = [f"m0.R{r}" for r in range(n_regs)] + \
        [f"m0.n{g}" for g in range(20)]
    cuts = rng.sample(names, rng.randint(1, 2))
    pins = {c: rng.randrange(2) for c in cuts
            if ".R" in c and rng.random() < 0.5}
    return rng, n_regs, module, model, props, cuts, pins


@pytest.mark.parametrize("chunk", range(2))
def test_constrained_check_matches_explicit_oracle(chunk):
    # cuts on registers and wires, NOT outputs among them, and pins on
    # some cut registers, against the oracle's forced nets
    for seed in range(chunk * 40, (chunk + 1) * 40):
        rng, _, _, model, props, cuts, pins = _constrained_case(seed)
        pinned = dict(zip(_forced_nets(model, pins), pins.values()))
        _match_oracle(seed, model, props, rng.randint(1, 4),
                      _cut_map(cuts, pins), _forced_nets(model, cuts), pinned)


@pytest.mark.parametrize("chunk", range(2))
def test_xprop_check_matches_explicit_oracle(chunk):
    # user and xprop properties over flops that may have no init, with
    # unpinned and pinned cuts on registers and wires
    for seed in range(chunk * 60, (chunk + 1) * 60):
        rng = random.Random(seed)
        n_regs = rng.choice((2, 3))
        model, design, lib = build_model(
            random_dag_module(rng, n_regs=n_regs, uninit=True))
        k = rng.randint(1, 4)
        text = "".join(
            f"xprop x{j} : known(m0.R{rng.randrange(n_regs)}) after "
            f"{rng.randint(0, k)}\n" if rng.random() < 0.6 else
            f"prop p{j} : {random_prop(rng, n_regs)}\n" for j in range(3))
        props = props_for(text, design, lib)
        names = [f"m0.R{r}" for r in range(n_regs)] + \
            [f"m0.n{g}" for g in range(20)]
        cuts = rng.sample(names, rng.randint(0, 2))
        pins = {c: rng.randrange(2) for c in cuts
                if ".R" in c and rng.random() < 0.5}
        pinned = dict(zip(_forced_nets(model, pins), pins.values()))
        _match_oracle(seed, model, props, k, _cut_map(cuts, pins),
                      _forced_nets(model, cuts), pinned)


# d0 reads s0's output `o`; blackboxing s0 leaves d0.i free to read X.
# R loads i while b is 1, and Q shows R a cycle late from no init
SRC_TEXT = """\
.module src
.input rst 1
.input a 1
.output o 1
.reg S 1 init=0
.dff S a
.gate XOR o S a
.endmodule
"""

DST_TEXT = """\
.module dst
.input rst 1
.input i 1
.input b 1
.reg R 1 init=0
.reg Q 1
.wire m 1
.gate MUX m b i R
.dff R m
.dff Q R
.endmodule
"""

SRC_DST_DSN = """\
.design srcdst
.instance src s0
.instance dst d0
.connect s0.o d0.i
.top rst s0.rst
.top rst d0.rst
"""


@pytest.mark.parametrize("settle", range(3))
def test_blackboxed_instance_matches_explicit_oracle(settle):
    lib = {"src": parse_netlist(SRC_TEXT), "dst": parse_netlist(DST_TEXT)}
    design = parse_design(SRC_DST_DSN)
    model = elaborate(design, lib)
    # blackboxing s0 frees the nets of its ports that d0 reads
    freed = [bit for ia, pa, _, _ in design.connects
             if ia == "s0" for bit in model.signal_bits(f"s0.{pa}")]
    props = props_for(
        f"xprop r : known(d0.R) after {settle}\n"
        f"xprop q : known(d0.Q) after {settle}\n"
        "prop hold : d0.R -> d0.Q\nprop low : ~d0.R\n", design, lib)
    got = {}
    for box in (False, True):
        run = bmc.check(model, props, boxes={"s0"} if box else (), k=4)
        for prop in props:
            frame = oracles.explicit_check(model, prop, 4,
                                           cut=freed if box else ())
            o = run.outcomes[prop.name]
            want = ("PASS", None) if frame is None else ("FAIL", frame)
            assert (o.status, o.frame) == want, (box, prop.name)
            got[box, prop.name] = o.status
        record_fails(model, props, run)
    # only the freed net reads X, and R loads it from frame 1 on
    assert got[False, "r"] == "PASS" and got[True, "r"] == "FAIL"


def test_a_box_set_frees_only_what_the_rest_reads():
    # s0's output is read by d0 alone: boxing s0 frees it, so a cut may
    # name it, and boxing d0 too hides it
    lib = {"src": parse_netlist(SRC_TEXT), "dst": parse_netlist(DST_TEXT)}
    model = elaborate(parse_design(SRC_DST_DSN), lib)
    cut = {"s0.o": None}
    assert bmc.check(model, [], cut, {"s0"}).outcomes == {}
    with pytest.raises(errors.SemiformError, match="stopat s0.o names net"):
        bmc.check(model, [], cut, {"s0", "d0"})


def _outcome_and_cnf(model, props, cuts, k, out):
    run = bmc.check(model, props, cuts, k=k, dump_icnf=str(out))
    outcomes = {name: (o.status, o.frame, o.bound, o.trace)
                for name, o in run.outcomes.items()}
    cnf = {p.name: p.read_text() for p in sorted(out.glob("*.icnf"))}
    return outcomes, run.n_vars, run.n_clauses, run.n_conflicts, cnf


def test_reused_model_checks_as_a_fresh_one(tmp_path, monkeypatch):
    # one model through four checks, each against the same check on a
    # freshly elaborated model: a check must leave the model's cached
    # dual-rail graph as it found it
    encoded = []
    encode = bmc.xprop_encode
    monkeypatch.setattr(bmc, "xprop_encode",
                        lambda model: encoded.append(model) or encode(model))
    for seed in range(40):
        rng, n_regs, module, model, props, _, _ = _constrained_case(seed)
        k = rng.randint(1, 4)
        regs = rng.sample([f"m0.R{r}" for r in range(n_regs)], 2)
        # no cut, a cut NOT output (`d<r> = ~x`), cut registers with a
        # pin, and no cut again
        steps = [{}, {f"m0.d{rng.randrange(n_regs)}": None},
                 {regs[0]: rng.randrange(2), regs[1]: None}, {}]
        for step, cuts in enumerate(steps):
            warm, cold = (
                _outcome_and_cnf(m, props, cuts, k,
                                 tmp_path / f"{seed}-{step}-{side}")
                for side, m in enumerate((model, build_model(module)[0])))
            assert warm == cold, (seed, step)
        assert sum(m is model for m in encoded) == 1, seed


def test_feed_forward_pipelines_match_explicit_oracle():
    # bounds above the cone depth, so the cutoff decides every PASS whose
    # cone has no hold register
    for seed in range(150):
        rng = random.Random(seed)
        model, design, lib = build_model(pipeline_module(rng))
        text = "".join(f"prop p{j} : {random_prop(rng, 3)}\n"
                       for j in range(3))
        props = props_for(text, design, lib)
        _match_oracle(seed, model, props, rng.randint(4, 6))


def test_fail_at_the_cone_depth_is_found():
    # R2's cone is three flops deep and R2 first shows in0 at frame 3
    model, design, lib = build_model(SHIFT3_TEXT)
    props = props_for("prop p : ~m0.R2\n", design, lib)
    run = bmc.check(model, props, k=8)
    o = run.outcomes["p"]
    assert (o.status, o.frame) == ("FAIL", 3)
    assert oracles.explicit_check(model, props[0], 8) == 3
    record_fails(model, props, run)


def test_hold_register_closes_a_loop():
    # a register without `.dff` is a DFF reading itself: a loop, not a leaf
    model, design, lib = build_model(HOLD_TEXT)
    props = props_for("prop p : ~m0.S\n", design, lib)
    run = bmc.check(model, props, k=4)
    o = run.outcomes["p"]
    assert (o.status, o.frame) == ("FAIL", 1)
    assert oracles.explicit_check(model, props[0], 4) == 1
    record_fails(model, props, run)


def test_combinational_cone_is_solved_at_frame_zero_only():
    # every later frame is a renamed copy of frame 0: a deeper bound adds
    # no variable, clause or conflict
    model, design, lib = build_model(hard_block_module(8, 3, gated=False))
    props = props_for("prop quiet : ~(m0.bad)\n", design, lib)
    runs = [bmc.check(model, props, k=k) for k in (1, 6)]
    assert [r.outcomes["quiet"].bound for r in runs] == [1, 6]
    assert all(r.outcomes["quiet"].status == "PASS" for r in runs)
    assert [(r.n_vars, r.n_clauses, r.n_conflicts) for r in runs] == \
        [(runs[0].n_vars, runs[0].n_clauses, runs[0].n_conflicts)] * 2



# -- one solver per group of properties whose cones share no node ------------

# two copies of a parity block, each refuted with real solver work, and a
# counter that reaches 3 through a trace; no instance reads another
DUO_DSN = """\
.design duo
.instance hard h0
.instance hard h1
.instance counter c0
"""

DUO_PROPS = "prop quiet0 : ~(h0.bad)\nprop quiet1 : ~(h1.bad)\n" \
    "prop three : c0.CNT != 3\n"

# H holds its init by reading its own Q.  x's walk meets that loop
# before it meets s and, behind s, the input a; w reads the loop, and y
# reads a only
LOOP_SHARE_TEXT = """\
.module share
.input rst 1
.input a 1
.input b 1
.reg H 1 init=1
.wire s 1
.gate XOR s a b
.wire x 1
.gate AND x s H
.wire w 1
.gate OR w b H
.wire y 1
.gate OR y a a
.endmodule
"""


def _duo():
    lib = {"hard": parse_netlist(hard_block_module(8, 3, gated=False)),
           "counter": parse_netlist(COUNTER_TEXT)}
    design = parse_design(DUO_DSN)
    return elaborate(design, lib), props_for(DUO_PROPS, design, lib)


def _count_unrollers(monkeypatch):
    built = []

    class Counted(bmc.Unroller):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(bmc, "Unroller", Counted)
    return built


def test_disjoint_cones_check_as_separate_checks(monkeypatch):
    model, props = _duo()
    built = _count_unrollers(monkeypatch)
    joint = bmc.check(model, props, k=4)
    assert len(built) == 3
    solo = [bmc.check(model, [p], k=4) for p in props]
    for prop, run in zip(props, solo):
        assert joint.outcomes[prop.name] == run.outcomes[prop.name]
    three = joint.outcomes["three"]
    assert (three.status, three.frame) == ("FAIL", 3)
    assert bmc.replay_counterexample(model, props[2], three.trace)
    assert {joint.outcomes[n].status for n in ("quiet0", "quiet1")} == \
        {"PASS"}
    assert all(run.n_conflicts > 0 for run in solo[:2])
    for count in ("n_vars", "n_clauses", "n_conflicts"):
        assert getattr(joint, count) == sum(getattr(r, count) for r in solo)
    record_fails(model, props, joint)


@pytest.mark.parametrize("other", ["prop q : m0.w\n",  # the loop itself
                                   "prop q : m0.y == m0.a\n"])  # behind it
def test_cones_that_meet_at_or_behind_a_loop_share_a_solver(other,
                                                             monkeypatch):
    model, design, lib = build_model(LOOP_SHARE_TEXT)
    props = props_for("prop p : ~m0.x\n" + other, design, lib)
    built = _count_unrollers(monkeypatch)
    joint = bmc.check(model, props, k=3)
    assert len(built) == 1
    solo = [bmc.check(model, [p], k=3) for p in props]
    # one solver translates the shared nodes once; two solvers would each
    # translate them, and each pins its own true literal
    assert joint.n_vars < solo[0].n_vars + solo[1].n_vars
    assert [joint.outcomes[p.name] for p in props] == \
        [r.outcomes[p.name] for p, r in zip(props, solo)]
    assert (joint.outcomes["p"].status, joint.outcomes["p"].frame) == \
        ("FAIL", 0)
    assert joint.outcomes["q"].status == "PASS"
    record_fails(model, props, joint)


def test_dumped_cnf_holds_only_the_group_clauses(tmp_path):
    # each group's log equals the log of a check of its property alone
    model, props = _duo()
    quiet = props[:2]
    run = bmc.check(model, quiet, k=2, dump_icnf=str(tmp_path / "joint"))
    added = []
    for g, prop in enumerate(quiet):
        text = (tmp_path / "joint" / f"group{g}.icnf").read_text()
        bmc.check(model, [prop], k=2, dump_icnf=str(tmp_path / prop.name))
        assert text == (tmp_path / prop.name / "group0.icnf").read_text()
        comments, calls = read_icnf(text)
        assert comments == [prop.name]
        added.append(sum(op == "add" for op, _ in calls))
    assert run.n_clauses == sum(added)


def test_icnf_log_replays_every_solve(tmp_path, monkeypatch):
    # each group's log, replayed on a fresh solver told no variable count,
    # answers every solve as the check's own solver did, after the same
    # number of conflicts: the log alone is the problem
    built = _count_unrollers(monkeypatch)
    results = {}
    solve = bmc.Solver.solve

    def spy(self, *args, **kw):
        results.setdefault(self, []).append(solve(self, *args, **kw))
        return results[self][-1]

    monkeypatch.setattr(bmc.Solver, "solve", spy)
    cases = []
    for seed in range(40):
        rng, _, _, model, props, cuts, pins = _constrained_case(seed)
        cases.append((model, props, _cut_map(cuts, pins), rng.randint(1, 4)))
    model, props = _duo()
    cases.append((model, props, {}, 4))
    for i, (model, props, cuts, k) in enumerate(cases):
        built.clear()
        results.clear()
        out = tmp_path / str(i)
        run = bmc.check(model, props, cuts, k=k, dump_icnf=str(out))
        # groups are numbered by their smallest property index, and their
        # unrollers are built in that order
        logs = sorted(out.iterdir(), key=lambda p: int(p.stem[5:]))
        assert len(logs) == len(built), i
        conflicts = 0
        for log, enc in zip(logs, built):
            got, solver = replay(read_icnf(log.read_text())[1])
            assert got == results.get(enc.solver, []), (i, log.name)
            assert solver.n_conflicts == enc.solver.n_conflicts, (i, log.name)
            conflicts += solver.n_conflicts
        assert conflicts == run.n_conflicts, i
    assert run.n_conflicts > 0  # the hard block's refutation learns


def test_vacuous_check_encodes_nothing(counter, monkeypatch):
    model, design, lib = counter
    encoded = []
    monkeypatch.setattr(bmc, "xprop_encode", encoded.append)
    prop = PropertyAst(name="p", expr=("int", 1), scope=frozenset({"zz"}))
    run = bmc.check(model, [prop], k=2)
    assert run.outcomes["p"].status == "VACUOUS"
    assert (run.n_vars, run.n_clauses, run.n_conflicts) == (0, 0, 0)
    with pytest.raises(errors.SemiformError, match="overflows m0.CNT"):
        bmc.check(model, [prop], {"m0.CNT": 16}, k=2)
    with pytest.raises(errors.SemiformError,
                       match="assume on unknown register m0.c0"):
        bmc.check(model, [prop], {"m0.c0": 1}, k=2)
    assert encoded == [] and model.dual is None


def test_all_vacuous_box_only_check_builds_no_blackboxed_model(mini_parsed):
    design, lib, _, _, props = mini_parsed
    model = elaborate(design, lib)
    boxed = [p for p in props if "a0" in p.scope]
    run = bmc.check(model, boxed, boxes={"a0"}, k=4)
    assert model.dual is None
    assert {n: (o.status, o.reason) for n, o in run.outcomes.items()} == {
        "alpha_quiet": ("VACUOUS", "scope blackboxed: a0"),
        "cross_ok": ("VACUOUS", "scope blackboxed: a0")}
    # a check with something to prove reports them alike
    full = bmc.check(model, props, boxes={"a0"}, k=4)
    assert model.dual is not None
    assert {n: full.outcomes[n] for n in run.outcomes} == run.outcomes
    with pytest.raises(errors.UnknownInstance, match="no instance zz"):
        bmc.check(model, boxed, boxes={"a0", "zz"}, k=4)
    # with a cut the cuts and pins are validated on the blackboxed model,
    # as for a check with something to prove
    for cuts, match in (
            ({"a0.CFG": None}, "stopat a0.CFG names net a0.CFG"),
            ({"a0.led": 1}, "assume on unknown register a0.led"),
            ({"b0.GAIN": 999}, "assume value 0x3e7 overflows b0.GAIN")):
        with pytest.raises(errors.SemiformError, match=match):
            bmc.check(model, boxed, cuts, {"a0"}, k=4)
    run = bmc.check(model, boxed, {"a0.led": None}, {"a0"}, k=4)
    assert {o.status for o in run.outcomes.values()} == {"VACUOUS"}


@pytest.mark.parametrize("reuse", [None, {}])
def test_properties_that_read_no_net(counter, reuse):
    model, design, lib = counter
    props = props_for("prop t : 1\nprop f : 0\n", design, lib)
    for _ in range(2):  # the walk meets no node, each time
        run = bmc.check(model, props, k=4, reuse=reuse)
        got = {n: (o.status, o.bound, o.frame)
               for n, o in run.outcomes.items()}
        assert got == {"t": ("PASS", 4, None), "f": ("FAIL", None, 0)}
    assert reuse in (None, {})  # a PASS or FAIL is not stored
    record_fails(model, props, run)


def test_kinds_at_reads_a_tuple_for_any_number_of_ids():
    kind = [bmc.ONE, bmc.ZERO, bmc.PAIR]
    assert [bmc._kinds_at(ids)(kind) for ids in ([], [1], [2, 0])] == \
        [(), (bmc.ZERO,), (bmc.PAIR, bmc.ONE)]


# -- the cone walk folds what the pins decide --------------------------------

def _pinned_case(seed):
    """A random module, a feed-forward pipeline for odd seeds, with three
    properties, one register or more pinned and sometimes a wire cut."""
    rng = random.Random(seed)
    n_regs = 3 if seed % 2 else rng.choice((2, 3))
    model, design, lib = build_model(
        pipeline_module(rng) if seed % 2 else
        random_dag_module(rng, n_regs=n_regs, uninit=True))
    text = "".join(f"prop p{j} : {random_prop(rng, n_regs)}\n"
                   for j in range(3))
    props = props_for(text, design, lib)
    regs = [f"m0.R{r}" for r in range(n_regs)]
    pins = {r: rng.randrange(2)
            for r in rng.sample(regs, rng.randint(1, n_regs - 1))}
    cuts = list(pins) + rng.sample([f"m0.n{g}" for g in range(12)],
                                   rng.randrange(2))
    return rng, model, props, _cut_map(cuts, pins), \
        _forced_nets(model, cuts), \
        dict(zip(_forced_nets(model, pins), pins.values()))


def _pins(cuts):
    """The `{register: value}` pins among `bmc.check`'s cuts."""
    return {c: v for c, v in cuts.items() if v is not None}


def _walk(model, props, cut=(), pins=None, boxes=frozenset()):
    """A check's kind before and after a fresh walk, its pairs, and the
    walk's depths and groups, the ids it met and their kinds before."""
    if model.dual is None:
        model.dual = bmc.xprop_encode(model)
    plain, partner = bmc._constrain(model, cut, pins or {}, boxes)
    kind = plain.copy()
    nets = [simlib.check_prop_nets(model, p) for p in props]
    return plain, kind, partner, \
        bmc._walk_cones(model, kind, partner, nets)


def _live_depth(model, kind, rails):
    """Most DFF edges from `rails` to a leaf over the inputs `kind` leaves
    live, by plain recursion; None when a cycle is live."""
    dual, memo, path = model.dual, {}, set()

    def depth(i):
        k = kind[i]
        if k > bmc.DFF:
            return 0
        if i in path:
            return None
        if i not in memo:
            path.add(i)
            a, b, c = dual.a[i], dual.b[i], dual.c[i]
            ins = [a]
            if k == bmc.MUX:
                ins += [b] if kind[a] == bmc.ONE else \
                    [c] if kind[a] == bmc.ZERO else [b, c]
            elif k in (bmc.AND, bmc.OR):
                if kind[a] != (bmc.ZERO if k == bmc.AND else bmc.ONE):
                    ins.append(b)
            elif k == bmc.XOR:
                ins.append(b)
            got = [depth(j) for j in ins]
            path.discard(i)
            memo[i] = None if None in got else max(got) + (k == bmc.DFF)
        return memo[i]

    got = [depth(r) for r in rails]
    return None if None in got else max(got)


def _unmarked(model, kind, cut):
    """A check's `kind` with the model's own known-rail logic back on
    every net the check does not cut."""
    dual, skip = model.dual, {model.index[net] for net in cut}
    out = kind.copy()
    for v, kv in enumerate(dual.known):
        if v not in skip and kind[kv] == bmc.ONE:
            out[kv] = dual.kind[kv]
    return out


@pytest.mark.parametrize("chunk", range(2))
def test_folds_hold_in_every_frame(chunk):
    # each known rail the marking writes ONE is literal 1, and each node
    # the walk folds its constant, at every frame of the unmarked and
    # unfolded graph; the depth covers every input the folds leave live,
    # and the verdicts are the oracle's
    for seed in range(chunk * 60, (chunk + 1) * 60):
        rng, model, props, cuts, cut, pinned = _pinned_case(seed)
        k = rng.randint(1, 5)
        _match_oracle(seed, model, props, k, cuts, cut, pinned)
        plain, kind, partner, (depths, *_) = _walk(model, props, cut,
                                                   _pins(cuts))
        unmarked = _unmarked(model, plain, cut)
        marked = [i for i, (x, y) in enumerate(zip(unmarked, plain)) if x != y]
        folded = [i for i, (x, y) in enumerate(zip(plain, kind)) if x != y]
        enc = bmc.Unroller(model, unmarked, partner)
        for f in range(k + 1):
            for i in marked:
                assert enc.lit(i, f) == enc.TRUE, (seed, i, f)
            for i in folded:
                lit = enc.lit(i, f)
                other = lit if kind[i] == bmc.ZERO else -lit
                assert enc.solver.solve([other]) == "unsat", (seed, i, f)
        for prop, d in zip(props, depths):
            rails = [r for net in simlib.check_prop_nets(model, prop)
                     for r in (model.index[net],
                               model.dual.known[model.index[net]])]
            live = _live_depth(model, kind, rails)
            assert d is None or (live is not None and d >= live), seed


# EN gates H's load: pinned to 1, H takes d each cycle as G does, and the
# hold loop through H's enable MUX is dead logic.  Z is 0 whatever d is
# while EN is pinned to 0.
LATCH_TEXT = """\
.module latch
.input rst 1
.input d 1
.reg EN 1 init=0
.reg H 1 init=0
.reg G 1 init=0
.reg Z 1 init=0
.wire z 1
.gate AND z EN d
.dff EN d
.dff H d en=EN
.dff G d
.dff Z z
.endmodule
"""


def test_pin_that_cuts_a_flop_loop_bounds_the_depth():
    model, design, lib = build_model(LATCH_TEXT)
    props = props_for("prop same : m0.H == m0.G\n", design, lib)
    en = _forced_nets(model, ["m0.EN"])
    pin = {"m0.EN": 1}
    assert _walk(model, props)[3][0] == [None]
    assert _walk(model, props, en, pin)[3][0] == [1]
    runs = {k: bmc.check(model, props, pin, k=k) for k in (1, 6)}
    assert [runs[k].outcomes["same"].status for k in (1, 6)] == ["PASS"] * 2
    assert runs[6].n_vars == runs[1].n_vars  # frames 2 to 6 are not solved
    free = bmc.check(model, props, {"m0.EN": None}, k=6)
    assert runs[6].n_vars < free.n_vars
    assert oracles.explicit_check(model, props[0], 6, en, {en[0]: 1}) is None
    o = free.outcomes["same"]
    assert (o.status, o.frame) == \
        ("FAIL", oracles.explicit_check(model, props[0], 6, en))
    record_fails(model, props, free)


# g = a & ~a is 0 but an AND gate, so R2 shows `a` three cycles late
# through the second input of an XOR whose first is that AND
XOR_DEEP_TEXT = """\
.module xdeep
.input rst 1
.input a 1
.reg R0 1 init=0
.reg R1 1 init=0
.reg R2 1 init=0
.wire na 1
.gate NOT na a
.wire g 1
.gate AND g a na
.wire x 1
.gate XOR x g R1
.dff R0 a
.dff R1 R0
.dff R2 x
.endmodule
"""


def test_the_depth_counts_every_live_input():
    model, design, lib = build_model(XOR_DEEP_TEXT)
    props = props_for("prop p : ~m0.R2\n", design, lib)
    assert _walk(model, props)[3][0] == [3]
    run = bmc.check(model, props, k=6)
    o = run.outcomes["p"]
    assert (o.status, o.frame) == ("FAIL", 3)
    assert oracles.explicit_check(model, props[0], 6) == 3
    record_fails(model, props, run)


def test_check_whose_properties_all_fold_calls_no_solver(monkeypatch):
    model, design, lib = build_model(LATCH_TEXT)
    props = props_for("prop zero : ~m0.Z\nprop known : m0.Z | ~m0.Z\n",
                      design, lib)
    calls = []
    solve = bmc.Solver.solve
    monkeypatch.setattr(bmc.Solver, "solve",
                        lambda self, *a, **kw: calls.append(a) or
                        solve(self, *a, **kw))
    run = bmc.check(model, props, {"m0.EN": 0}, k=8)
    assert {o.status for o in run.outcomes.values()} == {"PASS"}
    assert calls == [] and run.n_vars == 1
    en = _forced_nets(model, ["m0.EN"])
    kind = _walk(model, props, en, {"m0.EN": 0})[1]
    z = model.index["m0.Z"]
    assert (kind[z], kind[model.dual.known[z]]) == (bmc.ZERO, bmc.ONE)
    for prop in props:
        assert oracles.explicit_check(model, prop, 8, en, {en[0]: 0}) is None


def test_model_with_no_unknown_translates_no_known_rail_helper(monkeypatch):
    # every flop has an init and no input is free, so every known rail is
    # a ONE leaf and the gates the encoding adds to compute them are dead
    model, design, lib = build_model(COUNTER_TEXT)
    props = props_for("prop three : m0.CNT != 3\n"
                      "xprop k : known(m0.CNT) after 0\n", design, lib)
    built = _count_unrollers(monkeypatch)
    run = bmc.check(model, props, k=5)
    assert (run.outcomes["three"].frame, run.outcomes["k"].status) == (3, "PASS")
    helpers = range(2 * len(model.nets), len(model.dual.kind))
    assert len(helpers) > 0 and built
    for enc in built:
        for base in range(0, len(enc.memo), enc.n):
            assert not any(enc.memo[base + i] for i in helpers)
    record_fails(model, props, run)


# every flop has an init; R shows P & a a cycle late
PR_TEXT = """\
.module pr
.input rst 1
.input a 1
.reg P 1 init=0
.reg R 1 init=0
.wire w 1
.gate AND w P a
.dff P a
.dff R w
.endmodule
"""


def test_unpinned_cut_restores_its_readers_known_rails():
    model, design, lib = build_model(PR_TEXT)
    props = props_for("xprop r : known(m0.R) after 0\n", design, lib)
    p = _forced_nets(model, ["m0.P"])
    for cuts, pinned, want in (({}, None, None), ({"m0.P": None}, None, 1),
                               ({"m0.P": 1}, {p[0]: 1}, None)):
        run = bmc.check(model, props, cuts, k=3)
        o = run.outcomes["r"]
        assert (o.status, o.frame) == \
            (("PASS", None) if want is None else ("FAIL", want))
        assert oracles.explicit_check(
            model, props[0], 3, p if cuts else (), pinned) == want
        record_fails(model, props, run)


# -- a stored run matches on the kinds its walk met --------------------------

# m1 reads m0's first output, so blackboxing m0 frees m1.in0
RND_DUO_DSN = """\
.design rndduo
.instance rnd m0
.instance rnd m1
.connect m0.o0 m1.in0
"""


def _boxed_case(seed):
    """Two copies of a random module, m0 feeding m1; three properties
    over m1's registers, checked with m0 blackboxed."""
    rng = random.Random(seed)
    lib = {"rnd": parse_netlist(random_dag_module(rng, n_regs=3,
                                                  uninit=True))}
    design = parse_design(RND_DUO_DSN)
    text = "".join(f"prop p{j} : {random_prop(rng, 3, 'm1')}\n"
                   for j in range(3))
    return rng, elaborate(design, lib), props_for(text, design, lib)


def _pin_steps(rng, inst, n_regs):
    """Cuts as `Flow._refine` grows them, one more register pinned per
    step, and from a random step on, sometimes, a wire cut with no pin."""
    order = rng.sample(range(n_regs), n_regs)
    wire = f"{inst}.n{rng.randrange(12)}" if rng.random() < 0.6 else None
    at = rng.randrange(n_regs + 1)
    values, steps = {}, []
    for step in range(n_regs + 1):
        if step:
            values[f"{inst}.R{order[step - 1]}"] = rng.randrange(2)
        cuts = dict(values)
        if wire and step >= at:
            cuts[wire] = None
        steps.append(cuts)
    return steps


@pytest.mark.parametrize("boxed", [False, True])
def test_remembered_walks_equal_fresh_ones(boxed):
    # over pin sequences, whenever a stored walk's kinds equal a new
    # check's kinds at the ids it met, as `bmc.check`'s store matches
    # runs, a fresh `_walk_cones` meets the same ids in the same order,
    # folds them to the same kinds and finds the same depths and groups;
    # and a check on the model gives what a check on a fresh copy gives
    hits = hits_with_cut = 0
    for seed in range(40):
        make = _boxed_case if boxed else lambda s: _pinned_case(s)[:3]
        rng, model, props = make(seed)
        boxes = frozenset({"m0"} if boxed else ())
        inst, n_regs = ("m1", 3) if boxed else ("m0", len(model.registers))
        stored = []  # (kinds at the ids met, the kinds there, the walk)
        for cuts in _pin_steps(rng, inst, n_regs):
            cut = _forced_nets(model, cuts)
            pins = _pins(cuts)
            plain, kind, partner, (depths, groups, met, was) = \
                _walk(model, props, cut, pins, boxes)
            kinds_at = bmc._kinds_at(met)
            assert was == [plain[i] for i in met], (seed, cuts)
            assert all(plain[i] == kind[i] for i in set(range(len(kind)))
                       - set(met)), (seed, cuts)  # it folds only what it met
            walk = (met, kinds_at(kind), depths, groups)
            matches = [want for at, before, want in stored
                       if at(plain) == before]
            assert all(want == walk for want in matches), (seed, cuts)
            if matches:
                hits += 1
                hits_with_cut += len(cuts) > len(pins)
            else:
                stored.append((kinds_at, kinds_at(plain), walk))
            fresh = make(seed)[1]
            runs = [bmc.check(m, props, cuts, boxes, k=4)
                    for m in (model, fresh)]
            seen = [({n: (o.status, o.frame) for n, o in r.outcomes.items()},
                     r.n_vars, r.n_clauses, r.n_conflicts) for r in runs]
            assert seen[0] == seen[1], (seed, cuts)
    # these seeds hit 5 times (2 with an unpinned cut), 6 (3) boxed
    assert hits >= 4 and hits_with_cut >= 2


# -- reusing checks that ran out of budget -----------------------------------

# R and S hold an input for one cycle; their widths are the parameters
FEED_TEXT = """\
.module feed
.input rst 1
.input x 1
.input r {0}
.input s {1}
.output o 1
.reg R {0} init=0
.reg S {1} init=0
.dff R r
.dff S s
.gate OR o x x
.endmodule
"""

# h0 reads f0's output; h1 is a separate copy of h0's module
TRIO_DSN = """\
.design trio
.instance hard h0
.instance hard h1
.instance feed f0
.connect f0.o h0.sel
"""

QUIET_H0 = "prop quiet : ~(h0.bad)\n"


def _trio(live=".gate OR live CFG[0] sel", init=0, widths=(1, 1)):
    """`hard_block_module`'s parity block, with `bad` also reading `live`.

    `bad` stays identically 0, so a check of QUIET_H0 runs out of any
    small budget, whatever pins, inits or wiring `live` brings in.
    """
    lines = hard_block_module(20, 7, gated=False).splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(".gate AND bad"))
    lines[i] = f".wire live 1\n{live}\n.gate AND bad {lines[i].split()[3]} live"
    text = "\n".join(lines).replace(".input we 1", ".input we 1\n.input sel 1")
    lib = {"hard": parse_netlist(text.replace(".reg CFG 4 init=0",
                                              f".reg CFG 4 init={init}")),
           "feed": parse_netlist(FEED_TEXT.format(*widths))}
    design = parse_design(TRIO_DSN)
    return elaborate(design, lib), design, lib


def _two_checks(first, second):
    """Run two (model, props, cuts, boxes, k, budget) checks on one
    store; returns the runs and how many runs the store keeps."""
    reuse = {}
    runs = [bmc.check(m, props, cuts, boxes, k=k, budget=budget,
                      reuse=reuse) for m, props, cuts, boxes, k, budget in
            (first, second)]
    return runs, sum(map(len, reuse.values()))


@pytest.mark.parametrize("boxes, pin", [
    ((), {}), ((), {"h1.CFG": 9}), ({"h1"}, {"f0.R": 1})],
    ids=["None", "h1.CFG", "h1_boxed-f0.R"])
def test_timed_out_check_is_solved_once(boxes, pin):
    # a pin outside the cone leaves every kind the walk meets as it was
    model, design, lib = _trio()
    props = props_for(QUIET_H0, design, lib)
    (r1, r2), stored = _two_checks((model, props, {}, boxes, 20, 0.05),
                                   (model, props, pin, boxes, 20, 0.05))
    assert r1.outcomes["quiet"].reason == "timeout"
    assert r2 is r1 and stored == 1


def test_checks_on_separate_models_are_solved_twice():
    # two elaborations of one design are equal problems, but the store
    # matches runs per model
    design, lib = _trio()[1:]
    props = props_for(QUIET_H0, design, lib)
    (r1, r2), stored = _two_checks((_trio()[0], props, {}, (), 20, 0.05),
                                   (_trio()[0], props, {}, (), 20, 0.05))
    assert r2 is not r1 and stored == 2
    assert {r.outcomes["quiet"].reason for r in (r1, r2)} == {"timeout"}


XOR_LIVE = ".wire p 1\n.wire q 1\n.gate XOR p e0 e1\n" \
    ".gate XOR q {} e2\n.gate AND live p q"


@pytest.mark.parametrize("change", ["assume", "init", "wiring", "cone_box",
                                    "scope_box", "name", "split", "bound",
                                    "budget"])
def test_checks_that_differ_are_solved_twice(change):
    model, design, lib = _trio()
    props = props_for(QUIET_H0, design, lib)
    a, b = ([model, props, {}, (), 20, 0.05] for _ in range(2))
    if change == "assume":  # CFG[0] is 1, then 0; both leave `bad` live
        a[2], b[2] = {"h0.CFG": 1}, {"h0.CFG": 2}
    elif change == "init":
        b[0] = _trio(init=1)[0]
    elif change == "wiring":  # the same kinds, read in another order
        a[0] = _trio(live=XOR_LIVE.format("e1"))[0]
        b[0] = _trio(live=XOR_LIVE.format("e0"))[0]
    elif change == "cone_box":  # frees h0.sel
        b[3] = {"f0"}
    elif change == "scope_box":  # only the xprop's outcome changes
        a[1] = b[1] = props + props_for(
            "xprop hold : known(h1.CFG) after 30\n", design, lib)
        b[3] = {"h1"}
    elif change == "name":
        b[1] = props_for(QUIET_H0.replace("quiet", "calm"), design, lib)
    elif change == "split":  # six rails, read 4 + 2 and then 2 + 4
        a[1] = b[1] = props + props_for(
            "prop ra : f0.R == 0\nprop sb : f0.S == 0\n", design, lib)
        a[0], b[0] = _trio(widths=(2, 1))[0], _trio(widths=(1, 2))[0]
    elif change == "bound":
        b[4] = 19
    else:
        b[5] = 0.06
    (r1, r2), stored = _two_checks(a, b)
    assert r2 is not r1 and stored == 2
    for r, (_, props, *_) in ((r1, a), (r2, b)):
        assert set(r.outcomes) == {p.name for p in props}
        assert any(o.reason == "timeout" for o in r.outcomes.values())
    if change == "scope_box":
        assert r1.outcomes["hold"].reason == "bound"
        assert r2.outcomes["hold"].status == "VACUOUS"


# m is 0 and CFG[1] dead logic when CFG[0] is pinned to 0; with CFG
# pinned to 3, m and so `live` are 1
DEAD_LIVE = ".wire m 1\n.gate AND m CFG[0] CFG[1]\n.gate OR live sel m"


@pytest.mark.parametrize("second, same", [(2, True), (3, False)])
def test_pins_count_for_reuse_only_where_the_cone_reads_them(second, same):
    model, design, lib = _trio(live=DEAD_LIVE)
    props = props_for(QUIET_H0, design, lib)
    (r1, r2), stored = _two_checks(
        (model, props, {"h0.CFG": 0}, (), 20, 0.05),
        (model, props, {"h0.CFG": second}, (), 20, 0.05))
    assert {r.outcomes["quiet"].reason for r in (r1, r2)} == {"timeout"}
    assert (r2 is r1) == same and stored == 2 - same


def test_pass_and_fail_are_not_stored(counter):
    model, design, lib = counter
    props = props_for("prop a : m0.CNT != 3\nprop b : m0.CNT != 12\n",
                      design, lib)
    reuse = {}
    runs = [bmc.check(model, props, k=5, reuse=reuse) for _ in range(2)]
    assert runs[0].outcomes["a"].status == "FAIL"
    assert runs[0].outcomes["b"].status == "PASS"
    assert runs[1] is not runs[0] and reuse == {}
    record_fails(model, props, runs[1])


def test_negative_bound_or_budget_is_an_error(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 3\n", design, lib)
    with pytest.raises(ValueError):
        bmc.check(model, props, k=-1)
    with pytest.raises(ValueError):
        bmc.check(model, props, k=5, budget=-1.0)


def test_fail_traces_registry_replay():
    # everything recorded in this module replays by construction; checked
    # again wholesale in the acceptance suite
    for model, prop, trace in FAIL_TRACES:
        assert bmc.replay_counterexample(model, prop, trace)
