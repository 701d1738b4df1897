"""Netlist model: parsing contracts, elaboration, cones, ranking."""

import random

import pytest

from semiform import bmc, errors
from semiform.frontend import (gen_xprop, parse_design, parse_netlist,
                               parse_props, parse_regmap)
from semiform.netlist import (connection_scores, elaborate, fanout_cone,
                              list_unique_ips, rank_ips_by_connection)
from semiform.sim import Simulator
from semiform.sra import do_sra

from conftest import (COUNTER_TEXT, build_model, flow_keep_sets,
                      random_dag_module)
import oracles


def test_parse_counter_shape():
    ip = parse_netlist(COUNTER_TEXT)
    assert ip.name == "counter"
    assert {p.name for p in ip.ports} == {"rst", "en", "cnt_out"}
    assert ip.port("cnt_out").width == 4
    regs = {r.name: r for r in ip.registers}
    assert regs["CNT"].width == 4 and regs["CNT"].init == 0


def test_parse_rejects_duplicate_driver():
    text = (".module t\n.input a 1\n.output o 1\n.wire w 1\n"
            ".gate NOT w a\n.gate NOT w a\n.gate NOT o w\n.endmodule\n")
    with pytest.raises(errors.MultipleDrivers):
        build_model(text)


def test_parse_rejects_comb_cycle():
    text = (".module t\n.input a 1\n.output o 1\n.wire w 1\n.wire v 1\n"
            ".gate AND w a v\n.gate NOT v w\n.gate NOT o w\n.endmodule\n")
    with pytest.raises(errors.CombinationalLoop):
        parse_netlist(text)


def test_parse_rejects_unknown_gate_and_missing_end():
    with pytest.raises(errors.ParseError):
        parse_netlist(".module t\n.input a 1\n.gate NAND a a a\n.endmodule\n")
    with pytest.raises(errors.ParseError):
        parse_netlist(".module t\n.input a 1\n")


def test_parse_init_overflow():
    with pytest.raises(errors.WidthOverflow):
        parse_netlist(".module t\n.reg R 2 init=4\n.input d 2\n.dff R d\n"
                      ".endmodule\n")


def test_elaborate_counter_basics(counter):
    model, _, _ = counter
    assert model.instances == ("m0",)
    assert "m0.CNT" in model.registers
    assert len(model.registers["m0.CNT"]) == 4
    assert set(model.inputs) >= {"m0.rst", "m0.en"}
    # every node output single-driven, comb graph compiled topologically
    cm = model.compile()
    assert {o for *_, o in cm.gates} <= set(range(len(model.nets)))
    assert len(cm.dff_q) == 4


def test_elaborate_connects_alias_nets(mini_parsed, gateway):
    design, lib, _, _, _ = mini_parsed
    model = elaborate(design, lib)
    # a0.led drives b0.sense: both are one net, named by its driver
    led = model.signal_bits("a0.led")[0]
    sense = model.signal_bits("b0.sense")[0]
    assert led == sense == "a0.led"
    assert "b0.sense" not in model.inputs
    # connected bits share one name at every instance set the flow builds,
    # so no reader has a name to translate
    for design, lib in ((design, lib), gateway[:2]):
        for keep in flow_keep_sets(design, lib):
            model = elaborate(design, lib, keep=keep)
            for ia, pa, ib, pb in design.connects:
                if ia in keep and ib in keep:
                    assert model.signal_bits(f"{ia}.{pa}") == \
                        model.signal_bits(f"{ib}.{pb}"), (keep, ia, pa)
            for tp, inst, port in design.tops:
                if inst in keep:
                    assert model.signal_bits(tp) == \
                        model.signal_bits(f"{inst}.{port}"), (keep, tp)
            assert model.registers
            for reg, bits in model.registers.items():
                assert bits == model.signals[reg]
                assert all(b in model.index for b in bits), (keep, reg)


def test_elaborate_keep_frees_dropped_connections(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    sub = elaborate(design, lib, keep={"b0"})
    assert sub.instances == ("b0",)
    # the net formerly driven by a0.led is now an unconstrained input
    sense = sub.signal_bits("b0.sense")[0]
    assert sense in sub.inputs
    assert sense not in {n.output for n in sub.nodes}
    with pytest.raises(errors.UnknownInstance):
        elaborate(design, lib, keep={"b0", "zz"})


def test_undriven_connection_is_named_by_its_smallest_name():
    # no instance drives the group and no top port names it, so it is an
    # input of the model under the smallest of its names
    ip = parse_netlist(".module buf\n.input i 1\n.output o 1\n"
                       ".gate NOT o i\n.endmodule\n")
    design = parse_design(".design pair\n.instance buf b\n.instance buf a\n"
                          ".connect b.i a.i\n")
    model = elaborate(design, {"buf": ip})
    assert model.signal_bits("b.i") == model.signal_bits("a.i") == ("a.i",)
    assert model.inputs == ("a.i",) and "b.i" not in model.index


@pytest.mark.parametrize("call", [
    lambda d, lib: parse_regmap("0x0 a0.CFG\n", None, d, lib),
    lambda d, lib: parse_props("prop q : ~(a0.bad)\n", None, d, lib),
    gen_xprop, rank_ips_by_connection,
    lambda d, lib: elaborate(d, lib, keep={"a0"})],
    ids=["parse_regmap", "parse_props", "gen_xprop",
         "rank_ips_by_connection", "elaborate"])
def test_missing_module_raises_unknown_module(mini_parsed, call):
    # each reader meets the library through one lookup, which covers
    # every instance of the design, whatever the call itself reads
    design, lib, _, _, _ = mini_parsed
    with pytest.raises(errors.UnknownModule,
                       match="instance b0 references unknown module beta"):
        call(design, {"alpha": lib["alpha"]})


def test_blackbox_marks_and_frees(mini_parsed):
    # a box frees the nets it drives that the rest reads or that are
    # observable, and hides the nets only its own gates drive or read
    design, lib, _, _, _ = mini_parsed
    model = elaborate(design, lib)
    model.dual = bmc.xprop_encode(model)
    base, freed, hidden = bmc._box(model, frozenset({"a0"}))
    sense = model.signal_bits("b0.sense")[0]
    assert [model.nets[v] for v in freed] == ["a0.bad", sense]
    assert set(model.registers["a0.CFG"]) <= hidden
    assert hidden.isdisjoint(model.inputs)
    assert bmc._box(model, frozenset({"a0"}))[0] is base
    with pytest.raises(errors.UnknownInstance):
        bmc.check(model, [], boxes={"nope"})


# R loads d while e is 1 and 2 while rst is 1; PLAIN_DFF_TEXT writes the
# same register out with the MUX and CONST gates the options stand for
SUGAR_DFF_TEXT = """\
.module sugar
.input rst 1
.input e 1
.input d 2
.reg R 2
.dff R d en=e rst=rst rstval=2
.endmodule
"""

PLAIN_DFF_TEXT = """\
.module plain
.input rst 1
.input e 1
.input d 2
.reg R 2
.wire h 2
.wire v 2
.wire n 2
.const v 10
.gate MUX h[0] e d[0] R[0]
.gate MUX h[1] e d[1] R[1]
.gate MUX n[0] rst v[0] h[0]
.gate MUX n[1] rst v[1] h[1]
.dff R n
.endmodule
"""


def test_dff_options_simulate_and_check_as_explicit_gates():
    built = [build_model(t) for t in (SUGAR_DFF_TEXT, PLAIN_DFF_TEXT)]
    sims = [Simulator(model) for model, _, _ in built]
    rng = random.Random(3)
    for _ in range(40):
        drive = {net: rng.randrange(2)
                 for net in ("m0.rst", "m0.e", "m0.d[0]", "m0.d[1]")}
        frames = [(sim.step(drive), model) for sim, (model, _, _)
                  in zip(sims, built)]
        got = [[frame[model.index[b]] for b in model.registers["m0.R"]]
               for frame, model in frames]
        assert got[0] == got[1]
    assert 2 in {s.register_value("m0.R") for s in sims}  # a reset showed
    text = ("prop r : m0.R != 2\nprop q : m0.R[1] -> m0.R[0]\n"
            "xprop x : known(m0.R) after 1\n")
    seen = []
    for model, design, lib in built:
        props = parse_props(text, design=design, library=lib)
        run = bmc.check(model, props, k=4)
        for prop in props:
            frame = oracles.explicit_check(model, prop, 4)
            o = run.outcomes[prop.name]
            want = ("PASS", None) if frame is None else ("FAIL", frame)
            assert (o.status, o.frame) == want, prop.name
        seen.append((run.outcomes.keys(), run.n_vars, run.n_clauses))
    assert seen[0] == seen[1]


def test_fanout_cone_example_arithmetic(fig_example):
    model, _, _ = fig_example
    c1 = fanout_cone(model, "m0.reg1")
    c2 = fanout_cone(model, "m0.reg2")
    assert (c1.paths, len(c1.elements)) == (1, 9)
    assert (c2.paths, len(c2.elements)) == (3, 13)


def test_fanout_cone_crosses_flops():
    # reg A feeds reg B's data; B's cone must not include A's flop, and
    # A's path terminates at B while its elements continue across B
    text = (".module t\n.input rst 1\n.input d 1\n.output o 1\n"
            ".reg A 1 init=0\n.reg B 1 init=0\n"
            ".wire w 1\n.gate NOT w A\n.dff A d\n.dff B w\n"
            ".gate NOT o B\n.endmodule\n")
    model, _, _ = build_model(text)
    ca = fanout_cone(model, "m0.A")
    cb = fanout_cone(model, "m0.B")
    assert ca.paths == 1  # ends at B's flop
    # each element is the net its node drives: w's NOT, B's flop and o's NOT
    assert [model.nets[v] for v in ca.elements] == ["m0.B", "m0.o", "m0.w"]
    assert cb.paths == 1 and len(cb.elements) == 1


def test_fanout_cone_of_a_deep_chain():
    # R drives 3,000 NOT gates into S's flop: one path, and the chain plus
    # S's flop as elements, counted without recursing down the chain
    n = 3000
    lines = [".module t", ".input d 1", ".reg R 1 init=0", ".reg S 1 init=0"]
    lines += [f".wire w{i} 1" for i in range(n)]
    lines += [".gate NOT w0 R"]
    lines += [f".gate NOT w{i} w{i - 1}" for i in range(1, n)]
    lines += [".dff R d", f".dff S w{n - 1}", ".endmodule"]
    model, _, _ = build_model("\n".join(lines) + "\n")
    ranked = do_sra(model, ["m0.R"])
    assert (ranked.scores[0].paths, ranked.scores[0].elements) == (1, 3001)


def test_fanout_cone_unknown_register(counter):
    model, _, _ = counter
    with pytest.raises(errors.UnknownRegister):
        fanout_cone(model, "m0.NOPE")


def test_paths_match_enumeration_on_random_dags():
    rng = random.Random(42)
    for _ in range(25):
        text = random_dag_module(rng, n_regs=rng.randrange(1, 4),
                                 n_inputs=2, n_gates=rng.randrange(5, 25))
        model, _, _ = build_model(text)
        for reg in model.registers:
            cone = fanout_cone(model, reg)
            assert cone.paths == oracles.enumerate_paths(model, reg)
            assert len(cone.elements) == oracles.reach_elements(model, reg)


# A's flop has an enable and a reset (MUX and CONST readers once
# desugared), H has no `.dff` and so reads itself, and w, x and o each
# read one net twice
MIXED_FANOUT_TEXT = """\
.module mix
.input rst 1
.input e 1
.input i 1
.output o 1
.output p 1
.reg A 2 init=1
.reg H 1
.reg B 1 init=0
.wire w 1
.wire x 1
.wire y 1
.wire z 2
.gate AND w A[0] A[0]
.gate MUX x A[1] w w
.gate XOR y x H
.gate OR z[0] y i
.gate NOT z[1] w
.dff A z en=e rst=rst rstval=2
.dff B y en=x
.gate AND o B B
.gate OR p x H
.endmodule
"""


@pytest.mark.parametrize("case", ["mix", "mix_chain", "mini"])
def test_paths_match_enumeration_beyond_random_dags(case, mini_parsed):
    # what the random DAGs never make: flop options, a register holding
    # its value, gates reading one net twice and connected instances
    if case == "mix":
        model, _, _ = build_model(MIXED_FANOUT_TEXT)
    elif case == "mix_chain":
        ip = parse_netlist(MIXED_FANOUT_TEXT)
        design = parse_design(
            ".design chain\n.instance mix s0\n.instance mix s1\n"
            ".connect s0.o s1.i\n.connect s1.p s0.i\n"
            ".top rst s0.rst\n.top rst s1.rst\n")
        model = elaborate(design, {"mix": ip})
    else:
        design, lib, _, _, _ = mini_parsed
        model = elaborate(design, lib)
    assert len(model.instances) == (1 if case == "mix" else 2)
    for reg in model.registers:
        cone = fanout_cone(model, reg)
        assert cone.paths == oracles.enumerate_paths(model, reg), reg
        assert len(cone.elements) == oracles.reach_elements(model, reg), reg
        assert cone.paths > 0, reg


def test_connection_ranking_gateway(gateway):
    design, lib, _, _, _ = gateway
    scores = connection_scores(design, lib)
    assert scores == {"cpu0": 70, "ram0": 40, "can0": 20, "ethmac0": 20}
    assert rank_ips_by_connection(design, lib) == \
        ["cpu0", "ram0", "can0", "ethmac0"]
    assert list_unique_ips(design) == ["can", "cpu", "ethmac", "ram"]


def test_state_bits(counter):
    # the model's state is its registers' bits, one flop each
    model, _, _ = counter
    bits = [b for r in model.registers.values() for b in r]
    assert len(bits) == 4
    assert sorted(bits) == sorted(n.output for n in model.nodes
                                  if n.kind == "DFF")


def test_cycle_messages_name_their_scope():
    # one checker serves both levels: a loop inside an IP names the IP, a
    # loop closed only by connections between instances names no IP
    with pytest.raises(errors.CombinationalLoop, match="^t: combinational"):
        parse_netlist(".module t\n.input a 1\n.output o 1\n.wire w 1\n"
                      ".wire v 1\n.gate AND w a v\n.gate NOT v w\n"
                      ".gate NOT o w\n.endmodule\n")
    ip = parse_netlist(".module inv\n.input i 1\n.output o 1\n"
                       ".gate NOT o i\n.endmodule\n")
    design = parse_design(".design ring\n.instance inv a\n.instance inv b\n"
                          ".connect a.o b.i\n.connect b.o a.i\n")
    with pytest.raises(errors.CombinationalLoop,
                       match="^combinational cycle through"):
        elaborate(design, {"inv": ip})
