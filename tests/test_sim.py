"""Three-valued simulation: stepping, bus decode, PoIs, property eval."""

import random

import pytest

from semiform import errors
from semiform.frontend import PropertyAst
from semiform.sim import (Simulator, collect_sim_values, eval_expr3,
                          run_until_poi, set_pois, violated_at)

import oracles
from conftest import (UNUSED_WIRE_TEXT, build_model, props_for,
                      random_dag_module)

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


def test_counter_steps_and_enable(counter):
    model, _, _ = counter
    sim = Simulator(model)
    for _ in range(5):
        sim.step({"m0.rst": 0, "m0.en": 1})
    assert sim.register_value("m0.CNT") == 5
    sim.step({"m0.rst": 0, "m0.en": 0})
    assert sim.register_value("m0.CNT") == 5
    # frame is the settled pre-latch view: outputs still show 5
    frame = sim.step({"m0.rst": 0, "m0.en": 1})
    assert frame[model.index["m0.cnt_out[0]"]] == 1
    assert frame[model.index["m0.cnt_out[2]"]] == 1
    assert sim.register_value("m0.CNT") == 6


def test_counter_wraps(counter):
    model, _, _ = counter
    sim = Simulator(model)
    for _ in range(16):
        sim.step({"m0.rst": 0, "m0.en": 1})
    assert sim.register_value("m0.CNT") == 0


def test_unknowns_propagate_and_resolve():
    model, _, _ = build_model(UNINIT_TEXT)
    sim = Simulator(model)
    frame = sim.step({})  # d undriven: stays X
    assert sim.register_value("m0.R") is None
    assert frame[model.index["m0.q"]] == 2
    sim.step({"m0.d": 1})
    assert sim.register_value("m0.R") == 1
    frame = sim.step({"m0.d": 0})
    assert frame[model.index["m0.q"]] == 0  # settled against R=1 before the latch
    assert sim.register_value("m0.R") == 0


SWAP_TEXT = """\
.module swap
.input rst 1
.reg A 1 init=1
.reg B 1 init=0
.dff A B
.dff B A
.endmodule
"""


def test_flops_latch_simultaneously():
    # each flop's D is the other's Q: every flop must read the pre-latch frame
    model, _, _ = build_model(SWAP_TEXT)
    sim = Simulator(model)
    for want in ((0, 1), (1, 0), (0, 1)):
        sim.step({})
        assert (sim.register_value("m0.A"), sim.register_value("m0.B")) == want


def test_enable_unknown_blurs_register(counter):
    model, _, _ = counter
    sim = Simulator(model)
    sim.step({"m0.rst": 0, "m0.en": 1})
    assert sim.register_value("m0.CNT") == 1
    sim.step({"m0.rst": 0, "m0.en": 2})
    # en X with differing hold/advance values: register goes unknown
    assert sim.register_value("m0.CNT") is None


def test_bus_script_drives_registers(mini_parsed):
    design, lib, regmap, script, _ = mini_parsed
    from semiform.netlist import elaborate
    model = elaborate(design, lib)
    sim = Simulator(model, design, script)
    for _ in range(len(script.statements)):
        sim.run_statement()
    assert sim.register_value("a0.CFG") == 5
    assert sim.register_value("b0.GAIN") == 9
    assert sim.frame[model.index["a0.led"]] == 1
    assert sim.frame[model.index["b0.sig"]] == 1
    assert sim.warnings == []


def test_bus_unmatched_address_warns(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    from semiform.frontend import parse_esw
    from semiform.netlist import elaborate
    script = parse_esw("reset 1\nwrite 0x55 0x1\n")
    model = elaborate(design, lib)
    sim = Simulator(model, design, script)
    sim.run_statement()
    sim.run_statement()
    assert len(sim.warnings) == 1
    assert isinstance(sim.warnings[0], errors.BusDecodeError)
    assert sim.register_value("a0.CFG") == 0


def test_run_until_poi_and_capture(mini_parsed):
    design, lib, regmap, script, _ = mini_parsed
    from semiform.netlist import elaborate
    model = elaborate(design, lib)
    pois = set_pois(regmap, ["a0.CFG", "b0.GAIN"], script)
    assert pois == {1: (1, 0x0, "a0.CFG"), 2: (2, 0x103, "b0.GAIN")}
    sim = Simulator(model, design, script)
    assert run_until_poi(sim, pois) == (1, 0x0, "a0.CFG")
    cap = collect_sim_values(sim, ["a0.CFG", "b0.GAIN"])
    assert cap == {"a0.CFG": 5, "b0.GAIN": 0}
    assert run_until_poi(sim, pois) == (2, 0x103, "b0.GAIN")
    assert collect_sim_values(sim, ["b0.GAIN"]) == {"b0.GAIN": 9}
    assert run_until_poi(sim, pois) is None


def test_set_pois_rejects_unmapped(mini_parsed):
    _, _, regmap, script, _ = mini_parsed
    with pytest.raises(errors.UnknownRegister):
        set_pois(regmap, ["a0.NOPE"], script)


def test_collect_skips_unknown_registers():
    model, _, _ = build_model(UNINIT_TEXT)
    sim = Simulator(model)
    sim.step({})
    assert collect_sim_values(sim, ["m0.R"]) == {}


def test_trace_dump(tmp_path, counter):
    model, _, _ = counter
    out = tmp_path / "run.trace"
    sim = Simulator(model, trace_path=str(out))
    for _ in range(3):
        sim.step({"m0.rst": 0, "m0.en": 1})
    sim.close()
    lines = out.read_text().splitlines()
    assert lines and all(len(l.split()) == 3 for l in lines)
    # cycle 0 dumps every net once; later cycles only changes
    assert sum(1 for l in lines if l.startswith("0 ")) > \
        sum(1 for l in lines if l.startswith("1 "))


def test_eval_expr3_and_violated_at(counter):
    model, design, lib = counter
    props = props_for("prop p : m0.CNT != 3\n", design, lib)
    sim = Simulator(model)
    hits = []
    for cycle in range(6):
        frame = sim.step({"m0.rst": 0, "m0.en": 1})
        if violated_at(model, frame, props[0], cycle):
            hits.append(cycle)
    assert hits == [3]


def test_eval_expr3_unknowns():
    model, design, lib = build_model(UNINIT_TEXT)
    props = props_for("prop p : ~m0.R\n", design, lib)
    sim = Simulator(model)
    frame = sim.step({})
    # R is X: the property is neither 0 nor 1, hence not violated
    assert eval_expr3(model, frame, props[0].expr) == 2
    assert not violated_at(model, frame, props[0], 0)


def test_xprop_violated_after_settle():
    model, _, _ = build_model(UNINIT_TEXT)
    prop = PropertyAst(name="x", expr=("known", ("sig", "m0.R", None)),
                       scope=frozenset({"m0"}), settle=2)
    sim = Simulator(model)
    hits = []
    for cycle in range(4):
        frame = sim.step({})  # R never driven: X forever
        if violated_at(model, frame, prop, cycle):
            hits.append(cycle)
    assert hits == [2, 3]

    sim2 = Simulator(model)
    ok = []
    for cycle in range(4):
        frame = sim2.step({"m0.d": 1})
        ok.append(violated_at(model, frame, prop, cycle))
    # R latches 1 at the end of cycle 0; from cycle 1 the frame shows it
    assert ok == [False, False, False, False]


def _differential_steps(model, rng, cycles):
    """Step the simulator under random 0/1/X drives and compare every net of
    each frame with the recursive oracle, fed the simulator's latched state."""
    sim = Simulator(model)
    index = model.index
    flops = [n.output for n in model.nodes if n.kind == "DFF"]
    for cycle in range(cycles):
        state = {q: sim.values[index[q]] for q in flops}
        drive = {i: rng.choice((0, 1, 2)) for i in model.inputs}
        frame = sim.step(drive)
        want = oracles.eval_nets3(model, state, drive)
        for net in model.nets:
            assert frame[index[net]] == want[net], (model.name, cycle, net)


@pytest.mark.parametrize("seed", range(24))
def test_simulation_matches_oracle_on_random_dags(seed):
    rng = random.Random(seed)
    text = random_dag_module(rng, n_regs=3, n_gates=rng.randrange(5, 30),
                             uninit=True)
    model, _, _ = build_model(text)
    _differential_steps(model, rng, cycles=6)


def test_simulation_matches_oracle_on_corpus(corpus_library):
    from semiform.frontend import parse_design
    from semiform.netlist import elaborate
    rng = random.Random(11)
    for name, ip in sorted(corpus_library.items()):
        design = parse_design(f".design d\n.instance {name} u0\n")
        _differential_steps(elaborate(design, {name: ip}), rng, cycles=4)


def test_property_on_unused_wire_is_an_error():
    model, design, lib = build_model(UNUSED_WIRE_TEXT)
    props = props_for("prop p : ~m0.w\n", design, lib)
    frame = Simulator(model).step({})
    with pytest.raises(errors.SemiformError, match="property p .* m0.w"):
        violated_at(model, frame, props[0], 0)
