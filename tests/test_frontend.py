"""Input formats: parsing, validation errors, serialization round trips."""

import pytest

from semiform import errors
from semiform.frontend import (divide_props, gen_xprop, parse_design,
                               parse_esw, parse_netlist, parse_props,
                               parse_regmap, render_expr, serialize_props)
from semiform.kernels import X
from semiform.sim import Simulator

from conftest import (COUNTER_TEXT, MINI_DSN, MINI_ESW, MINI_MAP, MINI_PROP,
                      build_model)
from writers import (serialize_design, serialize_esw, serialize_netlist,
                     serialize_regmap)


# -- netlists ----------------------------------------------------------------


def test_netlist_round_trip():
    ip = parse_netlist(COUNTER_TEXT)
    again = parse_netlist(serialize_netlist(ip))
    assert again.name == ip.name
    assert [(p.name, p.width, p.direction) for p in again.ports] == \
        [(p.name, p.width, p.direction) for p in ip.ports]
    assert [(r.name, r.width, r.init) for r in again.registers] == \
        [(r.name, r.width, r.init) for r in ip.registers]
    assert len(again.nodes) == len(ip.nodes)


def test_netlist_errors():
    cases = [
        ".module t\n.input a 1\n.gate AND o a\n.endmodule\n",  # arity
        ".module t\n.input a 1\n.gate AND o a b\n.endmodule\n",  # undeclared
        ".module t\n.input a 0\n.endmodule\n",  # zero width
        ".module t\n.input a 1\n.input a 1\n.endmodule\n",  # redeclared
        ".module t\n.input d 1\n.wire w 1\n.dff w d\n.endmodule\n",  # dff non-reg
    ]
    for text in cases:
        with pytest.raises(errors.ParseError):
            parse_netlist(text)


def test_dff_reset_value_defaults_to_zero():
    text = (".module t\n.input a 2\n.input r 1\n.reg R 2\n"
            ".dff R a rst=r{}\n.endmodule\n")
    nodes = parse_netlist(text.format("")).nodes
    assert nodes == parse_netlist(text.format(" rstval=0")).nodes
    assert [n.rstval for n in nodes if n.kind == "DFF"] == [0, 0]


def test_netlist_const_and_bit_refs():
    text = (".module t\n.input a 2\n.output o 1\n.wire k 2\n"
            ".const k 10\n.gate AND o a[1] k[1]\n.endmodule\n")
    ip = parse_netlist(text)
    consts = [n for n in ip.nodes if n.kind == "CONST"]
    assert [c.value for c in consts] == [0, 1]
    # a bit-indexed target takes exactly one bit and drives only it: the
    # other bits read X
    text = ".module t\n.output w 3\n.const w[2] 1\n.endmodule\n"
    assert [(n.kind, n.output, n.value) for n in parse_netlist(text).nodes] \
        == [("CONST", "w[2]", 1)]
    model, _, _ = build_model(text)
    assert model.nets == ("m0.w[0]", "m0.w[1]", "m0.w[2]")
    assert Simulator(model).step() == bytes([X, X, 1])
    with pytest.raises(errors.WidthMismatch,
                       match="single bit target needs 1 const bit"):
        parse_netlist(text.replace("w[2] 1", "w[2] 10"))


# -- designs -------------------------------------------------------------------


def test_design_round_trip(mini_parsed):
    design, _, _, _, _ = mini_parsed
    again = parse_design(serialize_design(design))
    assert again.name == design.name
    assert again.instances == design.instances
    assert again.connects == design.connects
    assert again.tops == design.tops
    assert again.bus == design.bus


def test_design_errors():
    with pytest.raises(errors.ParseError):
        parse_design(".design d\n.instance alpha a0\n.instance alpha a0\n")
    with pytest.raises(errors.ParseError):
        parse_design(".design d\n.connect a0.x b0.y\n")  # unknown instance


@pytest.mark.parametrize("parse, text", [
    (parse_design, ".design\n"),
    (parse_design, ".design d\n.bus\n"),
    (parse_design, ".design d\n.bus reset\n"),
    (parse_design, ".design d\n.bus range 0x0\n"),
    (parse_design, ".design d\n.bus map 0x0\n"),
    (parse_netlist, ".module\n"),
    (parse_netlist, ".module t\n.gate\n"),
], ids=["design", "bus", "bus_reset", "bus_range", "bus_map", "module",
        "gate"])
def test_short_directive_is_a_parse_error(parse, text):
    with pytest.raises(errors.ParseError):
        parse(text)


@pytest.mark.parametrize("line", [
    ".bus reset rst extra",
], ids=["bus_reset"])
def test_trailing_bus_token_is_a_parse_error(line):
    head = (".design d\n.instance m a0\n"
            ".bus range 0x0 0x10 addr=a0.a wdata=a0.w we=a0.e\n")
    parse_design(head + line.rsplit(" ", 1)[0] + "\n")  # valid without it
    with pytest.raises(errors.ParseError, match="takes"):
        parse_design(head + line + "\n")


def test_bus_map_in_a_design_is_a_parse_error():
    # register addresses live in the .map file only
    line = MINI_DSN.count("\n") + 1
    with pytest.raises(errors.ParseError,
                       match=rf"<input>:{line}:1: unknown \.bus directive map$"):
        parse_design(MINI_DSN + ".bus map 0x0 a0.CFG\n")


@pytest.mark.parametrize("options", [
    "en=", "rst=", "rstval=1", "en=e en=a",
], ids=["empty_en", "empty_rst", "rstval_without_rst", "second_en"])
def test_dff_option_that_would_be_dropped_is_a_parse_error(options):
    text = (".module t\n.input a 1\n.input e 1\n.reg R 1\n"
            f".dff R a {options}\n.endmodule\n")
    parse_netlist(text.replace(f" {options}", ""))  # valid without them
    with pytest.raises(errors.ParseError):
        parse_netlist(text)


@pytest.mark.parametrize("options", [
    "addr=a wdata=w we=e foo=bar", "addr=a wdata=w we=e addr=b",
    "addr= wdata=w we=e", "addr=a wdata=w we=e bogus",
], ids=["unknown_key", "second_key", "empty_value", "no_equals"])
def test_bad_bus_range_option_is_a_parse_error(options):
    text = ".design d\n.bus range 0x0 0x10 {}\n"
    assert parse_design(text.format("addr=a wdata=w we=e")).bus.ranges
    with pytest.raises(errors.ParseError):
        parse_design(text.format(options))


@pytest.mark.parametrize("parse, text, good, bad", [
    (parse_netlist, ".module t\n.reg R 4 init={}\n.endmodule\n", "1", "-1"),
    (parse_netlist, ".module t\n.input a 1\n.input r 1\n.reg R 1\n"
     ".dff R a rst=r rstval={}\n.endmodule\n", "1", "-1"),
    (parse_esw, "reset 1\nwrite {} 0x5\n", "0x4", "-4"),
    (parse_esw, "reset 1\nwrite 0x4 {}\n", "5", "-5"),
    (parse_esw, "reset 1\nread {}\n", "0x4", "-4"),
    (parse_regmap, "{} a.B\n", "0x10", "-0x10"),
    (parse_design, ".design d\n.bus range {} 0x10 addr=a wdata=w we=e\n",
     "0x10", "-0x10"),
    (parse_design, ".design d\n.bus range 0x0 {} addr=a wdata=w we=e\n",
     "0x10", "-1"),
], ids=["reg_init", "dff_rstval", "write_address", "write_value",
        "read_address", "regmap_address", "bus_range_base", "bus_range_size"])
def test_negative_number_is_a_parse_error(parse, text, good, bad):
    parse(text.format(good))
    with pytest.raises(errors.ParseError, match="negative"):
        parse(text.format(bad))


# -- register map --------------------------------------------------------------


def test_regmap_lookup(mini_parsed):
    _, _, regmap, _, _ = mini_parsed
    assert regmap.register_at(0x0) == "a0.CFG"
    assert regmap.register_at(0x103) == "b0.GAIN"
    assert regmap.register_at(0x55) is None
    assert regmap.registers() == ["a0.CFG", "b0.GAIN"]
    reparsed = parse_regmap(serialize_regmap(regmap))
    assert reparsed.entries == regmap.entries


def test_regmap_errors(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    with pytest.raises(errors.DuplicateAddress, match="address 0x0 listed"):
        parse_regmap("0x0 a0.CFG\n0x0 b0.GAIN\n")
    with pytest.raises(errors.DuplicateAddress, match="a0.CFG mapped twice"):
        parse_regmap("0x0 a0.CFG\n0x4 a0.CFG\n")  # with no design too
    # the map is the one register map: any address inside a .bus range
    # may hold a register, whatever the design says
    moved = parse_regmap("0x1 a0.CFG\n", design=design, library=lib)
    assert moved.register_at(0x1) == "a0.CFG"


@pytest.mark.parametrize("line, error, message", [
    ("0x55 b0.GAIN", errors.ParseError, "address 0x55 is outside every "
     r"\.bus range"),
    ("0x4 a0.CFG", errors.DuplicateAddress, "register a0.CFG mapped twice"),
    ("0x4 z0.CFG", errors.UnknownSignal, "unknown instance z0"),
    ("0x4 a0.NOPE", errors.UnknownSignal, "module alpha has no register NOPE"),
], ids=["outside_every_range", "register_twice", "unknown_instance",
        "unknown_register"])
def test_regmap_design_check_names_the_map_line(mini_parsed, line, error,
                                                message):
    design, lib, _, _, _ = mini_parsed
    with pytest.raises(error, match=f"^m.map:2:1: {message}$"):
        parse_regmap(f"0x0 a0.CFG\n{line}\n", "m.map", design, lib)


# -- software scripts -----------------------------------------------------------


def test_esw_accesses(mini_parsed):
    _, _, _, script, _ = mini_parsed
    assert script.statements[0] == ("reset", 2)
    assert script.accesses() == [(1, "write", 0x0), (2, "write", 0x103)]
    again = parse_esw(serialize_esw(script))
    assert again.statements == script.statements


def test_esw_errors():
    for text in ["", "wait 3\n", "reset 0\n", "reset 2\nwrite 0x0\n",
                 "reset 2\npoke 0x0 1\n",
                 "reset 1\nwrite 0x100000000 0x0\n"]:
        with pytest.raises(errors.ParseError):
            parse_esw(text)


# -- properties ------------------------------------------------------------------


def test_prop_parse_and_render(mini_parsed):
    design, lib, _, _, props = mini_parsed
    names = [p.name for p in props]
    assert names == ["alpha_quiet", "beta_quiet", "cross_ok"]
    assert props[0].scope == frozenset({"a0"})
    assert props[2].scope == frozenset({"a0", "b0"})
    text = serialize_props(props)
    again = parse_props(text, design=design, library=lib)
    assert [render_expr(p.expr) for p in again] == \
        [render_expr(p.expr) for p in props]


def test_prop_precedence():
    p = parse_props("prop p : ~a.x & a.y | a.z -> a.w == 1\n")[0]
    # -> binds loosest, then |, &, ~; == tightest of the binary ops
    assert p.expr[0] == "imp"
    assert p.expr[1][0] == "or"
    assert p.expr[1][1][0] == "and"
    assert p.expr[2][0] == "eq"


def test_prop_errors(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    bad = [
        "prop p : a0.CFG == 1\nprop p : a0.CFG == 2\n",  # duplicate name
        "notprop p : 1 == 1\n",
        "prop p : a0.CFG ==\n",
    ]
    for text in bad:
        with pytest.raises(errors.ParseError):
            parse_props(text, design=design, library=lib)
    with pytest.raises(errors.UnknownSignal):
        parse_props("prop p : ~a0.NOPE\n", design=design, library=lib)
    with pytest.raises(errors.WidthMismatch):
        # 4-bit register in a boolean position
        parse_props("prop p : ~a0.CFG\n", design=design, library=lib)


def test_prop_reads_a_top_level_port(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    p = parse_props("prop p : rst -> ~(a0.bad)\n", design=design,
                    library=lib)[0]
    assert p.scope == frozenset({"a0"})
    with pytest.raises(errors.WidthOverflow, match="does not fit 1 bits"):
        parse_props("prop p : rst == 2\n", design=design, library=lib)
    with pytest.raises(errors.UnknownSignal, match="top-level port rsx"):
        parse_props("prop p : ~rsx\n", design=design, library=lib)


def test_gen_xprop(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    xs = gen_xprop(design, lib)
    assert [x.name for x in xs] == ["xprop_a0_CFG", "xprop_b0_GAIN"]
    assert all(x.expr[0] == "known" and x.settle == 4 for x in xs)
    assert xs[0].expr[1] == ("sig", "a0.CFG", None) and xs[0].scope == {"a0"}
    assert gen_xprop(design, lib, settle=7)[0].settle == 7
    text = serialize_props(xs)
    assert "known(a0.CFG) after 4" in text


def test_gen_xprop_reads_back(mini_parsed):
    design, lib, _, _, _ = mini_parsed
    xs = gen_xprop(design, lib, settle=7)
    text = serialize_props(xs) + "prop p : a0.CFG == 1\n"
    assert parse_props(text, design=design, library=lib)[:2] == xs
    assert parse_props(serialize_props(xs)) == xs  # no design to check
    for bad in ("a0.NOPE", "z9.CFG"):
        with pytest.raises(errors.UnknownSignal):
            parse_props(f"xprop x : known({bad}) after 4\n", design=design,
                        library=lib)
    for bad in ("known(a0.CFG) after -1", "known(CFG) after 4"):
        with pytest.raises(errors.ParseError):
            parse_props(f"xprop x : {bad}\n", design=design, library=lib)
    with pytest.raises(errors.ParseError):  # names are shared with props
        parse_props("prop x : a0.CFG == 1\n"
                    "xprop x : known(a0.CFG) after 4\n")


def test_divide_props_corpus(gateway):
    design, lib, _, _, props = gateway
    groups = divide_props(props, design, lib)
    assert set(groups) == {"can", "cpu", "ethmac", "ram",
                           "subsystem-1", "subsystem-2", "subsystem-3"}
    counts = {k: len(v) for k, v in groups.items()}
    assert counts == {"can": 2, "cpu": 1, "ethmac": 3, "ram": 1,
                      "subsystem-1": 1, "subsystem-2": 1, "subsystem-3": 1}
    # subsystem k covers the top k+1 ranked instances
    sub2 = groups["subsystem-2"][0]
    assert sub2.scope <= {"cpu0", "ram0", "can0"}
    assert len(sub2.scope) > 1


def test_divide_props_unresolvable(gateway):
    design, lib, _, _, _ = gateway
    from semiform.frontend import PropertyAst
    p = PropertyAst(name="q", expr=("int", 1), scope=frozenset())
    with pytest.raises(errors.UnresolvableScope):
        divide_props([p], design, lib)
