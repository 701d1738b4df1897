"""Parsers for the on-disk formats, and the property writer.

Five line-oriented formats: netlist (`.net`), design (`.dsn`), register map
(`.map`), software transaction script (`.esw`), and property file (`.prop`).
`#` starts a comment anywhere; tokens are whitespace-separated.  The one
writer, `serialize_props`, prints `gen-xprop`'s obligations.

The design declares the bus (`.bus reset`, `.bus range`); the `.map` file
alone says which register sits at which address.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    DuplicateAddress,
    ParseError,
    UnknownSignal,
    UnresolvableScope,
    WidthMismatch,
    WidthOverflow,
)
from .netlist import (
    GATE_ARITY,
    BusRange,
    BusSpec,
    Design,
    IpNetlist,
    Node,
    Port,
    RegisterDecl,
    bit_nets,
    instance_ips,
    list_unique_ips,
    rank_ips_by_connection,
)

BUS_WIDTH = 32


def _lines(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = body.split()
        if toks:
            yield ln, toks


def _parse_int(tok: str, ln: int, path, what: str) -> int:
    """A non-negative integer literal: decimal, or 0x/0o/0b prefixed."""
    try:
        v = int(tok, 0)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", ln, 1, path) from None
    if v < 0:
        raise ParseError(f"{what} {tok!r} is negative", ln, 1, path)
    return v


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_BITREF_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\[(\d+)\])?$")


def _need(toks, n: int, usage: str, ln: int, path):
    """Raise ParseError with `usage` when a line has fewer than `n` tokens."""
    if len(toks) < n:
        raise ParseError(usage, ln, 1, path)


def _check_name(tok: str, ln: int, path):
    if not _NAME_RE.match(tok):
        raise ParseError(f"bad identifier {tok!r}", ln, 1, path)
    return tok


def _options(toks, keys, directive: str, ln: int, path) -> dict:
    """A directive's `key=value` tokens by key, None where not given.

    A token with no `=`, an unknown or repeated key, or an empty value
    raises ParseError.
    """
    opts = dict.fromkeys(keys)
    for t in toks:
        k, eq, v = t.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {t!r}", ln, 1, path)
        if k not in opts:
            raise ParseError(f"unknown {directive} option {k}", ln, 1, path)
        if not v:
            raise ParseError(f"{directive} option {k} has no value", ln, 1, path)
        if opts[k] is not None:
            raise ParseError(f"second {directive} option {k}", ln, 1, path)
        opts[k] = v
    return opts


# ---------------------------------------------------------------------------
# netlist


def parse_netlist(text: str, path: str | None = None) -> IpNetlist:
    name = None
    ports: list[Port] = []
    wires: dict[str, int] = {}
    reg_decl: dict[str, tuple[int, int | None, int]] = {}  # name -> (width, init, line)
    dffs: dict[str, dict] = {}
    nodes: list[Node] = []
    widths: dict[str, int] = {}
    ended = False

    def declare(n: str, w: int, ln: int):
        if n in widths:
            raise ParseError(f"signal {n} already declared", ln, 1, path)
        if w < 1:
            raise ParseError(f"width of {n} must be >= 1", ln, 1, path)
        widths[n] = w

    def bitref(tok: str, ln: int) -> str:
        m = _BITREF_RE.match(tok)
        if not m:
            raise ParseError(f"bad net reference {tok!r}", ln, 1, path)
        base, idx = m.group(1), m.group(2)
        if base not in widths:
            raise UnknownSignal(f"undeclared signal {base}", ln, 1, path)
        w = widths[base]
        if idx is None:
            if w != 1:
                raise WidthMismatch(f"{path or '<input>'}:{ln}: {base} is {w} bits wide, need a bit index")
            return base
        i = int(idx)
        if i >= w:
            raise WidthOverflow(f"bit {i} out of range for {base}[{w}]", ln, 1, path)
        return base if w == 1 else f"{base}[{i}]"

    for ln, toks in _lines(text):
        key = toks[0]
        if ended:
            raise ParseError("text after .endmodule", ln, 1, path)
        if key == ".module":
            if name is not None:
                raise ParseError("second .module in file", ln, 1, path)
            _need(toks, 2, ".module takes NAME", ln, path)
            name = _check_name(toks[1], ln, path)
        elif name is None:
            raise ParseError("directive before .module", ln, 1, path)
        elif key in (".input", ".output", ".wire"):
            if len(toks) != 3:
                raise ParseError(f"{key} takes NAME WIDTH", ln, 1, path)
            n = _check_name(toks[1], ln, path)
            w = _parse_int(toks[2], ln, path, "width")
            declare(n, w, ln)
            if key == ".wire":
                wires[n] = w
            else:
                ports.append(Port(n, "in" if key == ".input" else "out", w))
        elif key == ".reg":
            if len(toks) not in (3, 4):
                raise ParseError(".reg takes NAME WIDTH [init=V|x]", ln, 1, path)
            n = _check_name(toks[1], ln, path)
            w = _parse_int(toks[2], ln, path, "width")
            declare(n, w, ln)
            init: int | None = None
            if len(toks) == 4:
                if not toks[3].startswith("init="):
                    raise ParseError(f"expected init=, got {toks[3]!r}", ln, 1, path)
                v = toks[3][5:]
                if v != "x":
                    init = _parse_int(v, ln, path, "init")
                    if init >= (1 << w):
                        raise WidthOverflow(f"init {v} does not fit {w} bits", ln, 1, path)
            reg_decl[n] = (w, init, ln)
        elif key == ".gate":
            _need(toks, 2, ".gate takes KIND OUT INPUTS", ln, path)
            kind = toks[1]
            if kind not in GATE_ARITY:
                raise ParseError(f"unknown gate kind {kind}", ln, 1, path)
            refs = [bitref(t, ln) for t in toks[2:]]
            if len(refs) != GATE_ARITY[kind] + 1:
                raise ParseError(
                    f"{kind} takes OUT and {GATE_ARITY[kind]} inputs", ln, 1, path)
            nodes.append(Node(kind, refs[0], tuple(refs[1:])))
        elif key == ".const":
            if len(toks) != 3:
                raise ParseError(".const takes OUT BITS", ln, 1, path)
            bits = toks[2]
            if not re.fullmatch(r"[01]+", bits):
                raise ParseError(f"const bits must be binary, got {bits!r}", ln, 1, path)
            m = _BITREF_RE.match(toks[1])
            if not m:
                raise ParseError(f"bad net reference {toks[1]!r}", ln, 1, path)
            base, idx = m.group(1), m.group(2)
            if base not in widths:
                raise UnknownSignal(f"undeclared signal {base}", ln, 1, path)
            if idx is not None:
                if len(bits) != 1:
                    raise WidthMismatch(f"{path or '<input>'}:{ln}: single bit target needs 1 const bit")
                nodes.append(Node("CONST", bitref(toks[1], ln), value=int(bits)))
            else:
                w = widths[base]
                if len(bits) != w:
                    raise WidthMismatch(
                        f"{path or '<input>'}:{ln}: const width {len(bits)} != {base} width {w}")
                for i, b in enumerate(reversed(bits)):  # MSB first on disk
                    nets = bit_nets(base, w)
                    nodes.append(Node("CONST", nets[i], value=int(b)))
        elif key == ".dff":
            if len(toks) < 3:
                raise ParseError(".dff takes REG D [en=net] [rst=net rstval=V]", ln, 1, path)
            rn = toks[1]
            if rn not in reg_decl:
                raise UnknownSignal(f".dff target {rn} is not a .reg", ln, 1, path)
            if rn in dffs:
                raise ParseError(f"second .dff for {rn}", ln, 1, path)
            d = toks[2]
            opts = _options(toks[3:], ("en", "rst", "rstval"), ".dff", ln, path)
            if opts["rstval"] is not None and opts["rst"] is None:
                raise ParseError(".dff rstval needs rst=net", ln, 1, path)
            w = reg_decl[rn][0]
            if d not in widths or widths[d] != w:
                raise WidthMismatch(
                    f"{path or '<input>'}:{ln}: .dff {rn} data {d} must be {w} bits")
            en = bitref(opts["en"], ln) if opts["en"] else None
            rst = bitref(opts["rst"], ln) if opts["rst"] else None
            rstval = None if rst is None else 0
            if opts["rstval"] is not None:
                rstval = _parse_int(opts["rstval"], ln, path, "rstval")
                if rstval >= (1 << w):
                    raise WidthOverflow(f"rstval does not fit {w} bits", ln, 1, path)
            dffs[rn] = {"d": d, "en": en, "rst": rst, "rstval": rstval, "line": ln}
        elif key == ".endmodule":
            ended = True
        else:
            raise ParseError(f"unknown directive {key}", ln, 1, path)

    if name is None:
        raise ParseError("no .module in file", 1, 1, path)
    if not ended:
        raise ParseError("missing .endmodule", 1, 1, path)

    registers = []
    for rn, (w, init, ln) in reg_decl.items():
        bits = bit_nets(rn, w)
        spec = dffs.get(rn)
        if spec is None:
            # no .dff: the register holds its value every cycle
            for i, b in enumerate(bits):
                ib = None if init is None else (init >> i) & 1
                nodes.append(Node("DFF", b, (b,), init=ib))
        else:
            dbits = bit_nets(spec["d"], w)
            for i, b in enumerate(bits):
                ib = None if init is None else (init >> i) & 1
                rv = None if spec["rstval"] is None else (spec["rstval"] >> i) & 1
                nodes.append(Node("DFF", b, (dbits[i],), init=ib,
                                  en=spec["en"], rst=spec["rst"], rstval=rv))
        registers.append(RegisterDecl(rn, w, bits, init))
    return IpNetlist(name, ports, wires, registers, nodes)


# ---------------------------------------------------------------------------
# design


def _dotted(tok: str, ln: int, path) -> tuple[str, str]:
    if tok.count(".") != 1:
        raise ParseError(f"expected INST.NAME, got {tok!r}", ln, 1, path)
    a, b = tok.split(".")
    return a, b


def parse_design(text: str, path: str | None = None) -> Design:
    name = None
    instances: list[tuple[str, str]] = []
    inst_names: set[str] = set()
    connects = []
    tops = []
    bus = BusSpec()
    for ln, toks in _lines(text):
        key = toks[0]
        if key == ".design":
            if name is not None:
                raise ParseError("second .design", ln, 1, path)
            _need(toks, 2, ".design takes NAME", ln, path)
            name = _check_name(toks[1], ln, path)
        elif name is None:
            raise ParseError("directive before .design", ln, 1, path)
        elif key == ".instance":
            if len(toks) != 3:
                raise ParseError(".instance takes MODULE INST", ln, 1, path)
            mod = _check_name(toks[1], ln, path)
            inst = _check_name(toks[2], ln, path)
            if inst in inst_names:
                raise ParseError(f"duplicate instance {inst}", ln, 1, path)
            inst_names.add(inst)
            instances.append((inst, mod))
        elif key == ".connect":
            if len(toks) != 3:
                raise ParseError(".connect takes A.PORT B.PORT", ln, 1, path)
            ia, pa = _dotted(toks[1], ln, path)
            ib, pb = _dotted(toks[2], ln, path)
            for i in (ia, ib):
                if i not in inst_names:
                    raise UnknownSignal(f"unknown instance {i}", ln, 1, path)
            connects.append((ia, pa, ib, pb))
        elif key == ".top":
            if len(toks) != 3:
                raise ParseError(".top takes PORT INST.PORT", ln, 1, path)
            tp = _check_name(toks[1], ln, path)
            inst, port = _dotted(toks[2], ln, path)
            if inst not in inst_names:
                raise UnknownSignal(f"unknown instance {inst}", ln, 1, path)
            tops.append((tp, inst, port))
        elif key == ".bus":
            _need(toks, 2, ".bus takes reset or range", ln, path)
            sub = toks[1]
            if sub == "reset":
                if len(toks) != 3:
                    raise ParseError(".bus reset takes NET", ln, 1, path)
                bus.reset = toks[2]
            elif sub == "range":
                _need(toks, 4, ".bus range takes BASE SIZE addr= wdata= we=",
                      ln, path)
                base = _parse_int(toks[2], ln, path, "base address")
                size = _parse_int(toks[3], ln, path, "size")
                kv = _options(toks[4:], ("addr", "wdata", "we"), ".bus range",
                              ln, path)
                missing = [k for k, v in kv.items() if v is None]
                if missing:
                    raise ParseError(f".bus range missing {missing}", ln, 1, path)
                bus.ranges.append(BusRange(base, size, kv["addr"], kv["wdata"], kv["we"]))
            else:
                raise ParseError(f"unknown .bus directive {sub}", ln, 1, path)
        else:
            raise ParseError(f"unknown directive {key}", ln, 1, path)
    if name is None:
        raise ParseError("no .design in file", 1, 1, path)
    return Design(name, instances, connects, tops, bus)


# ---------------------------------------------------------------------------
# register map


@dataclass(frozen=True)
class RegisterMap:
    entries: tuple[tuple[int, str], ...]

    def registers(self) -> list[str]:
        return [r for _, r in self.entries]

    def register_at(self, addr: int) -> str | None:
        for a, r in self.entries:
            if a == addr:
                return r
        return None


def parse_regmap(text: str, path: str | None = None,
                 design: Design | None = None,
                 library: dict[str, IpNetlist] | None = None) -> RegisterMap:
    """One `ADDR INST.REG` line per register: each address fits the bus,
    and no address or register is listed twice.  Given `design`, each
    instance is declared and each address lies in some `.bus range`;
    given `library` too, the instance's module has the register."""
    entries: dict[int, str] = {}
    insts = dict(design.instances) if design is not None else {}
    ips = instance_ips(design, library) if library is not None else {}
    for ln, toks in _lines(text):
        if len(toks) != 2:
            raise ParseError("regmap line is HEXADDR INST.REG", ln, 1, path)
        addr = _parse_int(toks[0], ln, path, "address")
        if addr >= (1 << BUS_WIDTH):
            raise WidthOverflow(f"address 0x{addr:x} exceeds {BUS_WIDTH} bits", ln, 1, path)
        if addr in entries:
            raise DuplicateAddress(f"address 0x{addr:x} listed twice", ln, 1, path)
        inst, reg = _dotted(toks[1], ln, path)
        target = f"{inst}.{reg}"
        if target in entries.values():
            raise DuplicateAddress(f"register {target} mapped twice", ln, 1, path)
        if design is not None:
            if inst not in insts:
                raise UnknownSignal(f"unknown instance {inst}", ln, 1, path)
            if design.bus.range_for(addr) is None:
                raise ParseError(f"address 0x{addr:x} is outside every .bus range",
                                 ln, 1, path)
            if library is not None and all(
                    r.name != reg for r in ips[inst].registers):
                raise UnknownSignal(f"module {insts[inst]} has no register {reg}",
                                    ln, 1, path)
        entries[addr] = target
    return RegisterMap(tuple(entries.items()))


# ---------------------------------------------------------------------------
# ESW script


@dataclass(frozen=True)
class EswScript:
    statements: tuple[tuple, ...]  # ("reset", n) | ("write", a, v) | ("read", a) | ("wait", n)

    def accesses(self) -> list[tuple[int, str, int]]:
        """(statement index, kind, address) for every bus transaction."""
        out = []
        for i, st in enumerate(self.statements):
            if st[0] in ("write", "read"):
                out.append((i, st[0], st[1]))
        return out


def parse_esw(text: str, path: str | None = None) -> EswScript:
    stmts: list[tuple] = []
    for ln, toks in _lines(text):
        op = toks[0]
        if op in ("reset", "wait"):
            if len(toks) != 2:
                raise ParseError(f"{op} takes a cycle count", ln, 1, path)
            n = _parse_int(toks[1], ln, path, "cycle count")
            if n < 1:
                raise ParseError(f"{op} count must be >= 1", ln, 1, path)
            stmts.append((op, n))
        elif op == "write":
            if len(toks) != 3:
                raise ParseError("write takes ADDR VALUE", ln, 1, path)
            a = _parse_int(toks[1], ln, path, "address")
            v = _parse_int(toks[2], ln, path, "value")
            for x, what in ((a, "address"), (v, "value")):
                if x >= (1 << BUS_WIDTH):
                    raise WidthOverflow(f"{what} 0x{x:x} exceeds {BUS_WIDTH} bits", ln, 1, path)
            stmts.append(("write", a, v))
        elif op == "read":
            if len(toks) != 2:
                raise ParseError("read takes ADDR", ln, 1, path)
            a = _parse_int(toks[1], ln, path, "address")
            if a >= (1 << BUS_WIDTH):
                raise WidthOverflow(f"address 0x{a:x} exceeds {BUS_WIDTH} bits", ln, 1, path)
            stmts.append(("read", a))
        else:
            raise ParseError(f"unknown statement {op}", ln, 1, path)
    if not stmts:
        raise ParseError("empty script", 1, 1, path)
    if stmts[0][0] != "reset":
        raise ParseError("script must start with reset", 1, 1, path)
    return EswScript(tuple(stmts))


# ---------------------------------------------------------------------------
# properties


@dataclass(frozen=True)
class PropertyAst:
    """A safety invariant: `expr` must not read 0 in any cycle from
    `settle` on.

    A known-after-reset obligation (`gen_xprop`, or an `xprop` line) is
    the expression `("known", ("sig", "INST.REG", None))`, which reads 1
    when every bit of the register is known and 0 otherwise; a `prop`
    line cannot write `known`, and its `settle` is 0.
    """

    name: str
    expr: tuple
    scope: frozenset[str]
    settle: int = 0


_EXPR_TOKEN = re.compile(
    r"\s*(->|==|!=|[&|~()]|0x[0-9a-fA-F]+|0b[01]+|\d+|[A-Za-z_][A-Za-z_0-9]*"
    r"(?:\.[A-Za-z_][A-Za-z_0-9]*)?(?:\[\d+\])?)")


def _tokenize_expr(text: str, ln: int, path):
    pos, toks = 0, []
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            raise ParseError(f"bad token at {rest[:10]!r}", ln, pos + 1, path)
        toks.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return toks


class _ExprParser:
    def __init__(self, toks, ln, path):
        self.toks = toks
        self.i = 0
        self.ln = ln
        self.path = path

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        col = self.toks[self.i][1] if self.i < len(self.toks) else 1
        raise ParseError(msg, self.ln, col, self.path)

    def parse(self):
        e = self.imp()
        if self.i != len(self.toks):
            self.fail(f"trailing tokens from {self.peek()!r}")
        return e

    def imp(self):
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.imp())
        return left

    def disj(self):
        e = self.conj()
        while self.peek() == "|":
            self.take()
            e = ("or", e, self.conj())
        return e

    def conj(self):
        e = self.cmp()
        while self.peek() == "&":
            self.take()
            e = ("and", e, self.cmp())
        return e

    def cmp(self):
        left = self.unary()
        if self.peek() in ("==", "!="):
            op, _ = self.take()
            right = self.unary()
            return ("eq" if op == "==" else "ne", left, right)
        return left

    def unary(self):
        if self.peek() == "~":
            self.take()
            return ("not", self.unary())
        return self.atom()

    def atom(self):
        if self.peek() is None:
            self.fail("unexpected end of expression")
        tok, col = self.take()
        if tok == "(":
            e = self.imp()
            if self.peek() != ")":
                self.fail("expected )")
            self.take()
            return e
        if re.fullmatch(r"0x[0-9a-fA-F]+|0b[01]+|\d+", tok):
            return ("int", int(tok, 0))
        m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)"
                         r"(?:\[(\d+)\])?", tok)
        if not m:
            raise ParseError(f"bad operand {tok!r}", self.ln, col, self.path)
        return ("sig", m.group(1), int(m.group(2)) if m.group(2) else None)


def expr_scope(expr: tuple) -> frozenset[str]:
    out: set[str] = set()

    def walk(e):
        if e[0] == "sig" and "." in e[1]:
            out.add(e[1].split(".", 1)[0])
        elif e[0] in ("not", "known"):
            walk(e[1])
        elif e[0] in ("and", "or", "imp", "eq", "ne"):
            walk(e[1])
            walk(e[2])

    walk(expr)
    return frozenset(out)


def _signal_width(ref: str, idx, design: Design,
                  ips: dict[str, IpNetlist], ln, path) -> int:
    if "." in ref:
        inst, sig = ref.split(".", 1)
        if inst not in ips:
            raise UnknownSignal(f"unknown instance {inst}", ln, 1, path)
        if sig not in ips[inst].signal_widths:
            raise UnknownSignal(f"module {design.module_of(inst)} has no "
                                f"signal {sig}", ln, 1, path)
        w = ips[inst].signal_widths[sig]
    else:
        widths = {ips[inst].port(port).width
                  for tp, inst, port in design.tops if tp == ref}
        if not widths:
            raise UnknownSignal(f"unknown top-level port {ref}", ln, 1, path)
        w = widths.pop()
    if idx is not None:
        if idx >= w:
            raise WidthOverflow(f"bit {idx} out of range for {ref}[{w}]", ln, 1, path)
        return 1
    return w


def _check_expr(expr: tuple, design, ips, ln, path, boolean=True) -> int:
    """Validate signal references and widths against `design` and its
    `instance_ips`; returns the expression width."""
    kind = expr[0]
    if kind == "int":
        v = expr[1]
        if boolean and v > 1:
            raise WidthMismatch(f"{path or '<prop>'}:{ln}: literal {v} used as a boolean")
        return max(v.bit_length(), 1)
    if kind == "sig":
        w = 1
        if design is not None:
            w = _signal_width(expr[1], expr[2], design, ips, ln, path)
        if boolean and design is not None and w != 1:
            raise WidthMismatch(
                f"{path or '<prop>'}:{ln}: {expr[1]} is {w} bits wide; compare it with == or !=")
        return w
    if kind == "not":
        _check_expr(expr[1], design, ips, ln, path, boolean=True)
        return 1
    if kind in ("and", "or", "imp"):
        _check_expr(expr[1], design, ips, ln, path, boolean=True)
        _check_expr(expr[2], design, ips, ln, path, boolean=True)
        return 1
    if kind in ("eq", "ne"):
        a, b = expr[1], expr[2]
        if a[0] == "int" and b[0] == "int":
            raise ParseError("comparison of two literals", ln, 1, path)
        wa = _check_expr(a, design, ips, ln, path, boolean=False)
        wb = _check_expr(b, design, ips, ln, path, boolean=False)
        if design is not None:
            if a[0] == "sig" and b[0] == "sig" and wa != wb:
                raise WidthMismatch(
                    f"{path or '<prop>'}:{ln}: comparing {wa}-bit and {wb}-bit signals")
            for e, wsig in ((a, wb), (b, wa)):
                if e[0] == "int" and e[1] >= (1 << wsig):
                    raise WidthOverflow(
                        f"literal {e[1]} does not fit {wsig} bits", ln, 1, path)
        return 1
    raise AssertionError(kind)


def parse_props(text: str, path: str | None = None,
                design: Design | None = None,
                library: dict[str, IpNetlist] | None = None) -> list[PropertyAst]:
    props: list[PropertyAst] = []
    names: set[str] = set()
    ips = instance_ips(design, library) if design is not None else None
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        m = re.match(r"prop\s+([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(.+)$", body)
        x = re.match(r"xprop\s+([A-Za-z_]\w*)\s*:\s*known\((\w+)\.(\w+)\)"
                     r"\s+after\s+(\d+)$", body)
        if not (m or x):
            raise ParseError("property line is: prop NAME : EXPR, or "
                             "xprop NAME : known(REG) after N", ln, 1, path)
        name = (m or x).group(1)
        if name in names:
            raise ParseError(f"duplicate property name {name}", ln, 1, path)
        names.add(name)
        if x:  # a generated obligation, as `serialize_props` writes it
            inst, reg = x.group(2), x.group(3)
            if design and (inst not in ips or reg not in
                           {r.name for r in ips[inst].registers}):
                raise UnknownSignal(f"no register {inst}.{reg}", ln, 1, path)
            props.append(_known_after(name, f"{inst}.{reg}", int(x.group(4))))
            continue
        toks = _tokenize_expr(m.group(2), ln, path)
        expr = _ExprParser(toks, ln, path).parse()
        _check_expr(expr, design, ips, ln, path, boolean=True)
        props.append(PropertyAst(name, expr, expr_scope(expr)))
    return props


def _known_after(name: str, register: str, settle: int) -> PropertyAst:
    """The obligation that `register` is known from cycle `settle` on."""
    expr = ("known", ("sig", register, None))
    return PropertyAst(name, expr, expr_scope(expr), settle)


def render_expr(expr: tuple) -> str:
    kind = expr[0]
    if kind == "sig":
        return expr[1] if expr[2] is None else f"{expr[1]}[{expr[2]}]"
    if kind == "int":
        return f"0x{expr[1]:x}" if expr[1] > 9 else str(expr[1])
    if kind == "not":
        return f"~{render_expr(expr[1])}"
    if kind == "known":
        return f"known({render_expr(expr[1])})"
    op = {"and": "&", "or": "|", "imp": "->", "eq": "==", "ne": "!="}[kind]
    return f"({render_expr(expr[1])} {op} {render_expr(expr[2])})"


def serialize_props(props: list[PropertyAst]) -> str:
    out = []
    for p in props:
        if p.expr[0] == "known":
            out.append(f"xprop {p.name} : {render_expr(p.expr)} after {p.settle}")
        else:
            out.append(f"prop {p.name} : {render_expr(p.expr)}")
    return "\n".join(out) + "\n"


def gen_xprop(design: Design, library: dict[str, IpNetlist],
              settle: int = 4) -> list[PropertyAst]:
    """One known-after-settle obligation per register of every instance."""
    if settle < 0:
        raise ValueError(f"settle must be >= 0, got {settle}")
    return [_known_after(f"xprop_{inst}_{r.name}", f"{inst}.{r.name}", settle)
            for inst, ip in instance_ips(design, library).items()
            for r in ip.registers]


def divide_props(props: list[PropertyAst], design: Design,
                 library: dict[str, IpNetlist]) -> dict[str, list[PropertyAst]]:
    """Assign each property to the smallest architecture covering its scope."""
    ranking = rank_ips_by_connection(design, library)
    groups: dict[str, list[PropertyAst]] = {m: [] for m in list_unique_ips(design)}
    for k in range(1, len(ranking)):
        groups[f"subsystem-{k}"] = []
    for p in props:
        if not p.scope:
            raise UnresolvableScope(f"property {p.name} references no instance")
        if len(p.scope) == 1:
            inst = next(iter(p.scope))
            groups[design.module_of(inst)].append(p)
            continue
        placed = False
        for k in range(1, len(ranking)):
            if p.scope <= set(ranking[: k + 1]):
                groups[f"subsystem-{k}"].append(p)
                placed = True
                break
        if not placed:
            raise UnresolvableScope(
                f"property {p.name} scope {sorted(p.scope)} exceeds the design")
    return groups
