"""Command line entry point.

Subcommands:
  run        full five-phase flow over a design
  phase      same inputs, restricted phase set (e.g. "2,4" = formal only)
  sra-rank   influence ranking of one IP's mapped registers
  bmc        standalone bounded check of a single IP
  sim        execute a register script against the design
  gen-xprop  emit one known-value obligation per register

Exit codes:
  0  success: bmc PASS, a complete flow, or a command that gives no verdict
  1  bmc FAIL
  2  bmc INCOMPLETE, or a flow that is not complete or fails semiformally
  3  input error: a bad command line or an input that cannot be read or used
  4  internal error: any other exception, with its traceback on stderr
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import bmc as bmc_mod
from . import flow, sim, sra
from .errors import MissingStopat, SemiformError
from .frontend import (RegisterMap, gen_xprop, parse_design, parse_esw,
                       parse_netlist, parse_props, parse_regmap,
                       serialize_props)
from .netlist import Design, IpNetlist, elaborate

EXIT_INPUT = 3
EXIT_INTERNAL = 4
DUMP_ICNF_HELP = ("write each solver's calls, its clauses and one 'a' line "
                  "of assumptions per solve, as iCNF to DIR/")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _load_library(netlist_dir: str) -> dict[str, IpNetlist]:
    """Each `.net` file's module, by name; two files that declare one
    module raise, so no file order picks which one a design uses."""
    lib: dict[str, IpNetlist] = {}
    paths: dict[str, str] = {}
    if not os.path.isdir(netlist_dir):
        raise SemiformError(f"netlist directory {netlist_dir} not found")
    for name in sorted(os.listdir(netlist_dir)):
        if name.endswith(".net"):
            path = os.path.join(netlist_dir, name)
            ip = parse_netlist(_read(path), path=path)
            if ip.name in lib:
                raise SemiformError(f"module {ip.name} is declared in both "
                                    f"{paths[ip.name]} and {path}")
            lib[ip.name], paths[ip.name] = ip, path
    if not lib:
        raise SemiformError(f"no .net files in {netlist_dir}")
    return lib


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _design(args) -> tuple[Design, dict[str, IpNetlist]]:
    netlist_dir = args.netlist_dir or os.path.dirname(
        os.path.abspath(args.design))
    library = _load_library(netlist_dir)
    design = parse_design(_read(args.design), path=args.design)
    return design, library


def _design_inputs(args):
    """The design, its library and its register map.

    The map is `--regmap`, else `<design>.map`; only that default may be
    absent, which reads as an empty map.
    """
    design, library = _design(args)
    path = args.regmap
    if path is None:
        path = os.path.splitext(args.design)[0] + ".map"
        if not os.path.exists(path):
            return design, library, RegisterMap(())
    return design, library, parse_regmap(_read(path), path, design, library)


def _flow_config(args, phases=None) -> flow.FlowConfig:
    return flow.FlowConfig(
        ip_time_limit=args.ip_limit,
        subsystem_time_limit=args.sub_limit,
        blackbox_failing_ips=args.blackbox_failing,
        bound=args.bound,
        phases=tuple(phases) if phases else (1, 2, 3, 4, 5),
        dump_icnf=args.dump_icnf,
        dump_trace=args.dump_trace,
    )


def _add_flow_args(p: argparse.ArgumentParser):
    p.add_argument("--design", required=True)
    p.add_argument("--netlist-dir")
    p.add_argument("--regmap")
    p.add_argument("--esw", required=True)
    p.add_argument("--props", required=True)
    p.add_argument("--ip-limit", type=float, default=3600.0)
    p.add_argument("--sub-limit", type=float, default=5400.0)
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--blackbox-failing", default=True,
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--dump-icnf", metavar="DIR", help=DUMP_ICNF_HELP +
                   "NNN/group<g>.icnf, NNN numbering the checks")
    p.add_argument("--dump-trace")


def _run_flow(args, phases=None) -> int:
    design, library, regmap = _design_inputs(args)
    script = parse_esw(_read(args.esw), path=args.esw)
    props = parse_props(_read(args.props), args.props, design, library)
    config = _flow_config(args, phases)
    report = flow.run_flow(design, library, regmap, script, props, config)
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return flow.exit_code(report)


def _cmd_phase(args) -> int:
    try:
        phases = sorted({int(t) for t in args.phases.split(",") if t})
    except ValueError:
        raise SemiformError(f"bad phase list {args.phases!r}")
    if not phases:
        raise SemiformError("empty phase list")
    return _run_flow(args, phases=phases)


def _solo_design(module: str, instance: str) -> Design:
    text = f".design solo_{instance}\n.instance {module} {instance}\n"
    return parse_design(text, path="<solo>")


def _cmd_sra_rank(args) -> int:
    ip = parse_netlist(_read(args.ip), path=args.ip)
    regmap = parse_regmap(_read(args.regmap), args.regmap)
    regnames = {r.name for r in ip.registers}
    by_inst: dict[str, list[str]] = {}
    for full in regmap.registers():
        inst, _, reg = full.partition(".")
        if reg in regnames:
            by_inst.setdefault(inst, []).append(full)
    if not by_inst:
        raise SemiformError(
            f"regmap has no registers matching module {ip.name}")
    # the instance with the most matching entries is the one meant
    inst = sorted(by_inst, key=lambda i: (-len(by_inst[i]), i))[0]
    model = elaborate(_solo_design(ip.name, inst), {ip.name: ip})
    ranked = sra.do_sra(model, by_inst[inst])
    print(f"{'register':<28} {'paths':>7} {'elements':>9} {'score':>9}")
    for s in ranked.scores:
        print(f"{s.register:<28} {s.paths:>7} {s.elements:>9} {s.score:>9}")
    return 0


def _cmd_bmc(args) -> int:
    ip = parse_netlist(_read(args.ip), path=args.ip)
    instance = args.instance or f"{ip.name}0"
    design = _solo_design(ip.name, instance)
    library = {ip.name: ip}
    props = []
    if args.props:
        props += parse_props(_read(args.props), args.props, design, library)
    if args.xprop:
        props += gen_xprop(design, library, settle=args.settle)
    if not props:
        raise SemiformError("nothing to check: give --props and/or --xprop")
    model = elaborate(design, library)
    cuts = dict.fromkeys(args.stopat)
    for item in args.assume:
        reg, _, val = item.partition("=")
        if not val:
            raise SemiformError(f"bad --assume {item!r}, want REG=VALUE")
        if reg not in cuts:
            raise MissingStopat(f"assume on {reg} without a stopat")
        cuts[reg] = int(val, 0)
    run = bmc_mod.check(model, props, cuts, k=args.bound, budget=args.budget,
                        dump_icnf=args.dump_icnf)
    for name in sorted(run.outcomes):
        o = run.outcomes[name]
        extra = ""
        if o.status == "FAIL":
            extra = f" at frame {o.frame}"
        elif o.status == "UNDETERMINED":
            extra = f" ({o.reason}, bound reached {o.bound})"
        print(f"{o.status:<12} {name}{extra}")
        if o.status == "FAIL" and args.dump_trace:
            path = f"{args.dump_trace}.{name}.trace"
            with open(path, "w") as fh:
                fh.write(bmc_mod.format_trace(o.trace))
    print(f"result: {run.status} (k={run.k}, {run.n_vars} vars, "
          f"{run.n_clauses} clauses, {run.n_conflicts} conflicts)")
    if run.status == "FAIL":
        return 1
    return 0 if run.status == "PASS" else 2


def _cmd_sim(args) -> int:
    design, library, regmap = _design_inputs(args)
    script = parse_esw(_read(args.esw), path=args.esw)
    model = elaborate(design, library)
    s = sim.Simulator(model, design, script, trace_path=args.trace)
    try:
        while s.script_pc < len(script.statements):
            s.run_statement()
    finally:
        s.close()
    for w in s.warnings:
        print(f"warning: {w.kind}: {w.message}")
    print(f"ran {s.cycle} cycles")
    for reg in args.watch or regmap.registers():
        v = s.register_value(reg)
        print(f"{reg} = {'x' if v is None else hex(v)}")
    return 0


def _cmd_gen_xprop(args) -> int:
    design, library = _design(args)
    props = gen_xprop(design, library, settle=args.settle)
    text = serialize_props(props)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="semiform",
                 description="semiformal hardware property checker")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full verification flow")
    _add_flow_args(p)
    p.set_defaults(fn=_run_flow)

    p = sub.add_parser("phase", help="run a subset of flow phases")
    p.add_argument("phases", help="comma list, e.g. 2,4")
    _add_flow_args(p)
    p.set_defaults(fn=_cmd_phase)

    p = sub.add_parser("sra-rank", help="rank one IP's mapped registers")
    p.add_argument("--ip", required=True)
    p.add_argument("--regmap", required=True)
    p.set_defaults(fn=_cmd_sra_rank)

    p = sub.add_parser("bmc", help="bounded check of a single IP")
    p.add_argument("--ip", required=True)
    p.add_argument("--instance")
    p.add_argument("--props")
    p.add_argument("--xprop", action="store_true")
    p.add_argument("--settle", type=int, default=4)
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--budget", type=float)
    p.add_argument("--stopat", action="append", default=[])
    p.add_argument("--assume", action="append", default=[],
                   metavar="REG=VALUE")
    p.add_argument("--dump-icnf", metavar="DIR",
                   help=DUMP_ICNF_HELP + "group<g>.icnf")
    p.add_argument("--dump-trace")
    p.set_defaults(fn=_cmd_bmc)

    p = sub.add_parser("sim", help="run a register script")
    p.add_argument("--design", required=True)
    p.add_argument("--netlist-dir")
    p.add_argument("--regmap")
    p.add_argument("--esw", required=True)
    p.add_argument("--trace")
    p.add_argument("--watch", action="append")
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("gen-xprop", help="emit per-register obligations")
    p.add_argument("--design", required=True)
    p.add_argument("--netlist-dir")
    p.add_argument("--settle", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_xprop)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.fn(args)
    except (SemiformError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        sys.stderr.write("internal error\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
