"""Semiformal hardware verification: netlists, simulation, bounded
checking, register-influence ranking, and the five-phase flow."""

from .errors import (ParseError, SemiformError, UnknownRegister,
                     ExhaustedRegisters)
from .netlist import (Design, FlatModel, IpNetlist, connection_scores,
                      elaborate, fanout_cone, list_unique_ips,
                      rank_ips_by_connection)
from .frontend import (divide_props, gen_xprop, parse_design, parse_esw,
                       parse_netlist, parse_props, parse_regmap,
                       serialize_props)
from .sim import Simulator, collect_sim_values, run_until_poi, set_pois
from .sra import combine_regs, cor, do_sra
from .bmc import check, format_trace, replay_counterexample
from .flow import Flow, FlowConfig, VerifReport, exit_code, run_flow

__version__ = "0.1.0"

__all__ = [
    "Design", "ExhaustedRegisters", "FlatModel", "Flow", "FlowConfig",
    "IpNetlist", "ParseError", "SemiformError", "Simulator",
    "UnknownRegister", "VerifReport", "check", "collect_sim_values",
    "combine_regs", "connection_scores", "cor", "divide_props", "do_sra",
    "elaborate", "exit_code", "fanout_cone", "format_trace", "gen_xprop",
    "list_unique_ips", "parse_design", "parse_esw", "parse_netlist",
    "parse_props", "parse_regmap", "rank_ips_by_connection",
    "replay_counterexample", "run_flow", "run_until_poi", "serialize_props",
    "set_pois", "__version__",
]
