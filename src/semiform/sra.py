"""Register ranking by structural fan-out influence.

Scores each software-visible register by how much downstream logic its
value can steer: a weighted sum of the distinct combinational paths
leaving the register and the logic elements inside its fan-out cone.
Path weight dominates element weight (`W_PATHS`:`W_ELEMENTS`, 100:1) so
a register feeding many separate control decisions outranks one feeding
a single wide datapath blob.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExhaustedRegisters, UnknownRegister
from .netlist import FanoutCone, FlatModel, fanout_cone

W_PATHS = 100  # score per distinct path out of the register
W_ELEMENTS = 1  # score per logic element in its fan-out cone


@dataclass(frozen=True)
class CorScore:
    register: str
    paths: int
    elements: int
    score: int


@dataclass(frozen=True)
class RankedRegisters:
    """Registers in descending influence order; scores alongside."""

    order: tuple[str, ...]
    scores: tuple[CorScore, ...]


def cor(model: FlatModel, register: str) -> CorScore:
    """Cone-of-influence score for one register of the flat model."""
    cone: FanoutCone = fanout_cone(model, register)
    score = W_PATHS * cone.paths + W_ELEMENTS * len(cone.elements)
    return CorScore(register, cone.paths, len(cone.elements), score)


def do_sra(model: FlatModel,
           mapped: tuple[str, ...] | list[str]) -> RankedRegisters:
    """Rank the mapped (software-writable) registers of `model`.

    Highest score first; ties broken by register name so the order is
    reproducible.  Every name in `mapped` must be a register of the
    model (UnknownRegister otherwise).
    """
    known = set(model.registers)
    scores = []
    for name in mapped:
        if name not in known:
            raise UnknownRegister(f"not a register of this model: {name}")
        scores.append(cor(model, name))
    scores.sort(key=lambda s: (-s.score, s.register))
    return RankedRegisters(tuple(s.register for s in scores), tuple(scores))


def combine_regs(ranked: RankedRegisters,
                 already: tuple[str, ...] | list[str] = ()) -> str:
    """The highest-ranked register not in `already`: each iteration of
    the refinement loop pins one more.

    Raises ExhaustedRegisters when the ranking has nothing left to give,
    which is the caller's signal to stop iterating on this block.
    """
    for r in ranked.order:
        if r not in already:
            return r
    raise ExhaustedRegisters(
        f"all {len(ranked.order)} ranked registers already constrained")
