"""Register influence ranking and iteration bookkeeping."""

import dataclasses
import json
from pathlib import Path

import pytest

from semiform import errors
from semiform.netlist import elaborate
from semiform.sra import combine_regs, cor, do_sra

from conftest import flow_keep_sets

SRA_SCORES = Path(__file__).parent / "expected" / "sra_scores.json"


def test_example_scores(fig_example):
    model, _, _ = fig_example
    s1 = cor(model, "m0.reg1")
    s2 = cor(model, "m0.reg2")
    assert (s1.paths, s1.elements, s1.score) == (1, 9, 109)
    assert (s2.paths, s2.elements, s2.score) == (3, 13, 313)


def test_example_order(fig_example):
    model, _, _ = fig_example
    ranked = do_sra(model, ["m0.reg1", "m0.reg2"])
    assert ranked.order == ("m0.reg2", "m0.reg1")
    assert ranked.order[:1] == ("m0.reg2",)
    assert [s.score for s in ranked.scores] == [313, 109]


def test_tie_breaks_by_name(counter):
    model, _, _ = counter
    ranked = do_sra(model, ["m0.CNT"])
    assert ranked.order == ("m0.CNT",)
    # a register compared against itself scores identically: name order
    again = do_sra(model, ["m0.CNT", "m0.CNT"])
    assert again.order == ("m0.CNT", "m0.CNT")


def test_unknown_register_rejected(counter):
    model, _, _ = counter
    with pytest.raises(errors.UnknownRegister):
        do_sra(model, ["m0.CNT", "m0.ZZZ"])


def test_combine_walks_down_the_ranking(fig_example):
    model, _, _ = fig_example
    ranked = do_sra(model, ["m0.reg1", "m0.reg2"])
    first = combine_regs(ranked)
    assert first == "m0.reg2"
    second = combine_regs(ranked, [first])
    assert second == "m0.reg1"
    with pytest.raises(errors.ExhaustedRegisters):
        combine_regs(ranked, [first, second])


def test_corpus_can_ranking(gateway):
    design, lib, regmap, _, _ = gateway
    from semiform.netlist import elaborate
    model = elaborate(design, lib, keep={"can0"})
    mapped = [r for r in regmap.registers() if r.startswith("can0.")]
    ranked = do_sra(model, mapped)
    assert ranked.order[0] == "can0.MODE"


def corpus_sra_scores(design, library, regmap) -> list[dict]:
    """`do_sra`'s scores on each model the flow ranks over the corpus,
    with every mapped register of its instances."""
    out = []
    for keep in flow_keep_sets(design, library):
        model = elaborate(design, library, keep=keep)
        pfx = tuple(i + "." for i in keep)
        mapped = sorted(r for r in regmap.registers() if r.startswith(pfx))
        out.append({"instances": sorted(keep),
                    "scores": [dataclasses.asdict(s)
                               for s in do_sra(model, mapped).scores]})
    return out


def test_corpus_sra_scores_are_pinned(gateway):
    # every register, path and element count and score the flow ranks
    # the corpus by, in ranking order
    design, lib, regmap, _, _ = gateway
    assert corpus_sra_scores(design, lib, regmap) == \
        json.loads(SRA_SCORES.read_text())
