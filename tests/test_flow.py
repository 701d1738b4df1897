"""Five-phase flow: statuses, charged time, iteration counts, reports."""

import json

import pytest

from semiform.flow import (FlowConfig, exit_code, run_flow,
                           STATUS_FORMAL_COMPLETE, STATUS_INCOMPLETE,
                           STATUS_SEMIFORMAL_COMPLETE, STATUS_SEMIFORMAL_FAIL)
from semiform.frontend import RegisterMap

from conftest import props_for


def _fast(**kw):
    base = dict(ip_time_limit=0.6, subsystem_time_limit=0.6, bound=20)
    base.update(kw)
    return FlowConfig(**base)


def test_mini_design_proves_formally(mini_parsed):
    design, lib, regmap, script, props = mini_parsed
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.status == STATUS_FORMAL_COMPLETE
    assert exit_code(report) == 0
    assert [r.name for r in report.rows] == ["alpha", "beta", "subsystem-1"]
    assert all(r.result == "Finished" for r in report.rows)
    assert all(r.engine == "formal" for r in report.rows)
    assert all(r.elapsed == 0.0 for r in report.rows)
    statuses = {}
    for r in report.rows:
        statuses.update(r.properties)
    assert statuses == {"alpha_quiet": "PASS", "beta_quiet": "PASS",
                        "cross_ok": "PASS"}
    res, und, vac, tot = report.totals
    assert (res, und, vac, tot) == (3, 0, 0, 3)
    assert report.coverage == 1.0 and report.abstracted == 0.0
    assert report.warnings == []


def test_report_serialization_deterministic(mini_parsed):
    design, lib, regmap, script, props = mini_parsed
    r1 = run_flow(design, lib, regmap, script, props, _fast())
    r2 = run_flow(design, lib, regmap, script, props, _fast())
    assert r1.to_json() == r2.to_json()
    doc = json.loads(r1.to_json())
    assert doc["status"] == "FORMAL_COMPLETE"
    assert doc["rows"][0]["name"] == "alpha"
    text = r1.to_text()
    assert "alpha" in text and "coverage: 3/3 resolved" in text
    assert "status: FORMAL_COMPLETE" in text


def test_text_report_lists_warnings(mini_parsed):
    # with no register map every bus access of the script dangles
    design, lib, _, script, props = mini_parsed
    report = run_flow(design, lib, RegisterMap(()), script, props,
                      _fast(phases=(1,)))
    assert report.to_text().splitlines()[1:3] == [
        "warning: dangling-address: script statement 1 accesses unmapped "
        "address 0x0",
        "warning: dangling-address: script statement 2 accesses unmapped "
        "address 0x103"]


def test_phase_subset_skips_subsystems(mini_parsed):
    design, lib, regmap, script, props = mini_parsed
    report = run_flow(design, lib, regmap, script, props,
                      _fast(phases=(1, 2)))
    by_name = {r.name: r for r in report.rows}
    assert by_name["alpha"].result == "Finished"
    assert by_name["subsystem-1"].result == "Skipped"
    assert by_name["subsystem-1"].properties == {"cross_ok": "UNDETERMINED"}
    assert report.status == STATUS_FORMAL_COMPLETE  # nothing was marked


def test_failing_property_counts_as_resolved(mini_parsed):
    design, lib, regmap, script, _ = mini_parsed
    # unconstrained environment can raise led by writing CFG
    props = props_for("prop lit : ~a0.led\n", design, lib)
    report = run_flow(design, lib, regmap, script, props, _fast())
    row = [r for r in report.rows if r.name == "alpha"][0]
    assert row.properties == {"lit": "FAIL"}
    assert row.resolved == 1 and row.result == "Finished"
    assert report.status == STATUS_FORMAL_COMPLETE
    assert exit_code(report) == 0


def test_no_obligations(mini_parsed):
    design, lib, regmap, script, _ = mini_parsed
    report = run_flow(design, lib, regmap, script, [], _fast())
    assert report.no_obligations
    assert report.coverage == 1.0
    assert "no obligations" in report.to_text()


def test_hard_gated_resolves_semiformally(hard_gated):
    _, design, lib, regmap, script, props = hard_gated
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.status == STATUS_SEMIFORMAL_COMPLETE
    assert exit_code(report) == 0
    row = report.rows[0]
    assert row.name == "hard" and row.engine == "semiformal"
    assert row.result == "Finished" and row.iterations == 1
    assert row.elapsed == 0.6  # one charged formal attempt, free refinement
    assert row.properties == {"quiet": "PASS"}


def test_hard_ungated_gets_blackboxed(hard_ungated):
    _, design, lib, regmap, script, props = hard_ungated
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.status == STATUS_SEMIFORMAL_COMPLETE
    row = report.rows[0]
    assert row.result == "Blackboxed" and row.iterations == 1
    assert row.elapsed == pytest.approx(1.2)
    assert row.properties == {"quiet": "VACUOUS"}
    assert report.coverage == 0.0 and report.abstracted == 1.0


def _spy_checks(monkeypatch) -> list:
    """Record every run `bmc.check` returns to the flow."""
    from semiform import bmc
    runs, check = [], bmc.check

    def spy(*args, **kw):
        runs.append(check(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(bmc, "check", spy)
    return runs


def test_pin_outside_the_cone_reuses_the_timed_out_check(hard_ungated,
                                                         monkeypatch):
    # CFG gates nothing in the ungated block, so pinning it leaves the
    # phase-2 problem as it was: its stored run comes back unsolved
    from semiform.sat import Solver
    _, design, lib, regmap, script, props = hard_ungated
    runs = _spy_checks(monkeypatch)
    solvers, solve = [], Solver.solve

    def spy_solve(self, *args, **kw):
        solvers.append(self)
        return solve(self, *args, **kw)

    monkeypatch.setattr(Solver, "solve", spy_solve)
    report = run_flow(design, lib, regmap, script, props, _fast())
    row = report.rows[0]
    assert row.result == "Blackboxed" and row.iterations == 1
    assert row.elapsed == pytest.approx(1.2)
    assert len(runs) == 2 and runs[1] is runs[0]
    assert len({id(s) for s in solvers}) == 1


def test_pin_inside_the_cone_is_solved(hard_gated, monkeypatch):
    _, design, lib, regmap, script, props = hard_gated
    runs = _spy_checks(monkeypatch)
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.rows[0].properties == {"quiet": "PASS"}
    assert len(runs) == 2 and runs[1] is not runs[0]
    assert runs[0].outcomes["quiet"].reason == "timeout"
    assert runs[1].outcomes["quiet"].status == "PASS"


def test_hard_ungated_abort_without_blackboxing(hard_ungated):
    _, design, lib, regmap, script, props = hard_ungated
    report = run_flow(design, lib, regmap, script, props,
                      _fast(blackbox_failing_ips=False))
    assert report.status == STATUS_SEMIFORMAL_FAIL
    assert exit_code(report) == 2
    assert report.rows[0].result == "SemiformalFail"
    assert report.rows[0].properties == {"quiet": "UNDETERMINED"}


@pytest.mark.parametrize("blackbox", [True, False])
def test_timed_out_ip_with_no_mapped_register(hard_ungated, blackbox):
    # nothing to rank or pin: phase 3 gives up without a check
    _, design, lib, _, script, props = hard_ungated
    report = run_flow(design, lib, RegisterMap(()), script, props,
                      _fast(blackbox_failing_ips=blackbox))
    row = report.rows[0]
    assert row.engine == "semiformal" and row.iterations == 0
    assert row.elapsed == 0.6  # the phase-2 attempt only
    if blackbox:
        assert report.status == STATUS_SEMIFORMAL_COMPLETE
        assert row.result == "Blackboxed"
        assert row.properties == {"quiet": "VACUOUS"}
    else:
        assert report.status == STATUS_SEMIFORMAL_FAIL
        assert row.result == "SemiformalFail"
        assert row.properties == {"quiet": "UNDETERMINED"}


def test_hard_formal_only_times_out(hard_ungated):
    _, design, lib, regmap, script, props = hard_ungated
    report = run_flow(design, lib, regmap, script, props,
                      _fast(phases=(1, 2)))
    assert report.status == STATUS_INCOMPLETE
    assert exit_code(report) == 2
    row = report.rows[0]
    assert row.result == "Timeout" and row.engine == "formal"
    assert row.elapsed == 0.6
    assert row.properties == {"quiet": "UNDETERMINED"}


@pytest.mark.parametrize("phases", [(1, 2, 4), (1, 2, 4, 5)])
def test_timed_out_ip_keeps_the_run_incomplete(hard_ungated, phases):
    # without phase 3 nothing resolves the marked IP, so subsystems that
    # finish formally must not make the run read complete
    _, design, lib, regmap, script, props = hard_ungated
    report = run_flow(design, lib, regmap, script, props,
                      _fast(phases=phases))
    assert report.status == STATUS_INCOMPLETE
    assert exit_code(report) == 2
    row = report.rows[0]
    assert row.result == "Timeout" and row.engine == "formal"
    assert row.properties == {"quiet": "UNDETERMINED"}


@pytest.mark.parametrize("blackbox", [True, False])
def test_xprop_past_the_bound_iterates_until_registers_run_out(mini_parsed,
                                                                blackbox):
    # an xprop that settles after the bound is UNDETERMINED with no clock
    # read, so every pinned check leaves it open until a0's one mapped
    # register is used up
    design, lib, regmap, script, _ = mini_parsed
    props = props_for("xprop late : known(a0.CFG) after 3\n"
                      "prop beta_quiet : ~(b0.bad2)\n", design, lib)
    report = run_flow(design, lib, regmap, script, props,
                      _fast(bound=2, blackbox_failing_ips=blackbox))
    lines = report.to_text().splitlines()
    alpha = next(ln for ln in lines if ln.startswith("alpha "))
    if blackbox:
        assert report.status == STATUS_SEMIFORMAL_COMPLETE
        assert alpha.endswith("Blackboxed      0.00s (1 iter) "
                              "0/1 resolved, 1 vacuous")
        assert "coverage: 1/2 resolved (0.50), 1 vacuous by abstraction, " \
            "0 undetermined" in lines
    else:
        assert report.status == STATUS_SEMIFORMAL_FAIL
        assert alpha.endswith("SemiformalFail  0.00s (1 iter) "
                              "0/1 resolved, 1 open")
        assert "coverage: 1/2 resolved (0.50), 0 vacuous by abstraction, " \
            "1 undetermined" in lines


@pytest.mark.parametrize("fixture, dirs", [("hard_gated", ["000", "001"]),
                                           ("hard_ungated", ["000"])])
def test_dump_icnf_gives_each_check_a_directory(fixture, dirs, request,
                                                tmp_path):
    # phase 2's check times out and still writes its log; the pinned
    # check writes to a directory of its own, unless it reuses the first
    _, design, lib, regmap, script, props = request.getfixturevalue(fixture)
    report = run_flow(design, lib, regmap, script, props,
                      _fast(dump_icnf=str(tmp_path)))
    assert report.rows[0].iterations == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == dirs
    for d in dirs:
        assert [p.name for p in (tmp_path / d).iterdir()] == ["group0.icnf"]
        head = (tmp_path / d / "group0.icnf").read_text().split("\n")[:2]
        assert head == ["p inccnf", "c quiet"]


def _rows(report) -> list:
    return [(r.name, r.engine, r.result, r.elapsed, r.iterations,
             r.properties) for r in report.rows]


def test_subsystem_resolves_semiformally(hard_pair):
    # phase 4 times out on subsystem-1; phase 5 pins h0.CFG, its top pick
    design, lib, regmap, script = hard_pair
    props = props_for("prop both : ~(h0.bad & h1.bad)\n", design, lib)
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.status == STATUS_SEMIFORMAL_COMPLETE
    assert exit_code(report) == 0
    assert _rows(report) == [
        ("hard", "formal", "Finished", 0.0, 0, {}),
        ("subsystem-1", "semiformal", "Finished", 0.6, 1, {"both": "PASS"}),
    ]


def test_subsystem_out_of_registers_fails_semiformally(hard_pair_ungated,
                                                        monkeypatch):
    # ungated blocks: phase 4 times out on subsystem-1, and phase 5 pins
    # h0.CFG and then h1.CFG, both outside the cone, so each of its checks
    # returns phase 4's stored run, until no register is left to pin
    from semiform import bmc
    design, lib, regmap, script = hard_pair_ungated
    runs, check = [], bmc.check
    monkeypatch.setattr(bmc, "check",
                        lambda *a, **kw: runs.append(check(*a, **kw)) or
                        runs[-1])
    props = props_for("prop both : ~(h0.bad & h1.bad)\n", design, lib)
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.status == STATUS_SEMIFORMAL_FAIL
    assert exit_code(report) == 2
    assert _rows(report) == [
        ("hard", "formal", "Finished", 0.0, 0, {}),
        ("subsystem-1", "semiformal", "SemiformalFail", pytest.approx(1.8),
         2, {"both": "UNDETERMINED"}),
    ]
    assert len(runs) == 3 and runs[1] is runs[0] and runs[2] is runs[0]


def test_subsystem_starts_from_the_ip_pins(hard_pair):
    # phase 3 pins h1.CFG; subsystem-1's first iteration starts from that
    # pin and adds h0.CFG, the top pick, so one iteration folds `cross`.
    # Pinning h0.CFG alone leaves h1's parity block to refute.
    design, lib, regmap, script = hard_pair
    props = props_for("prop solo : ~(h1.bad)\n"
                      "prop cross : ~(h1.bad & ~h0.bad)\n", design, lib)
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert report.status == STATUS_SEMIFORMAL_COMPLETE
    assert exit_code(report) == 0
    assert _rows(report) == [
        ("hard", "semiformal", "Finished", 0.6, 1, {"solo": "PASS"}),
        ("subsystem-1", "semiformal", "Finished", 0.6, 1, {"cross": "PASS"}),
    ]


def test_module_row_counts_every_instance_iterations(hard_pair):
    # both instances time out in phase 2 and take one pinned check each
    design, lib, regmap, script = hard_pair
    props = props_for("prop a : ~(h0.bad)\nprop b : ~(h1.bad)\n",
                      design, lib)
    report = run_flow(design, lib, regmap, script, props, _fast())
    assert _rows(report)[0] == ("hard", "semiformal", "Finished",
                                pytest.approx(1.2), 2,
                                {"a": "PASS", "b": "PASS"})


def test_each_instance_set_is_elaborated_once(hard_pair, monkeypatch):
    # subsystem-1 keeps both instances, as the boot-script sessions do
    from semiform import flow
    design, lib, regmap, script = hard_pair
    kept, elaborate = [], flow.elaborate

    def spy(design, library, keep=None):
        kept.append(frozenset(design.instance_names() if keep is None
                              else keep))
        return elaborate(design, library, keep=keep)

    monkeypatch.setattr(flow, "elaborate", spy)
    props = props_for("prop solo : ~(h1.bad)\n"
                      "prop cross : ~(h1.bad & ~h0.bad)\n", design, lib)
    run_flow(design, lib, regmap, script, props, _fast())
    assert sorted(kept, key=sorted) == [{"h0", "h1"}, {"h1"}]


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(ip_time_limit=0)
    with pytest.raises(ValueError):
        FlowConfig(bound=-1)
    with pytest.raises(ValueError):
        FlowConfig(phases=(2, 9))


def test_charge_model():
    from semiform import bmc
    from semiform.flow import _charge
    run = bmc.BmcRun()
    run.outcomes["a"] = bmc.PropertyOutcome("a", "PASS", bound=5)
    assert _charge(run, 7.0) == 0.0
    run.outcomes["b"] = bmc.PropertyOutcome("b", "UNDETERMINED",
                                            reason="timeout", bound=2)
    assert _charge(run, 7.0) == 7.0
    run2 = bmc.BmcRun()
    run2.outcomes["c"] = bmc.PropertyOutcome("c", "UNDETERMINED",
                                             reason="bound", bound=2)
    assert _charge(run2, 7.0) == 0.0
    assert _charge(run, None) == 0.0
