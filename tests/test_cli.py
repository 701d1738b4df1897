"""Command line interface: subcommands, exit codes, output formats."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from semiform.cli import main

from conftest import CORPUS, ROOT


def test_run_mini(mini_files, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run",
                 "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw"),
                 "--props", str(mini_files / "user.prop"),
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "FORMAL_COMPLETE"
    assert {r["name"] for r in doc["rows"]} == \
        {"alpha", "beta", "subsystem-1"}
    assert doc["config"]["blackbox_failing_ips"] is True


def test_run_text_to_stdout(mini_files, capsys):
    code = main(["run",
                 "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw"),
                 "--props", str(mini_files / "user.prop")])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: FORMAL_COMPLETE" in out
    assert "alpha" in out and "subsystem-1" in out


def test_phase_subset(mini_files, capsys):
    code = main(["phase", "2",
                 "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw"),
                 "--props", str(mini_files / "user.prop"),
                 "--format", "json", "--no-blackbox-failing"])
    assert code == 2  # subsystem-1's cross_ok is left undetermined
    doc = json.loads(capsys.readouterr().out)
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["subsystem-1"]["result"] == "Skipped"
    assert doc["config"]["phases"] == [1, 2]
    assert doc["config"]["blackbox_failing_ips"] is False


def test_run_reads_netlists_from_another_directory(mini_files, tmp_path,
                                                  capsys):
    # the .net files default to the design's directory; --netlist-dir
    # names another
    (tmp_path / "lib").mkdir()
    for f in mini_files.glob("*.net"):
        (tmp_path / "lib" / f.name).write_text(f.read_text())
    for name in ("mini.dsn", "mini.map", "boot.esw", "user.prop"):
        (tmp_path / name).write_text((mini_files / name).read_text())
    args = ["run", "--design", str(tmp_path / "mini.dsn"),
            "--esw", str(tmp_path / "boot.esw"),
            "--props", str(tmp_path / "user.prop"), "--format", "json"]
    assert main(args) == 3
    assert "no .net files in" in capsys.readouterr().err
    assert main(args + ["--netlist-dir", str(tmp_path / "lib")]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "FORMAL_COMPLETE"


def test_run_dump_trace_is_a_prefix_of_the_sim_trace(mini_files, tmp_path,
                                                     capsys):
    # the xprop settles after the bound, so phase 3 runs a boot-script
    # session; a session starts from reset like `sim`, so its trace is
    # the first part of the whole script's, byte for byte
    props = tmp_path / "late.prop"
    props.write_text("xprop late : known(a0.CFG) after 3\n"
                     "prop beta_quiet : ~(b0.bad2)\n")
    args = ["run", "--design", str(mini_files / "mini.dsn"),
            "--esw", str(mini_files / "boot.esw"), "--props", str(props),
            "--bound", "2", "--format", "json"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    stem = tmp_path / "run"
    assert main(args + ["--dump-trace", str(stem)]) == 0
    assert capsys.readouterr().out == plain
    full = tmp_path / "sim.trace"
    assert main(["sim", "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw"),
                 "--trace", str(full)]) == 0
    traces = sorted(tmp_path.glob("run.*.trace"))
    assert [t.name for t in traces] == ["run.phase3.trace"]
    session = traces[0].read_text()
    assert session and full.read_text().startswith(session)


def test_missing_required_arg_exits_3(capsys):
    assert main(["run", "--esw", "x", "--props", "y"]) == 3


def test_unreadable_input_exits_3(tmp_path, capsys):
    code = main(["run", "--design", str(tmp_path / "nope.dsn"),
                 "--esw", "x", "--props", "y"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sim"])
def test_missing_explicit_regmap_exits_3(mini_files, capsys, command):
    # a mistyped --regmap must not read as an empty map, which would leave
    # no register to pin and blackbox every IP that times out
    args = [command, "--design", str(mini_files / "mini.dsn"),
            "--esw", str(mini_files / "boot.esw"),
            "--regmap", str(mini_files / "nope.map")]
    if command == "run":
        args += ["--props", str(mini_files / "user.prop")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.map" in err


def test_absent_default_regmap_reads_empty(mini_files, tmp_path, capsys):
    for f in mini_files.glob("*.net"):
        (tmp_path / f.name).write_text(f.read_text())
    (tmp_path / "mini.dsn").write_text((mini_files / "mini.dsn").read_text())
    code = main(["sim", "--design", str(tmp_path / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ran 6 cycles" in out and "a0.CFG" not in out


@pytest.mark.parametrize("old, new", [
    (".bus reset rst", ".bus reset rsts"),
    ("addr=a0.addr", "addr=a9.addr"),
    ("wdata=b0.wdata", "wdata=b0.wdat"),
    ("we=a0.we", "we=we"),
], ids=["reset_no_top_port", "no_instance", "no_port", "no_top_port"])
def test_misspelled_bus_ref_exits_3(mini_files, tmp_path, capsys, old, new):
    # a bus ref that resolves nowhere would leave its range undriven
    for f in mini_files.glob("*.net"):
        (tmp_path / f.name).write_text(f.read_text())
    text = (mini_files / "mini.dsn").read_text()
    assert text.count(old) == 1
    (tmp_path / "mini.dsn").write_text(text.replace(old, new))
    code = main(["sim", "--design", str(tmp_path / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw")])
    assert code == 3
    assert new.split()[-1].split("=")[-1] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sim", "run"])
def test_missing_module_exits_3(mini_files, tmp_path, capsys, command):
    # no beta.net: the design's b0 names a module the library lacks, an
    # input error, not a FAIL verdict (exit 1)
    for name in ("alpha.net", "mini.dsn", "mini.map"):
        (tmp_path / name).write_text((mini_files / name).read_text())
    args = [command, "--design", str(tmp_path / "mini.dsn"),
            "--esw", str(mini_files / "boot.esw")]
    if command == "run":
        args += ["--props", str(mini_files / "user.prop")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "instance b0 references unknown module beta" in err


def test_module_declared_twice_exits_3(mini_files, tmp_path, capsys):
    # two files that declare one module: no file order may pick the one
    # the design uses
    for f in mini_files.glob("*.net"):
        (tmp_path / f.name).write_text(f.read_text())
    (tmp_path / "mini.dsn").write_text((mini_files / "mini.dsn").read_text())
    (tmp_path / "zeta.net").write_text(
        ".module beta\n.input i 1\n.output o 1\n.gate NOT o i\n"
        ".endmodule\n")
    code = main(["sim", "--design", str(tmp_path / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw")])
    assert code == 3
    err = capsys.readouterr().err
    assert "module beta is declared in both" in err
    assert "beta.net" in err and "zeta.net" in err


def test_design_with_bus_map_exits_3(mini_files, tmp_path, capsys):
    # the .map file is the one register map
    for f in mini_files.glob("*.net"):
        (tmp_path / f.name).write_text(f.read_text())
    (tmp_path / "mini.dsn").write_text(
        (mini_files / "mini.dsn").read_text() + ".bus map 0x0 a0.CFG\n")
    code = main(["sim", "--design", str(tmp_path / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw")])
    assert code == 3
    assert "unknown .bus directive map" in capsys.readouterr().err


def test_bad_phase_list_exits_3(mini_files, capsys):
    code = main(["phase", "2,x",
                 "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw"),
                 "--props", str(mini_files / "user.prop")])
    assert code == 3


def test_sra_rank_corpus_can(capsys):
    code = main(["sra-rank", "--ip", str(CORPUS / "can.net"),
                 "--regmap", str(CORPUS / "gateway.map")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["register", "paths", "elements", "score"]
    assert lines[1].split()[0] == "can0.MODE"
    # scores are the advertised weighted combination
    for ln in lines[1:]:
        reg, paths, elements, score = ln.split()
        assert int(score) == 100 * int(paths) + int(elements)


def test_bmc_pass_and_fail_exit_codes(tmp_path):
    ip = tmp_path / "c.net"
    from conftest import COUNTER_TEXT
    ip.write_text(COUNTER_TEXT)
    props = tmp_path / "p.prop"
    props.write_text("prop p : counter0.CNT != 3\n")
    code = main(["bmc", "--ip", str(ip), "--props", str(props),
                 "--bound", "5"])
    assert code == 1  # reachable violation
    props.write_text("prop p : counter0.CNT != 15\n")
    code = main(["bmc", "--ip", str(ip), "--props", str(props),
                 "--bound", "5"])
    assert code == 0
    props.write_text("prop p : counter0.CNT != 63\n")  # literal overflow
    code = main(["bmc", "--ip", str(ip), "--props", str(props),
                 "--bound", "5"])
    assert code == 3


def test_bmc_stopat_assume_and_trace(tmp_path, capsys):
    ip = tmp_path / "c.net"
    from conftest import COUNTER_TEXT
    ip.write_text(COUNTER_TEXT)
    props = tmp_path / "p.prop"
    props.write_text("prop p : counter0.CNT != 9\n")
    stem = str(tmp_path / "cex")
    code = main(["bmc", "--ip", str(ip), "--props", str(props),
                 "--bound", "5", "--stopat", "counter0.CNT",
                 "--assume", "counter0.CNT=9", "--dump-trace", stem])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "at frame 0" in out
    assert (tmp_path / "cex.p.trace").exists()


def test_bmc_prints_the_bound_an_open_property_reached(tmp_path, capsys):
    # no budget at all leaves the property open at frame 0, and an
    # obligation that settles after the bound is open at the bound
    from conftest import COUNTER_TEXT
    ip = tmp_path / "c.net"
    ip.write_text(COUNTER_TEXT)
    props = tmp_path / "p.prop"
    props.write_text("prop p : counter0.CNT != 9\n")
    code = main(["bmc", "--ip", str(ip), "--props", str(props), "--xprop",
                 "--settle", "3", "--bound", "2", "--budget", "0"])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "UNDETERMINED p (timeout, bound reached 0)",
        "UNDETERMINED xprop_counter0_CNT (bound, bound reached 2)"]
    assert lines[2].startswith("result: INCOMPLETE (k=2, ")


def test_bmc_assume_without_stopat_exits_3(tmp_path, capsys):
    # a pin is a value on a cut: the command line is where an assume can
    # still name a register no --stopat cuts
    from conftest import COUNTER_TEXT
    ip = tmp_path / "c.net"
    ip.write_text(COUNTER_TEXT)
    props = tmp_path / "p.prop"
    props.write_text("prop p : counter0.CNT != 9\n")
    code = main(["bmc", "--ip", str(ip), "--props", str(props),
                 "--assume", "counter0.CNT=9"])
    assert code == 3
    assert "assume on counter0.CNT without a stopat" in \
        capsys.readouterr().err


def test_unexpected_exception_exits_4(mini_files, capsys, monkeypatch):
    # a crash must not read as a verdict: exit 1 is bmc's FAIL
    from semiform import cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_sim", crash)
    code = main(["sim", "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert err.rstrip().endswith("internal error")


def test_bmc_stopat_on_unused_wire_exits_3(tmp_path, capsys):
    from conftest import UNUSED_WIRE_TEXT
    ip = tmp_path / "t.net"
    ip.write_text(UNUSED_WIRE_TEXT)
    props = tmp_path / "p.prop"
    props.write_text("prop p : ~t0.R\n")
    code = main(["bmc", "--ip", str(ip), "--props", str(props),
                 "--stopat", "t0.w"])
    assert code == 3
    assert "stopat t0.w names net t0.w" in capsys.readouterr().err


def test_bmc_dump_icnf_writes_one_log_per_group(tmp_path, capsys):
    from conftest import COUNTER_TEXT
    ip = tmp_path / "c.net"
    ip.write_text(COUNTER_TEXT)
    props = tmp_path / "p.prop"
    props.write_text("prop p : counter0.CNT != 3\n")
    args = ["bmc", "--ip", str(ip), "--props", str(props), "--bound", "5"]
    assert main(args) == 1
    plain = capsys.readouterr().out
    assert main(args + ["--dump-icnf", str(tmp_path / "icnf")]) == 1
    assert capsys.readouterr().out == plain
    assert [p.name for p in (tmp_path / "icnf").iterdir()] == ["group0.icnf"]
    text = (tmp_path / "icnf" / "group0.icnf").read_text()
    assert text.startswith("p inccnf\nc p\n1 0\n")


def test_bmc_xprop_generation(tmp_path, capsys):
    ip = tmp_path / "c.net"
    from conftest import COUNTER_TEXT
    ip.write_text(COUNTER_TEXT)
    code = main(["bmc", "--ip", str(ip), "--xprop", "--bound", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "xprop_counter0_CNT" in out and "PASS" in out


def test_sim_command(mini_files, capsys):
    code = main(["sim", "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ran 6 cycles" in out
    assert "a0.CFG = 0x5" in out
    assert "b0.GAIN = 0x9" in out


def test_sim_watch_and_trace(mini_files, tmp_path, capsys):
    trace = tmp_path / "t.trace"
    code = main(["sim", "--design", str(mini_files / "mini.dsn"),
                 "--esw", str(mini_files / "boot.esw"),
                 "--watch", "a0.CFG", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "a0.CFG = 0x5" in out and "b0.GAIN" not in out
    assert trace.exists() and trace.read_text()


def test_gen_xprop_command(mini_files, tmp_path, capsys):
    out = tmp_path / "x.prop"
    code = main(["gen-xprop", "--design", str(mini_files / "mini.dsn"),
                 "--settle", "3", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "xprop_a0_CFG" in text and "after 3" in text
    assert "xprop_b0_GAIN" in text


def test_gen_xprop_reads_no_register_map(mini_files, tmp_path):
    # the obligations come from the design alone, so a broken map next to
    # it is not read
    for f in mini_files.glob("*.net"):
        (tmp_path / f.name).write_text(f.read_text())
    (tmp_path / "mini.dsn").write_text((mini_files / "mini.dsn").read_text())
    (tmp_path / "mini.map").write_text("0x0 nope.CFG extra\n")
    out = tmp_path / "x.prop"
    code = main(["gen-xprop", "--design", str(tmp_path / "mini.dsn"),
                 "--out", str(out)])
    assert code == 0
    assert "xprop_a0_CFG" in out.read_text()


def test_gen_xprop_output_feeds_bmc(hard_gated, tmp_path, capsys):
    d = hard_gated[0]
    props = tmp_path / "x.prop"
    code = main(["gen-xprop", "--design", str(d / "solo.dsn"),
                 "--settle", "2", "--out", str(props)])
    assert code == 0
    code = main(["bmc", "--ip", str(d / "hard.net"), "--instance", "h0",
                 "--props", str(props), "--bound", "3"])
    assert code == 0
    assert "PASS         xprop_h0_CFG" in capsys.readouterr().out


@pytest.mark.parametrize("numbers", [["--settle", "-3", "--bound", "2"],
                                     ["--bound", "-1"], ["--budget", "-1"]])
def test_bmc_negative_numbers_exit_3(numbers, capsys):
    code = main(["bmc", "--ip", str(CORPUS / "ram.net"), "--xprop"] + numbers)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_import_loads_no_numpy():
    # the package is pure Python; numpy would add its import time to every run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, "-c",
         "import semiform, semiform.cli, sys; "
         "assert 'numpy' not in sys.modules, 'numpy imported'"],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


# ---------------------------------------------------------------------------
# seeded single edits to a copy of the inputs: whatever an edit breaks, each
# subcommand exits with a code it documents, and a crash (4) is never one


def _edit_inputs(rng, files: dict[str, str]) -> str:
    """Make one seeded edit to `files`, a map of name to text, in place:
    delete, duplicate, swap or truncate a line, replace a token with one
    from elsewhere in the file, or delete the file.  Returns what it did."""
    name = rng.choice(sorted(files))
    op = rng.choice(("delete", "duplicate", "swap", "truncate", "token",
                     "unlink"))
    lines = files[name].splitlines(keepends=True)
    if op == "unlink" or not lines:
        del files[name]
        return f"unlink {name}"
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]))]
    else:
        tokens = files[name].split()
        words = lines[i].split()
        if words:
            words[rng.randrange(len(words))] = rng.choice(tokens)
            lines[i] = " ".join(words) + "\n"
    files[name] = "".join(lines)
    return f"{op} {name}:{i + 1}"


def _mini_commands(d):
    design, esw = str(d / "mini.dsn"), str(d / "boot.esw")
    return [(["run", "--design", design, "--esw", esw,
              "--props", str(d / "user.prop"), "--ip-limit", "0.2",
              "--sub-limit", "0.2", "--format", "json",
              "--out", str(d / "report.json")], {0, 2, 3}),
            (["sim", "--design", design, "--esw", esw], {0, 3})]


def _corpus_commands(d):
    return [(["sim", "--design", str(d / "gateway.dsn"),
              "--esw", str(d / "boot.esw")], {0, 3}),
            (["sra-rank", "--ip", str(d / "can.net"),
              "--regmap", str(d / "gateway.map")], {0, 3})]


def _fuzz_exit_codes(source, commands, seed: int, cases: int, tmp_path):
    """Make `cases` seeded edits, each to a fresh copy of the inputs in
    `source`, and run `commands` on each copy.  Returns one `(edit,
    command, code, stderr)` per run; stderr only for a code the command
    does not document, else None."""
    base = {p.name: p.read_text() for p in sorted(source.iterdir())
            if p.suffix in (".net", ".dsn", ".map", ".esw", ".prop")}
    rng = random.Random(seed)
    out = []
    for n in range(cases):
        files = dict(base)
        what = _edit_inputs(rng, files)
        d = tmp_path / str(n)
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
        for argv, allowed in commands(d):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            out.append((what, argv[0], code,
                        None if code in allowed else err.getvalue()))
    return out


@pytest.mark.parametrize("inputs, seed", [("mini", 1), ("corpus", 1)])
def test_edited_inputs_exit_with_documented_codes(mini_files, tmp_path,
                                                  inputs, seed):
    source, commands = ((mini_files, _mini_commands) if inputs == "mini"
                        else (CORPUS, _corpus_commands))
    got = _fuzz_exit_codes(source, commands, seed, 50, tmp_path)
    bad = [g for g in got if g[3] is not None]
    assert not bad, bad[0]
    # the edits reach both outcomes: most break the input, some do not
    assert {code for _, _, code, _ in got} >= {0, 3}
