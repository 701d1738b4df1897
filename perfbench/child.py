"""One workload run in a fresh process; `run.py` starts it.

Reads the run's inputs as JSON on stdin, runs them through the checker,
and prints one JSON line: the seconds from `--t0` (the parent's
`time.perf_counter` just before it started this process; on Linux that
is the system-wide monotonic clock) until the first `bmc.check` began
and until the last verdict, the verdicts, the exact counts, the peak
resident memory and, when traced, the per-layer metrics.

Usage: python3 child.py --workload NAME --t0 T [--trace] [--spans PATH]
       python3 child.py --warmup
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_cases(cases: list[dict]) -> dict:
    """Parse, elaborate and check each generated module in turn."""
    from semiform import bmc

    verdicts, counts, latencies = [], [], []
    for case in cases:
        t0 = perf_counter()
        try:
            model, props = workloads.load_case(case)
            run = bmc.check(model, props, k=case["bound"])
        except Exception:  # a crash is a failed verdict, not a lost run
            verdicts.append([case["module"], "*", "ERROR",
                             traceback.format_exc(limit=3)])
            continue
        latencies.append(perf_counter() - t0)
        counts.append([run.n_conflicts, run.n_vars, run.n_clauses])
        for name in sorted(run.outcomes):
            o = run.outcomes[name]
            verdicts.append([case["module"], name, o.status, o.frame])
    return {"verdicts": verdicts, "counts": counts, "latencies": latencies}


def run_gateway(gw: dict) -> dict:
    """The CLI's five-phase `run` over the committed corpus."""
    from semiform import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--design", gw["design"], "--esw", gw["esw"],
                         "--props", gw["props"], "--ip-limit",
                         str(gw["ip_limit"]), "--sub-limit",
                         str(gw["sub_limit"]), "--format", "json"])
    report = json.loads(out.getvalue())
    verdicts = [[r["name"], p, s, None] for r in report["rows"]
                for p, s in sorted(r["properties"].items())]
    return {"verdicts": verdicts, "report": report, "exit": code}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--t0", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    import semiform  # noqa: F401  (loads every module before patching)
    if args.warmup:
        return 0

    job = json.load(sys.stdin)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install_layers(tracer)
    else:
        tracing.install_check_clock(tracer)
    if args.workload == "gateway_flow":
        out = run_gateway(job["gateway"])
    else:
        out = run_cases(job["cases"])
    t_end = perf_counter()

    if args.workload == "gateway_flow":
        out["latencies"] = tracer.durations("bmc.check")
        out["coverage"] = out["report"]["coverage"]
    else:
        statuses = [v[2] for v in out["verdicts"]]
        out["coverage"] = sum(s in ("PASS", "FAIL") for s in statuses) / \
            max(len(statuses), 1)
    out["wall_s"] = t_end - args.t0
    out["setup_s"] = tracer.first_start("bmc.check") - args.t0
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        out["layers"] = tracing.layer_metrics(tracer, out["wall_s"],
                                              out.get("report"))
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
