"""Benchmark of the `twinwidth` command, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from a checkout of the repository (the program is imported from its
`src/`).  One client sends one command at a time and waits for it: each
command runs in this process through `twinwidth.cli.main(argv)`, with
stdout captured and checked against references that do not come from
the program (see `checks.py`).  Workloads are described in
`workloads.py`.

A run sets up SETUP_REPEATS times (import plus writing the inputs,
without the few program commands whose output the inputs are made
from) and reports the median, runs every task once, then repeats
tasks while they fit in T seconds.  Every timing is the median over a
task's repetitions; runs that exit non-zero are left out.  Times are
the program's own wall times.  With --trace 0 it prints the
end-to-end metrics.  With --trace 1 it runs every task once untraced
and then once with spans around the program's public functions (see
`tracing.py`), prints per-layer calls and self times plus the tracing
overhead, and writes the spans to `.perfbench_out/`.

The last line of stdout is one JSON object: correct, attempted, failed
(budgeted oracles that overran the budget outside their report) and
metrics.  Exit code 1 means a wrong answer, 2 that there is no program
to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import WrongAnswer, expect, parse_report
from tracing import Tracer
from workloads import BUDGETED, ORACLE_FAMILIES, WORKLOADS, Files, Task, Workload, build, call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
TRACE_TOLERANCE = 0.01  # share of traced wall time the summed self times may miss

UNITS = {
    "setup_s": "s", "reduce_vps": "vertices/s", "verify_vps": "vertices/s",
    "roundtrip_per_s": "queries/s", "chromatic_per_s": "queries/s",
    "tww_per_s": "queries/s", "solve_per_s": "queries/s",
    "verdict_s.p50": "s", "verdict_s.p90": "s",
    "decided_share": "fraction", "peak_rss_mb": "MiB",
}


def import_program():
    """Import twinwidth.cli afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "twinwidth" or m.startswith("twinwidth.")]:
        del sys.modules[name]
    return importlib.import_module("twinwidth.cli")


def setup(workload: str, seed: int, base: Path):
    """Set up SETUP_REPEATS times; keep the last inputs, report the median time.

    The time of program commands run while writing the inputs is left
    out: it is the program's work, not set-up's, and it would make
    set-up time as noisy as a command's.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        inputs = base / f"inputs{rep}"
        inputs.mkdir()
        files = Files(inputs)
        gc.collect()
        start = perf_counter()
        cli = import_program()
        work = build(workload, seed, cli, files)
        times.append(perf_counter() - start - files.program_s)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(inputs)
    return cli, work, inputs, statistics.median(times)


def inputs_digest(inputs: Path, tasks: list[Task]) -> str:
    """sha256 over every input file (name and bytes) and the task order."""
    digest = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digest.update("\n".join(t.key + ":" + t.family for t in tasks).encode())
    return digest.hexdigest()


def run_task(cli, task: Task) -> float:
    """Run a task once and check what it printed and wrote.

    The program exits 1 when it reports a FAIL line, and a crash (-1)
    or a usage error (2) on inputs the benchmark wrote is a fault too:
    each of these is a wrong answer.  The one failure that is not is a
    budgeted oracle whose search overruns the budget outside the
    report (exit 2, "exceeded" on stderr); that run counts as failed
    and undecided, and its time is left out of the medians.
    """
    gc.collect()
    code, elapsed, out, err = call(cli, task.argv)
    task.times.append(elapsed)
    task.exit_codes.append(code)
    if code != 0:
        expect(task.family in BUDGETED and code == 2 and "exceeded" in err,
               f"{task.key}: exited {code}: {(out + err).strip()[-300:]}")
        task.undecided = True
        return elapsed
    report = parse_report(out)
    task.undecided = bool(report["SKIP"])
    try:
        task.check(report)
    except (KeyError, ValueError, IndexError) as exc:
        raise WrongAnswer(f"{task.key}: unreadable output ({exc!r})") from None
    return elapsed


def measure(cli, work: Workload, seconds: float) -> None:
    """Every task once, then repeat tasks while time is left.

    Repeats go to the tasks with the fewest runs whose first time still
    fits in what is left, so cheap tasks fill the end of the run and
    every task's median rests on runs spread across the whole run.
    """
    start = perf_counter()
    for task in work.tasks:
        run_task(cli, task)
    for check in work.final_checks:
        check()
    while True:
        left = seconds - (perf_counter() - start)
        fitting = [t for t in work.tasks if t.times[0] <= left]
        if not fitting:
            break
        run_task(cli, min(fitting, key=lambda t: len(t.times)))


def end_to_end(work: Workload, setup_s: float) -> tuple[dict, dict]:
    """Metric values and, for the printout, what each was computed over."""
    median = {id(t): statistics.median(t.ok_times) for t in work.tasks if t.ok_times}

    def family(*names: str) -> list[Task]:
        return [t for t in work.tasks if t.family in names and id(t) in median]

    def vps(name: str) -> float:
        rates = [t.vertices / median[id(t)] for t in family(name)]
        return math.exp(statistics.fmean(map(math.log, rates)))

    def per_s(*names: str) -> float:
        tasks = family(*names)
        return len(tasks) / sum(median[id(t)] for t in tasks)

    latency = [median[id(t)] for t in family(*ORACLE_FAMILIES)]
    values = {
        "setup_s": setup_s,
        "reduce_vps": vps("reduce"),
        "verify_vps": vps("verify"),
        "roundtrip_per_s": per_s("roundtrip"),
        "chromatic_per_s": per_s("chromatic"),
        "tww_per_s": per_s("tww"),
        "solve_per_s": per_s("solve"),
        "verdict_s.p50": statistics.median(latency),
        "verdict_s.p90": statistics.quantiles(latency, n=10)[8],
        "decided_share": sum(not t.undecided for t in work.tasks) / len(work.tasks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    runs = {name: sum(len(t.ok_times) for t in family(name))
            for name in ("reduce", "verify", "roundtrip", "chromatic", "tww", "solve")}
    basis = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups, without set-up commands of the program",
        "reduce_vps": f"geometric mean over {len(family('reduce'))} instances, {runs['reduce']} runs",
        "verify_vps": f"geometric mean over {len(family('verify'))} instances, {runs['verify']} runs",
        **{f"{name}_per_s": f"{len(family(name))} queries, {runs[name]} runs"
           for name in ("roundtrip", "chromatic", "tww", "solve")},
        "verdict_s.p50": f"n = {len(latency)} oracle queries",
        "verdict_s.p90": f"n = {len(latency)} oracle queries",
        "decided_share": f"{len(work.tasks)} commands, SKIP or non-zero exit counts as undecided",
        "peak_rss_mb": "whole process, ru_maxrss",
    }
    return values, basis


def traced_layers(cli, work: Workload, workload: str, seed: int) -> tuple[dict, dict]:
    """Run each task untraced and then traced, back to back, so that the
    difference between the two is the tracing overhead and not drift."""
    tracer = Tracer()
    for query, task in enumerate(work.tasks):
        run_task(cli, task)
        tracer.query_id = query
        tracer.install()
        try:
            run_task(cli, task)
        finally:
            tracer.uninstall()
    for check in work.final_checks:
        check()
    untraced = sum(t.times[0] for t in work.tasks)
    traced = sum(t.times[1] for t in work.tasks)
    values = tracer.layer_metrics()
    # cli.main is the root span of every command, so this holds whenever
    # the tracer saw every command; it cannot tell whether the layers
    # below cover the work.  trace.layer_share says how much they do.
    self_sum = sum(tracer.self_times())
    if abs(self_sum - traced) > TRACE_TOLERANCE * traced:
        raise RuntimeError(f"layer self times add up to {self_sum:.3f} s, traced wall time is {traced:.3f} s")
    values.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.self_sum_s": self_sum,
        "trace.layer_share": 1 - values["cli.main.self_s"] / traced,
        "trace.spans": len(tracer.start),
    })
    out = ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.tsv"
    tracer.write(out)
    return values, {"trace.spans": f"written to {out.relative_to(ROOT)}",
                    "trace.layer_share": "share of traced wall time in spans below cli.main"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".spans", ".over_budget", ".steps")):
        return "count"
    if name.startswith("formats.bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "fraction"
    return "s"


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model or platform.processor(), "loadavg": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinwidth" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'twinwidth'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TWINWIDTH_BUDGET", None)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    correct = True
    try:
        try:
            cli, work, inputs, setup_s = setup(args.workload, args.seed, base)
        except WrongAnswer as exc:
            print(f"WRONG ANSWER at set-up: {exc}")
            return 1
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  commands per pass {len(work.tasks)}")
        print(f"inputs_sha256 {inputs_digest(inputs, work.tasks)}")
        try:
            if args.trace:
                values, basis = traced_layers(cli, work, args.workload, args.seed)
                units = {name: per_layer_unit(name) for name in values}
            else:
                measure(cli, work, args.seconds)
                values, basis = end_to_end(work, setup_s)
                units = UNITS
        except WrongAnswer as exc:
            print(f"WRONG ANSWER: {exc}")
            correct, values, units, basis = False, {}, {}, {}
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for name, value in values.items():
        print(f"  {name:36s} {value:>14.6g} {units[name]:12s} {basis.get(name, '')}")
    print(f"env {json.dumps(environment())}")
    attempted = sum(len(t.exit_codes) for t in work.tasks)
    failed = sum(code != 0 for t in work.tasks for code in t.exit_codes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
