"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from checks import WrongAnswer, naive_width, parse_report
from inputs import cycle, path
from tracing import SPAN_NAMES, Tracer
from workloads import WORKLOADS, Files, build

sys.path.insert(0, str(run.SRC))
SMALL = {"mincol_rungs": (2, 3), "threecol_rungs": (4, 6)}


def _inputs(tmp_path, name: str, workload: str, seed: int):
    root = tmp_path / name
    root.mkdir()
    work = build(workload, seed, run.import_program(), Files(root), **SMALL)
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return files, run.inputs_digest(root, work.tasks)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first, first_digest = _inputs(tmp_path, "a", workload, 7)
    second, second_digest = _inputs(tmp_path, "b", workload, 7)
    other, other_digest = _inputs(tmp_path, "c", workload, 8)
    assert first == second and first_digest == second_digest
    assert other_digest != first_digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_output_check(tmp_path, workload):
    cli = run.import_program()
    work = build(workload, 2, cli, Files(tmp_path), **SMALL)
    for task in work.tasks:
        run.run_task(cli, task)
    for check in work.final_checks:
        check()
    assert all(code == 0 for task in work.tasks for code in task.exit_codes)
    values, _ = run.end_to_end(work, setup_s=1.0)
    assert set(values) == set(run.UNITS) and all(v > 0 for v in values.values())


def test_wrong_answers_are_caught(tmp_path):
    cli = run.import_program()
    work = build("oracle-corpus", 1, cli, Files(tmp_path), **SMALL)
    by_family = {}
    for task in work.tasks:
        by_family.setdefault(task.family, task)
    task = by_family["roundtrip"]
    code, _, out, _ = run.call(cli, task.argv)
    report = parse_report(out)
    task.check(report)
    flipped = dict(report, satisfiable=str(report["satisfiable"] != "True"))
    with pytest.raises(WrongAnswer):
        task.check(flipped)
    task = by_family["reduce"]
    report = parse_report(run.call(cli, task.argv)[2])
    with pytest.raises(WrongAnswer):
        task.check(dict(report, N=str(int(report["N"]) + 1)))


class FakeCli:
    """Stands in for twinwidth.cli: prints fixed output and exits with a fixed code."""

    def __init__(self, code: int, out: str = "", err: str = ""):
        self.code, self.out, self.err = code, out, err

    def main(self, argv):
        sys.stdout.write(self.out)
        sys.stderr.write(self.err)
        return self.code


def _first_of_each_family(tmp_path):
    work = build("oracle-corpus", 1, run.import_program(), Files(tmp_path), **SMALL)
    by_family = {}
    for task in work.tasks:
        by_family.setdefault(task.family, task)
    return by_family


@pytest.mark.parametrize("family", ["reduce", "verify", "roundtrip", "chromatic", "tww", "solve"])
def test_a_fail_line_is_a_wrong_answer(tmp_path, family):
    task = _first_of_each_family(tmp_path)[family]
    with pytest.raises(WrongAnswer):
        run.run_task(FakeCli(1, "command: x\nFAIL: an invariant\nstatus: FAILED\n"), task)


@pytest.mark.parametrize("family", ["reduce", "verify", "solve"])
def test_any_error_exit_of_an_unbudgeted_command_is_a_wrong_answer(tmp_path, family):
    task = _first_of_each_family(tmp_path)[family]
    with pytest.raises(WrongAnswer):
        run.run_task(FakeCli(2, err="error: search exceeded 5 expansions\n"), task)


@pytest.mark.parametrize("family", ["roundtrip", "chromatic", "tww"])
def test_a_report_without_answer_or_skip_is_a_wrong_answer(tmp_path, family):
    cli = run.import_program()
    work = build("oracle-corpus", 1, cli, Files(tmp_path), **SMALL)
    for task in (t for t in work.tasks if t.family == family):
        code, _, out, _ = run.call(cli, task.argv)
        if "SKIP" not in out:  # the first whose search stayed within the budget
            break
    assert code == 0
    answer = {"roundtrip": "colorable_", "chromatic": "chromatic_number", "tww": "twin_width"}[family]
    kept = "".join(line + "\n" for line in out.splitlines() if not line.startswith(answer))
    with pytest.raises(WrongAnswer):
        run.run_task(FakeCli(0, kept), task)
    run.run_task(FakeCli(0, kept + "SKIP: budget exceeded\n"), task)
    assert task.undecided


def test_a_budget_overrun_outside_the_report_is_failed_not_wrong(tmp_path):
    task = _first_of_each_family(tmp_path)["tww"]
    run.run_task(FakeCli(2, err="error: search exceeded 5 expansions\n"), task)
    assert task.undecided and task.exit_codes == [2] and task.ok_times == []
    with pytest.raises(WrongAnswer):
        run.run_task(FakeCli(-1, err="Traceback: KeyError\n"), task)


def test_naive_width_matches_known_twin_widths():
    assert naive_width(6, path(6), [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]) == 1
    assert naive_width(5, cycle(5), [(0, 1), (0, 2), (0, 3), (0, 4)]) == 2
    k23 = [(u, v) for u in (0, 1) for v in (2, 3, 4)]  # a cograph: twins all the way
    assert naive_width(5, k23, [(0, 1), (2, 3), (2, 4), (0, 2)]) == 0


def test_trace_self_times_add_up_and_uninstall_restores(tmp_path):
    cli = run.import_program()
    work = build("mincol-ladder", 1, cli, Files(tmp_path), **SMALL)
    originals = (cli.main, cli.chromatic_number, sys.modules["twinwidth.oracles"].is_k_colorable)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        wall = sum(run.run_task(cli, task) for task in work.tasks)
    finally:
        tracer.uninstall()
    assert (cli.main, cli.chromatic_number,
            sys.modules["twinwidth.oracles"].is_k_colorable) == originals
    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == len(work.tasks)
    assert all(f"{span}.self_s" in layers for span in SPAN_NAMES)
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=0.01)
    assert layers["contraction.merge.calls"] > 0 and layers["oracles.is_k_colorable.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-corpus",
                          "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_benchmark_json_lists_what_a_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert {f"{span}.{kind}" for span in SPAN_NAMES for kind in ("calls", "self_s")} <= layer_names
