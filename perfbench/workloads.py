"""The benchmark's workloads as lists of `twinwidth` commands with output checks.

Every task is one command line.  Its check reads the report and the
files the command wrote and compares them with references from
`checks`; a contradiction raises `WrongAnswer`.

- mincol-ladder: `reduce mincol` then `verify-sequence --max-width 3`
  on seeded 3-SAT formulas, n in MINCOL_RUNGS, m = 4n.
- threecol-ladder: `reduce 3col` then `verify-sequence --max-width 4`
  on seeded NAE formulas, n in THREECOL_RUNGS, m = 4n, plus the
  smallest rung once more with `--k LIFT_K`.
- oracle-corpus: the oracle catalogue (roundtrip, chromatic, tww-exact,
  sat, nae) plus reduce/verify of eight small rungs, in seeded order.

The oracle catalogue is drawn from CATALOGUE_SEED, not from --seed: the
oracles' running times are heavy-tailed in the instance, so a corpus
drawn afresh per seed would make their throughputs differ by tens of
percent between seeds.  --seed sets the ladders' formulas and the order
of every workload.  Both ladders also run a probe, about half of the
catalogue, so that each workload reports every metric.
"""

from __future__ import annotations

import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from time import perf_counter
from typing import Callable

from checks import (WrongAnswer, answered, check_coloring, check_model, dpll_sat,
                    expect, mincol_size, naive_width, parse_report, read_merges,
                    threecol_size, truth_table_sat)
from inputs import (Formula, cycle, dimacs, parse_roles, parse_tgf, path,
                    random_cograph, random_formula, random_graph, relabel,
                    relabel_by_roles, tgf)

BUDGET = 100_000
CATALOGUE_SEED = 20251017
MINCOL_RUNGS = (5, 10, 15)
THREECOL_RUNGS = (25, 35, 50)
LIFT_K = 5  # the smallest threecol rung is also reduced with --k LIFT_K
# A known heavy-tail case: one 117-vertex mincol graph whose
# colorability search takes 0.007 s to 10 s depending on vertex order.
STRESS_FORMULA = Formula(3, ((-3, -3, -2), (-2, -1, 3), (-1, 2, 2)), False)
ORACLE_FAMILIES = ("roundtrip", "chromatic", "tww", "solve")
BUDGETED = ("roundtrip", "chromatic", "tww")  # the families that take --budget


@dataclass
class Task:
    family: str
    key: str
    argv: list[str]
    check: Callable[[dict], None]
    vertices: int = 0
    times: list[float] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)
    undecided: bool = False
    value: int | None = None

    @property
    def ok_times(self) -> list[float]:
        """Times of the runs that exited 0."""
        return [t for t, code in zip(self.times, self.exit_codes) if code == 0]


@dataclass
class Workload:
    tasks: list[Task]
    final_checks: list[Callable[[], None]] = field(default_factory=list)


def call(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """Run one command in-process; returns (exit code, seconds, stdout, stderr).

    An uncaught exception gives exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a stopped benchmark
            traceback.print_exc(file=err)
            code = -1
        elapsed = perf_counter() - start
    if code != 0:
        print(f"command {argv} exited {code}: {err.getvalue().strip()[-400:]}")
    return code, elapsed, out.getvalue(), err.getvalue()


class Files:
    """The run's input directory.

    Some inputs are made by the program itself (a `reduce` whose graph
    is then relabeled); `program_s` adds up the time of those commands,
    so that set-up time can leave them out.
    """

    def __init__(self, root: Path):
        self.root = root
        self.program_s = 0.0

    def run(self, cli, argv: list[str]) -> tuple[int, str]:
        """Run a set-up command of the program; returns (exit code, stdout)."""
        code, elapsed, out, _ = call(cli, argv)
        self.program_s += elapsed
        return code, out

    def path(self, name: str) -> str:
        return str(self.root / name)

    def write(self, name: str, text: str) -> str:
        (self.root / name).write_text(text)
        return self.path(name)


def _read(path: str) -> str:
    return Path(path).read_text()


def rung(files: Files, name: str, f: Formula, extra: tuple[str, ...] = ()) -> list[Task]:
    """`reduce` on f, then `verify-sequence` on what it wrote."""
    target, bound = ("3col", 4) if f.nae else ("mincol", 3)
    k = int(extra[1]) if extra else 3
    size = threecol_size(f, k) if f.nae else mincol_size(f)
    cnf = files.write(f"{name}.cnf", dimacs(f))
    graph, seq, roles = (files.path(f"{name}.{ext}") for ext in ("tgf", "seq", "roles"))
    reduced: dict[str, int] = {}

    def check_reduce(rep: dict) -> None:
        expect(int(rep["N"]) == size, f"{name}: N = {rep['N']}, the size law gives {size}")
        expect(rep[f"sequence_ok_at_{bound}"] == "True", f"{name}: sequence not certified")
        n_seq, merges = read_merges(_read(seq))
        expect(n_seq == size and len(merges) == size - 1,
               f"{name}: sequence file has {len(merges)} merges, expected {size - 1}")
        with open(graph) as fh:
            header = fh.readline().split()
        expect(header == ["tgf", str(size), rep["edges"], "0"], f"{name}: graph header {header}")
        expect(_read(roles).count("\n") == size, f"{name}: roles file does not name every vertex")
        reduced["width"] = int(rep["width.max"])

    def check_verify(rep: dict) -> None:
        expect(int(rep["N"]) == size and int(rep["steps"]) == size - 1,
               f"{name}: verify read N = {rep['N']}, steps = {rep['steps']}")
        expect(int(rep["width.max"]) == reduced["width"],
               f"{name}: verify width {rep['width.max']} differs from reduce's {reduced['width']}")
        expect(rep[f"sequence_ok_at_{bound}"] == "True", f"{name}: verify rejects the sequence")

    return [
        Task("reduce", name, ["reduce", target, cnf, "--graph", graph, "--sequence", seq,
                              "--roles", roles, *extra], check_reduce, size),
        Task("verify", name, ["verify-sequence", graph, seq, "--max-width", str(bound)],
             check_verify, size),
    ]


def _prebuild(cli, files: Files, reduce_task: Task) -> None:
    """Run a reduce at set-up so that its outputs exist before any shuffled task."""
    code, out = files.run(cli, reduce_task.argv)
    expect(code == 0, f"{reduce_task.key}: set-up reduce exited {code}")
    reduce_task.check(parse_report(out))


def roundtrip_task(files: Files, name: str, f: Formula) -> Task:
    cnf = files.write(f"{name}.cnf", dimacs(f))
    sat = truth_table_sat(f)
    bound, size = (4, threecol_size(f)) if f.nae else (3, mincol_size(f))
    colorable = f"colorable_{3 if f.nae else 2 * f.n}"

    def check(rep: dict) -> None:
        expect(rep["satisfiable"] == str(sat), f"{name}: satisfiable {rep['satisfiable']}, truth table {sat}")
        expect(int(rep["N"]) == size, f"{name}: N = {rep['N']}, the size law gives {size}")
        expect(rep[f"sequence_ok_at_{bound}"] == "True", f"{name}: sequence not certified")
        if answered(rep, colorable, name):
            expect(rep[colorable] == str(sat), f"{name}: {colorable} {rep[colorable]}, truth table {sat}")
        if sat and not f.nae and answered(rep, "chromatic_number", name):
            expect(int(rep["chromatic_number"]) == 2 * f.n, f"{name}: chromatic number {rep['chromatic_number']}")

    kind = "--3col" if f.nae else "--mincol"
    return Task("roundtrip", name, ["roundtrip", kind, cnf, "--budget", str(BUDGET)], check)


def chromatic_tasks(cli, files: Files, name: str, f: Formula, copies: int,
                    rng: random.Random) -> list[Task]:
    """`chromatic` on relabeled copies of the mincol graph of f."""
    cnf = files.write(f"{name}.cnf", dimacs(f))
    graph, roles = files.path(f"{name}.tgf"), files.path(f"{name}.roles")
    code, _ = files.run(cli, ["reduce", "mincol", cnf, "--graph", graph, "--roles", roles])
    expect(code == 0, f"{name}: set-up reduce exited {code}")
    n, edges = parse_tgf(_read(graph))
    expect(n == mincol_size(f), f"{name}: set-up graph has {n} vertices")
    sat = truth_table_sat(f)
    construction = parse_roles(_read(roles))
    tasks = []
    for copy in range(copies):
        key = f"{name}-r{copy}"
        shuffled = relabel_by_roles(n, edges, construction, rng)
        source = files.write(f"{key}.tgf", tgf(n, shuffled))
        coloring = files.path(f"{key}.col")

        def check(rep: dict, key=key, shuffled=shuffled, coloring=coloring) -> None:
            if not answered(rep, "chromatic_number", key):
                return
            chi = int(rep["chromatic_number"])
            expect((chi == 2 * f.n) == sat and chi >= 2 * f.n,
                   f"{key}: chromatic number {chi}, n = {f.n}, truth table {sat}")
            check_coloring(_read(coloring), n, shuffled, chi)

        tasks.append(Task("chromatic", key, ["chromatic", source, "--budget", str(BUDGET),
                                             "--coloring", coloring], check))
    return tasks


def tww_task(files: Files, name: str, n: int, edges, expected: int | None) -> Task:
    source = files.write(f"{name}.tgf", tgf(n, edges))
    witness = files.path(f"{name}.seq")
    task = Task("tww", name, ["tww-exact", source, "--budget", str(BUDGET),
                              "--witness", witness], lambda rep: None)

    def check(rep: dict) -> None:
        if not answered(rep, "twin_width", name):
            return
        width = int(rep["twin_width"])
        expect(expected is None or width == expected, f"{name}: twin-width {width}, expected {expected}")
        n_seq, merges = read_merges(_read(witness))
        expect(n_seq == n and len(merges) == n - 1, f"{name}: witness is not a full sequence")
        replayed = naive_width(n, edges, merges)
        expect(replayed == width, f"{name}: witness replays at width {replayed}, reported {width}")
        task.value = width

    task.check = check
    return task


def solve_task(files: Files, name: str, f: Formula) -> Task:
    cnf = files.write(f"{name}.cnf", dimacs(f))
    reference = cache(lambda: dpll_sat(f))

    def check(rep: dict) -> None:
        expect(rep["satisfiable"] == str(reference()),
               f"{name}: satisfiable {rep['satisfiable']}, reference {reference()}")
        if reference():
            check_model(f, rep)

    return Task("solve", name, ["nae" if f.nae else "sat", cnf], check)


def oracle_catalogue(cli, files: Files, probe: bool) -> Workload:
    """The fixed oracle corpus; with probe, about half of each family."""
    def rng(family: str) -> random.Random:
        return random.Random(f"{CATALOGUE_SEED}/{family}")

    def pick(items: list) -> list:
        # positions 0, 1, 4, 5, ...: alternating sizes land on both sides
        return [x for i, x in enumerate(items) if i % 4 < 2] if probe else items

    tasks: list[Task] = []
    r = rng("rt-mincol")
    specs = [random_formula(r, 2 + i % 2, r.randint(1, 3), False) for i in range(24)]
    tasks += [roundtrip_task(files, f"rt-mincol-{i:02d}", f) for i, f in pick(list(enumerate(specs)))]
    r = rng("rt-3col")
    specs = [random_formula(r, 3 + i % 3, r.randint(1 + (i % 3 > 0), 5), True) for i in range(40)]
    tasks += [roundtrip_task(files, f"rt-3col-{i:02d}", f) for i, f in pick(list(enumerate(specs)))]

    r = rng("chromatic")
    bases = [(f"chr-{i:02d}", random_formula(r, 2 + i % 2, r.randint(1, 3), False), 3)
             for i in range(10)]
    bases.append(("chr-stress", STRESS_FORMULA, 4))
    for name, f, copies in pick(bases):
        tasks += chromatic_tasks(cli, files, name, f, copies, rng(name))

    r = rng("tww")
    graphs = [(f"tww-path-{n:02d}", n, path(n), 1) for n in range(4, 13)]
    graphs += [(f"tww-cycle-{n:02d}", n, cycle(n), 2) for n in range(5, 13)]
    for i in range(14):
        n = r.randint(5, 12)
        graphs.append((f"tww-cograph-{i:02d}", n, random_cograph(r, n), 0))
    tasks += [tww_task(files, *spec) for spec in pick(graphs)]
    specs = []
    for i in range(20):
        n = r.randint(6, 11)
        edges = random_graph(r, n, r.choice((0.3, 0.5)))
        specs.append((i, n, edges, r.sample(range(n), n)))
    pairs = [(tww_task(files, f"tww-random-{i:02d}a", n, edges, None),
              tww_task(files, f"tww-random-{i:02d}b", n, relabel(edges, perm), None))
             for i, n, edges, perm in pick(specs)]
    tasks += [task for pair in pairs for task in pair]

    for family, nae in (("sat", False), ("nae", True)):
        r = rng(family)
        specs = [random_formula(r, 22 + i % 9, 4 * (22 + i % 9), nae) for i in range(16)]
        tasks += [solve_task(files, f"{family}-{i:02d}", f) for i, f in pick(list(enumerate(specs)))]

    if not probe:
        # Rungs of about 400-600 vertices (30-60 ms a command): on rungs
        # of under 120 vertices a command takes 4-10 ms, much of it fixed
        # cost, and reduce_vps spread by 0.45 over ten runs.
        for family, nae, sizes in (("rung-mincol", False, (4, 4, 4, 4)), ("rung-3col", True, (8, 9, 10, 10))):
            r = rng(family)
            for i, n in enumerate(sizes):
                pair = rung(files, f"{family}-{i:02d}", random_formula(r, n, 4 * n, nae))
                _prebuild(cli, files, pair[0])
                tasks += pair

    def same_width_after_relabeling() -> None:
        for a, b in pairs:
            if a.value is not None and b.value is not None:
                expect(a.value == b.value, f"{a.key}/{b.key}: twin-width {a.value} vs {b.value}")

    return Workload(tasks, [same_width_after_relabeling])


def build(name: str, seed: int, cli, files: Files,
          mincol_rungs=MINCOL_RUNGS, threecol_rungs=THREECOL_RUNGS) -> Workload:
    """Write the inputs of one workload and return its tasks in run order."""
    order = random.Random(f"{name}/order/{seed}")
    if name == "oracle-corpus":
        work = oracle_catalogue(cli, files, probe=False)
        order.shuffle(work.tasks)
        return work
    rng = random.Random(f"{name}/{seed}")
    tasks: list[Task] = []
    if name == "mincol-ladder":
        for n in mincol_rungs:
            tasks += rung(files, f"mincol-n{n}", random_formula(rng, n, 4 * n, False))
    else:
        for n in threecol_rungs:
            f = random_formula(rng, n, 4 * n, True)
            tasks += rung(files, f"3col-n{n}", f)
            if n == min(threecol_rungs):
                tasks += rung(files, f"3col-n{n}-k{LIFT_K}", f, ("--k", str(LIFT_K)))
    probe = oracle_catalogue(cli, files, probe=True)
    order.shuffle(probe.tasks)
    # Spread the probe between the rung commands, so that both kinds of
    # metric are sampled across the whole run.
    step = len(probe.tasks) / len(tasks)
    mixed = []
    for i, task in enumerate(tasks):
        mixed.append(task)
        mixed += probe.tasks[round(i * step):round((i + 1) * step)]
    return Workload(mixed, probe.final_checks)


WORKLOADS = ("mincol-ladder", "threecol-ladder", "oracle-corpus")
