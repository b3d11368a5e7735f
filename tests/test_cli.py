import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import twinwidth.cli
import twinwidth.formats
import twinwidth.oracles
from twinwidth import Coloring, Trigraph
from twinwidth.cli import main
from twinwidth.errors import TwinwidthError
from twinwidth.formats import read_sequence, read_trigraph

DEMO_SAT = "c demo\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
DEMO_NAE = ("p cnf 7 8\n1 -2 3 0\n-1 4 5 0\n2 -3 6 0\n1 6 -7 0\n"
            "4 5 7 0\n2 4 -6 0\n-1 -5 7 0\n3 -6 -7 0\n")
P4 = "tgf 4 3 0\nb 1 2\nb 2 3\nb 3 4\n"
UNSAT = "p cnf 2 4\n1 1 2 0\n1 1 -2 0\n-1 -1 2 0\n-1 -1 -2 0\n"
DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def sat_cnf(tmp_path):
    path = tmp_path / "demo.cnf"
    path.write_text(DEMO_SAT)
    return path


@pytest.fixture
def nae_cnf(tmp_path):
    path = tmp_path / "nae.cnf"
    path.write_text(DEMO_NAE)
    return path


def test_reduce_mincol_writes_artifacts(tmp_path, sat_cnf, capsys):
    graph = tmp_path / "out.tgf"
    seq = tmp_path / "out.seq"
    roles = tmp_path / "out.roles"
    code = main(["reduce", "mincol", str(sat_cnf), "--graph", str(graph),
                 "--sequence", str(seq), "--roles", str(roles)])
    out = capsys.readouterr().out
    assert code == 0
    assert "N: 104" in out
    assert "sequence_ok_at_3: True" in out
    g = read_trigraph(graph.read_text())
    assert g.n == 104
    s = read_sequence(seq.read_text())
    assert len(s.steps) == 103
    assert roles.read_text().splitlines()[0] == "1 A 1 1"


def test_reduce_renders_no_output_without_its_flag(sat_cnf, capsys, monkeypatch):
    def refuse(_):
        raise AssertionError("rendered an output that no flag asked for")

    for name in ("write_trigraph", "write_sequence", "write_roles"):
        monkeypatch.setattr(twinwidth.formats, name, refuse)
    assert main(["reduce", "mincol", str(sat_cnf)]) == 0
    assert "sequence_ok_at_3: True" in capsys.readouterr().out


def test_reduce_3col(tmp_path, nae_cnf, capsys):
    graph = tmp_path / "out.tgf"
    seq = tmp_path / "out.seq"
    code = main(["reduce", "3col", str(nae_cnf),
                 "--graph", str(graph), "--sequence", str(seq)])
    out = capsys.readouterr().out
    assert code == 0
    assert "N: 91" in out
    assert "sequence_ok_at_4: True" in out
    assert len(read_sequence(seq.read_text()).steps) == 90


# SHA-256 of the graph, sequence and roles files, in that order
REDUCE_DIGESTS = [
    (["mincol", "demo3sat.cnf"], (
        "4c9f63f3f488b99dbdff785941f88c0ef06f87c96ecfec49640f3f7a533fe512",
        "47e5bf5efedf8349a43aa883f393d6a1fd3c636eeaa0eb1dde88d41081681918",
        "161a8f2ab0fa79c144cb1a7f7fb8ccf23c12a058036bc07a75acdae16d32a027")),
    (["3col", "demo_nae.cnf"], (
        "2e524f0b6c5ec268f0f27f5ef6dab894ee986e201aa2a25f5d4790f141aed96e",
        "4cf2c5f62a380fcc2a7971127e6796bf636d32a61f843d291adece4a8cef868a",
        "951f7d086ed728f06695b5bc27c5593cd30b93c1d5ca3865f15765caa7916fac")),
    (["3col", "demo_nae.cnf", "--k", "5"], (
        "3a14a973ae69606472dfaa4e69771b1713ee0c12fc4c22ce0ace33ad900f38d1",
        "a1736ce32d0d4a707c6c7d45b97e365f904eebaf77a191bcec6bf2cf8a78d073",
        "daa6caff7d1e9827f43f725965697eaaff729ba4da0ab9718994faf92076a510")),
]


@pytest.mark.parametrize("argv, digests", REDUCE_DIGESTS, ids=["mincol", "3col", "3col-k5"])
def test_reduce_writes_pinned_bytes(tmp_path, capsys, argv, digests):
    target, cnf, *rest = argv
    paths = [tmp_path / name for name in ("out.tgf", "out.seq", "out.roles")]
    assert main(["reduce", target, str(DATA / cnf), *rest, "--graph", str(paths[0]),
                 "--sequence", str(paths[1]), "--roles", str(paths[2])]) == 0
    capsys.readouterr()
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths) == digests


def test_reduce_3col_lifted(tmp_path, nae_cnf, capsys):
    code = main(["reduce", "3col", str(nae_cnf), "--k", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N: 93" in out
    assert "sequence_ok_at_4: True" in out


def test_verify_sequence_exit_codes(tmp_path, sat_cnf, capsys):
    graph = tmp_path / "g.tgf"
    seq = tmp_path / "s.seq"
    assert main(["reduce", "mincol", str(sat_cnf), "--graph", str(graph),
                 "--sequence", str(seq)]) == 0
    capsys.readouterr()
    assert main(["verify-sequence", str(graph), str(seq), "--max-width", "3"]) == 0
    capsys.readouterr()
    code = main(["verify-sequence", str(graph), str(seq), "--max-width", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "status: FAILED" in out
    p3 = tmp_path / "p3.tgf"
    p3.write_text("tgf 3 2 0\nb 1 2\nb 2 3\n")
    any_member = tmp_path / "p3.seq"
    any_member.write_text("seq 3 2\nm 1 2\nm 2 3\n")  # 2 is no longer a representative
    assert main(["verify-sequence", str(p3), str(any_member), "--max-width", "1"]) == 0
    assert "sequence_ok_at_1: True" in capsys.readouterr().out
    p5 = tmp_path / "p5.tgf"
    p5.write_text("tgf 5 4 0\nb 1 2\nb 2 3\nb 3 4\nb 4 5\n")
    for name, text in (("full3.seq", "seq 3 2\nm 1 2\nm 1 3\n"), ("partial3.seq", "seq 3 1\nm 1 2\n")):
        other = tmp_path / name
        other.write_text(text)  # the size mismatch is the fault, not the length
        assert main(["verify-sequence", str(p5), str(other), "--max-width", "4"]) == 2
        assert capsys.readouterr().err == "error: sequence is for n=3, trigraph has n=5\n"
    empty = tmp_path / "empty.tgf"
    empty.write_text("tgf 0 0 0\n")
    empty_seq = tmp_path / "empty.seq"
    empty_seq.write_text("seq 0 0\n")  # 0 steps are a full sequence on 0 vertices
    assert main(["verify-sequence", str(empty), str(empty_seq), "--max-width", "0"]) == 0
    out = capsys.readouterr().out
    assert "width.max: 0" in out and "sequence_ok_at_0: True" in out


def test_tww_exact_and_chromatic(tmp_path, capsys):
    graph = tmp_path / "p4.tgf"
    graph.write_text("tgf 4 3 0\nb 1 2\nb 2 3\nb 3 4\n")
    witness = tmp_path / "w.seq"
    assert main(["tww-exact", str(graph), "--witness", str(witness)]) == 0
    out = capsys.readouterr().out
    assert "twin_width: 1" in out
    assert len(read_sequence(witness.read_text()).steps) == 3
    assert main(["chromatic", str(graph)]) == 0
    assert "chromatic_number: 2" in capsys.readouterr().out
    empty = tmp_path / "empty.tgf"
    empty.write_text("tgf 0 0 0\n")
    assert main(["tww-exact", str(empty), "--witness", str(witness)]) == 0
    out = capsys.readouterr().out
    assert "twin_width: 0" in out and "status: ok" in out
    assert read_sequence(witness.read_text()).steps == ()
    assert main(["chromatic", str(empty)]) == 0
    assert "chromatic_number: 0" in capsys.readouterr().out


def test_tww_exact_budget_skip(tmp_path, capsys):
    # width1-7 of the oracle pins: 11 expansions decide it, the last on the width-1 level
    graph = tmp_path / "width1.tgf"
    graph.write_text("tgf 7 8 0\nb 1 5\nb 1 6\nb 2 4\nb 2 5\nb 2 7\nb 3 4\nb 3 5\nb 4 5\n")
    assert main(["tww-exact", str(graph), "--budget", "0"]) == 0
    assert "SKIP: budget exceeded; twin-width at least 0\n" in capsys.readouterr().out
    assert main(["tww-exact", str(graph), "--budget", "10"]) == 0
    assert "SKIP: budget exceeded; twin-width at least 1\n" in capsys.readouterr().out
    assert main(["tww-exact", str(graph)]) == 0
    assert "twin_width: 1\n" in capsys.readouterr().out


def test_sat_and_nae_commands(tmp_path, sat_cnf, nae_cnf, capsys):
    assert main(["sat", str(sat_cnf)]) == 0
    assert "satisfiable: True" in capsys.readouterr().out
    assert main(["nae", str(nae_cnf)]) == 0
    assert "satisfiable: True" in capsys.readouterr().out
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    assert main(["sat", str(unsat)]) == 0
    assert "satisfiable: False" in capsys.readouterr().out


def test_solvers_do_not_recurse(tmp_path, capsys):
    units = tmp_path / "units.cnf"
    units.write_text("p cnf 1000 1000\n" + "".join(f"{v} {v} {v} 0\n" for v in range(1, 1001)))
    assert main(["sat", str(units)]) == 0
    out = capsys.readouterr().out
    assert "satisfiable: True" in out
    assert f"assignment: {' '.join(map(str, range(1, 1001)))}\n" in out
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 1500 1498\n" + "".join(f"{v} {v + 1} {v + 2} 0\n" for v in range(1, 1499)))
    assert main(["nae", str(chain)]) == 0
    assert "satisfiable: True" in capsys.readouterr().out


def test_deep_coloring_search_answers(tmp_path, capsys):
    cycle = tmp_path / "c2001.tgf"
    cycle.write_text("tgf 2001 2001 0\n" + "".join(f"b {i} {i % 2001 + 1}\n" for i in range(1, 2002)))
    assert main(["chromatic", str(cycle)]) == 0
    captured = capsys.readouterr()
    assert "chromatic_number: 3\n" in captured.out
    assert captured.err == ""


def test_roundtrip_mincol(sat_cnf, capsys):
    code = main(["roundtrip", "--mincol", str(sat_cnf)])
    out = capsys.readouterr().out
    assert code == 0
    assert "N: 104" in out
    assert "width.max: 3" in out
    assert "chromatic_number: 6" in out
    assert "forward_backward_roundtrip: ok" in out
    assert "status: ok" in out


def test_roundtrip_mincol_searches_once(monkeypatch, capsys):
    """The 2n-colorability search inside chromatic_number also answers colorable_<k>."""
    calls = []
    search = twinwidth.oracles._search

    def recording(g, k, order, clique, budget):
        calls.append(k)
        return search(g, k, order, clique, budget)

    monkeypatch.setattr(twinwidth.oracles, "_search", recording)
    assert main(["roundtrip", "--mincol", str(DATA / "demo3sat.cnf")]) == 0
    out = capsys.readouterr().out
    assert "colorable_6: True" in out and "chromatic_number: 6" in out
    assert calls == [6]


def test_roundtrip_3col(nae_cnf, capsys):
    code = main(["roundtrip", "--3col", str(nae_cnf)])
    out = capsys.readouterr().out
    assert code == 0
    assert "N: 91" in out
    assert "width.max: 4" in out
    assert "colorable_3: True" in out
    assert "status: ok" in out


def test_roundtrip_budget_skip(sat_cnf, capsys):
    code = main(["roundtrip", "--mincol", str(sat_cnf), "--budget", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SKIP" in out


def _b1_clash(real, inst, model):
    """The real forward coloring, but B_1's first two vertices share a color."""
    colors = list(real(inst, model).colors)
    colors[inst.b(1, 2)] = colors[inst.b(1, 1)]
    return Coloring(colors, inst.color_budget)


def _one_color_short(real, inst, model):
    """The real forward coloring with color 2n recolored 2n-1."""
    top = inst.color_budget
    return Coloring([min(c, top - 1) for c in real(inst, model).colors], top)


def _parity_error(real, inst, col):
    raise TwinwidthError("occurrence colors of variable 1 violate parity")


ROUNDTRIP_MINCOL = ["roundtrip", "--mincol", str(DATA / "demo3sat.cnf")]
ROUNDTRIP_3COL = ["roundtrip", "--3col", str(DATA / "demo_nae.cnf")]
# (argv, name patched in twinwidth.cli, replacement given the real one, FAIL lines)
FAILED_CHECKS = [
    (ROUNDTRIP_MINCOL, "mincol_coloring_from_assignment", _b1_clash,
     ["forward_backward_roundtrip: coloring is not proper"]),
    (ROUNDTRIP_3COL, "threecol_assignment_from_coloring", _parity_error,
     ["oracle_witness_roundtrip: occurrence colors of variable 1 violate parity",
      "forward_backward_roundtrip: occurrence colors of variable 1 violate parity"]),
    (["tww-exact", "p4.tgf"], "exact_twinwidth",
     lambda real, g, budget: (0, real(g, budget)[1]),
     ["witness sequence does not verify at the reported width"]),
    (["chromatic", "p4.tgf"], "chromatic_number",
     lambda real, g, budget: (2, Coloring([1, 1, 2, 2], 2)),
     ["witness coloring rejected by the propriety checker"]),
    (ROUNDTRIP_3COL, "is_k_colorable", lambda real, g, k, budget: (False, None),
     ["oracle colorability verdict disagrees with satisfiability"]),
    (ROUNDTRIP_MINCOL, "mincol_coloring_from_assignment", _one_color_short,
     ["forward coloring does not use exactly 2n colors",
      "forward_backward_roundtrip: coloring is not proper"]),
    (ROUNDTRIP_MINCOL, "chromatic_number",
     lambda real, g, budget: (5, real(g, budget)[1]),
     ["chromatic number differs from the color budget"]),
]


@pytest.mark.parametrize("argv, name, replacement, fails", FAILED_CHECKS,
                         ids=["mincol-backward-rejects", "3col-backward-raises",
                              "tww-witness", "chromatic-witness", "3col-verdict",
                              "mincol-too-few-colors", "mincol-chromatic"])
def test_failed_check_exits_1_with_report(tmp_path, monkeypatch, capsys,
                                          argv, name, replacement, fails):
    """A check that fails on good input is a FAIL line and exit 1, never an error."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p4.tgf").write_text(P4)
    real = getattr(twinwidth.cli, name)
    monkeypatch.setattr(twinwidth.cli, name, lambda *args: replacement(real, *args))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert [line.removeprefix("FAIL: ") for line in captured.out.splitlines()
            if line.startswith("FAIL: ")] == fails
    assert captured.out.endswith("status: FAILED\n")
    assert captured.err == ""


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    missing = tmp_path / "nope.cnf"
    assert main(["sat", str(missing)]) == 2
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["sat", str(bad)]) == 2
    nae_bad = tmp_path / "nae_bad.cnf"
    nae_bad.write_text("p cnf 2 1\n1 1 2 0\n")
    assert main(["nae", str(nae_bad)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", "--mincol", str(bad), "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()

    def one_error(argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    p4 = tmp_path / "p4.tgf"
    p4.write_text(P4)
    with pytest.MonkeyPatch.context() as env:
        env.setenv("TWINWIDTH_BUDGET", "abc")
        one_error(["chromatic", str(p4)])
    negative = tmp_path / "negative.tgf"
    negative.write_text("tgf -1 0 0\n")
    one_error(["chromatic", str(negative)])
    prefixed = tmp_path / "prefixed.tgf"
    prefixed.write_text("tgfx 2 1 0\nb 1 2\n")  # a tag that only starts with 'tgf'
    one_error(["chromatic", str(prefixed)])
    one_error(["sat", str(tmp_path)])
    latin1 = tmp_path / "latin1.cnf"
    latin1.write_bytes("c caf\xe9\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n".encode("latin-1"))
    one_error(["sat", str(latin1)])
    c5 = tmp_path / "c5.tgf"
    c5.write_text("tgf 5 5 0\nb 1 2\nb 2 3\nb 3 4\nb 4 5\nb 1 5\n")
    one_error(["chromatic", str(c5), "--budget", "-5"])
    with pytest.MonkeyPatch.context() as env:
        env.setenv("TWINWIDTH_BUDGET", "-1")
        one_error(["tww-exact", str(c5)])
    nae = tmp_path / "nae.cnf"
    nae.write_text(DEMO_NAE)
    one_error(["reduce", "3col", str(nae), "--k", "65"])  # one above threecol.MAX_K
    # n = m = 1030 asks for over a million vertices; refused before any is built
    big_nae = tmp_path / "big_nae.cnf"
    big_nae.write_text(f"p cnf 1030 1030\n" + "".join(
        f"{1 + j % 1030} -{1 + (j + 1) % 1030} {1 + (j + 2) % 1030} 0\n" for j in range(1030)))
    one_error(["reduce", "3col", str(big_nae)])
    one_error(["reduce", "3col", str(big_nae), "--k", "5"])
    # refused by formats.MAX_VERTICES before anything is allocated
    huge = tmp_path / "huge.tgf"
    huge.write_text("tgf 1000000000000 0 0\n")
    one_error(["chromatic", str(huge)])
    one_error(["tww-exact", str(huge)])
    huge_seq = tmp_path / "huge.seq"
    huge_seq.write_text("seq 1000000000000 0\n")
    one_error(["verify-sequence", str(p4), str(huge_seq), "--max-width", "1"])
    p4_seq = tmp_path / "p4.seq"
    p4_seq.write_text("seq 4 3\nm 1 2\nm 1 3\nm 1 4\n")
    one_error(["verify-sequence", str(p4), str(p4_seq), "--max-width", "-1"])
    no_vars = tmp_path / "no_vars.cnf"
    no_vars.write_text("p cnf -1 0\n")
    one_error(["sat", str(no_vars)])


def test_reduce_refuses_more_edges_than_the_cap(tmp_path, capsys):
    """A 4 KB CNF with n = 80, m = 320 passes the vertex cap (154 080) but asks
    for 24 498 880 edges; it is refused before the block graph is allocated."""
    big = tmp_path / "big.cnf"
    big.write_text("p cnf 80 320\n" + "".join(
        f"{1 + j % 80} -{1 + (j + 1) % 80} {1 + (j + 2) % 80} 0\n" for j in range(320)))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["reduce", "mincol", str(big)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert time.perf_counter() - start < 5
    assert peak < 4 * 2**20, peak
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the instance would have 24498880 edges, above the cap of 4194304\n"


def test_every_graph_goes_through_the_constructor_once(tmp_path, sat_cnf, nae_cnf, monkeypatch,
                                                       capsys):
    """The reader and both reductions build each graph with Trigraph.__init__,
    so no fast path bypasses it (or the benchmark's span around it)."""
    built = []
    init = Trigraph.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Trigraph, "__init__", counted)
    graph, seq, p4 = tmp_path / "g.tgf", tmp_path / "g.seq", tmp_path / "p4.tgf"
    p4.write_text(P4)
    for argv, sizes in [
            (["reduce", "mincol", str(sat_cnf), "--graph", str(graph), "--sequence", str(seq)],
             [104]),
            (["reduce", "3col", str(nae_cnf), "--k", "5"], [91, 93]),  # the base and its lift
            (["verify-sequence", str(graph), str(seq), "--max-width", "3"], [104]),
            (["chromatic", str(p4)], [4])]:
        built.clear()
        assert main(argv) == 0, argv
        assert built == sizes, argv
    capsys.readouterr()


def test_budget_env_override(sat_cnf, capsys, monkeypatch):
    monkeypatch.setenv("TWINWIDTH_BUDGET", "10")
    code = main(["roundtrip", "--mincol", str(sat_cnf)])
    out = capsys.readouterr().out
    assert code == 0
    assert "SKIP" in out
    monkeypatch.setenv("TWINWIDTH_BUDGET", "50000000")
    code = main(["roundtrip", "--mincol", str(sat_cnf)])
    assert "chromatic_number: 6" in capsys.readouterr().out
    assert code == 0


def test_report_reproducible_modulo_wall_time(sat_cnf, capsys):
    main(["roundtrip", "--mincol", str(sat_cnf)])
    first = capsys.readouterr().out
    main(["roundtrip", "--mincol", str(sat_cnf)])
    second = capsys.readouterr().out
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("wall_time")]
    assert strip(first) == strip(second)


def test_main_runs_many_commands_in_one_process(tmp_path, monkeypatch, capsys):
    """main keeps nothing from one call to the next: each report, minus its
    wall_time line, equals the report of the same command in a fresh process."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TWINWIDTH_BUDGET", raising=False)
    (tmp_path / "nae.cnf").write_text(DEMO_NAE)
    (tmp_path / "c5.tgf").write_text("tgf 5 5 0\nb 1 2\nb 2 3\nb 3 4\nb 4 5\nb 1 5\n")
    env = {key: value for key, value in os.environ.items() if key != "TWINWIDTH_BUDGET"}
    env["PYTHONPATH"] = str(Path(twinwidth.cli.__file__).parents[1])
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("wall_time")]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, strip(out), err

    def alone(argv):
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from twinwidth.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], capture_output=True, text=True, env=env, check=False)
        return run.returncode, strip(run.stdout), run.stderr

    sequences = [
        (["reduce", "3col", "nae.cnf", "--k", "5"], ["reduce", "3col", "nae.cnf"]),
        (["chromatic", "c5.tgf", "--budget", "0"], ["chromatic", "c5.tgf"]),
        (["reduce", "3col", "--k", "5"], ["reduce", "3col", "nae.cnf"]),  # no cnf: usage error
    ]
    reports = []
    for argv_seq in sequences:
        for argv in argv_seq:
            report = in_process(argv)
            assert report == alone(argv)
            reports.append(report)
    (_, k5, _), (_, k3, _), (_, skip, _), (_, chi, _) = reports[:4]
    assert "k: 5" in k5 and not any(line.startswith("k:") for line in k3)
    assert any(line.startswith("SKIP: budget exceeded") for line in skip)
    assert "chromatic_number: 3" in chi
    assert [code for code, _, _ in reports[4:]] == [2, 0]
    assert "required: cnf" in reports[4][2]


_VERIFY = """\
command: verify-sequence g.tgf s.seq
N: 104
steps: 103
width.max: 3
width.argmax_step: 4
"""
_ROUNDTRIP_MINCOL = """\
command: roundtrip --mincol demo.cnf
n: 3
m: 2
color_budget: 6
N: 104
edges: 516
width.max: 3
width.argmax_step: 4
sequence_ok_at_3: True
satisfiable: True
"""

GOLDEN = [
    pytest.param(["reduce", "mincol", "demo.cnf"], 0, """\
command: reduce mincol demo.cnf
n: 3
m: 2
color_budget: 6
N: 104
edges: 516
width.max: 3
width.argmax_step: 4
sequence_ok_at_3: True
status: ok
""", id="reduce-mincol"),
    pytest.param(["reduce", "3col", "nae.cnf"], 0, """\
command: reduce 3col nae.cnf
n: 7
m: 8
N: 91
edges: 173
width.max: 4
width.argmax_step: 28
sequence_ok_at_4: True
status: ok
""", id="reduce-3col"),
    pytest.param(["reduce", "3col", "nae.cnf", "--k", "5"], 0, """\
command: reduce 3col nae.cnf
n: 7
m: 8
k: 5
N: 93
edges: 356
width.max: 4
width.argmax_step: 29
sequence_ok_at_4: True
status: ok
""", id="reduce-3col-k5"),
    pytest.param(["verify-sequence", "g.tgf", "s.seq", "--max-width", "3"], 0, _VERIFY + """\
sequence_ok_at_3: True
status: ok
""", id="verify-pass"),
    pytest.param(["verify-sequence", "g.tgf", "s.seq", "--max-width", "2"], 1, _VERIFY + """\
sequence_ok_at_2: False
FAIL: width 3 exceeds bound 2
status: FAILED
""", id="verify-fail"),
    pytest.param(["tww-exact", "p4.tgf"], 0, """\
command: tww-exact p4.tgf
N: 4
twin_width: 1
status: ok
""", id="tww-exact"),
    pytest.param(["chromatic", "p4.tgf"], 0, """\
command: chromatic p4.tgf
N: 4
chromatic_number: 2
status: ok
""", id="chromatic"),
    # greedy coloring and clique bound meet at 2, so no search spends the budget
    pytest.param(["chromatic", "p4.tgf", "--budget", "0"], 0, """\
command: chromatic p4.tgf
N: 4
chromatic_number: 2
status: ok
""", id="chromatic-budget-0"),
    pytest.param(["sat", "demo.cnf"], 0, """\
command: sat demo.cnf
n: 3
m: 2
satisfiable: True
assignment: -1 -2 -3
status: ok
""", id="sat"),
    pytest.param(["nae", "nae.cnf"], 0, """\
command: nae nae.cnf
n: 7
m: 8
satisfiable: True
assignment: -1 -2 -3 -4 5 -6 -7
status: ok
""", id="nae"),
    pytest.param(["roundtrip", "--mincol", "demo.cnf"], 0, _ROUNDTRIP_MINCOL + """\
colorable_6: True
oracle_witness_roundtrip: ok
forward_backward_roundtrip: ok
chromatic_number: 6
status: ok
""", id="roundtrip-mincol"),
    pytest.param(["roundtrip", "--3col", "nae.cnf"], 0, """\
command: roundtrip --3col nae.cnf
n: 7
m: 8
N: 91
edges: 173
width.max: 4
width.argmax_step: 28
sequence_ok_at_4: True
satisfiable: True
colorable_3: True
oracle_witness_roundtrip: ok
forward_backward_roundtrip: ok
status: ok
""", id="roundtrip-3col"),
    pytest.param(["roundtrip", "--mincol", "demo.cnf", "--budget", "10"], 0, _ROUNDTRIP_MINCOL + """\
SKIP: 6-colorability oracle over budget
forward_backward_roundtrip: ok
SKIP: chromatic number oracle over budget
status: ok
""", id="roundtrip-mincol-budget"),
    pytest.param(["roundtrip", "--mincol", "unsat.cnf"], 0, """\
command: roundtrip --mincol unsat.cnf
n: 2
m: 4
color_budget: 4
N: 72
edges: 216
width.max: 3
width.argmax_step: 4
sequence_ok_at_3: True
satisfiable: False
colorable_4: False
status: ok
""", id="roundtrip-mincol-unsat"),
]


@pytest.mark.parametrize("argv, code, expected", GOLDEN)
def test_golden_report(tmp_path, monkeypatch, capsys, argv, code, expected):
    """Full stdout of each command on the demo inputs, minus wall_time lines."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo.cnf").write_text(DEMO_SAT)
    (tmp_path / "nae.cnf").write_text(DEMO_NAE)
    (tmp_path / "p4.tgf").write_text(P4)
    (tmp_path / "unsat.cnf").write_text(UNSAT)
    assert main(["reduce", "mincol", "demo.cnf", "--graph", "g.tgf", "--sequence", "s.seq"]) == 0
    capsys.readouterr()
    assert main(argv) == code
    out = capsys.readouterr().out
    assert "".join(line + "\n" for line in out.splitlines()
                   if not line.startswith("wall_time")) == expected
