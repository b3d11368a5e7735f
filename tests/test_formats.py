import random
import time
import tracemalloc

import pytest
from reference import (edges, mutate_sequence_text, mutate_trigraph_text, read_outcome,
                       read_sequence_by_helpers, read_trigraph_two_pass,
                       trigraph, write_trigraph_by_lines)

from corpus import random_formula
from twinwidth import Coloring, Dialect, build_mincol, sequence_from_vertex_merges
from twinwidth.errors import ParseError
from twinwidth.formats import (parse_dimacs_cnf, read_sequence, read_trigraph,
                               write_assignment, write_coloring, write_roles,
                               write_sequence, write_trigraph)
from twinwidth.trigraph import edge_count


def test_trigraph_round_trip_bit_exact():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        cut = len(pairs) // 3
        g = trigraph(n, pairs[:cut], pairs[cut:cut + cut // 2])
        text = write_trigraph(g)
        h = read_trigraph(text)
        assert (h.n, edges(h.black_adj), edges(h.red_adj)) == (g.n, edges(g.black_adj), edges(g.red_adj))
        assert write_trigraph(h) == text


def test_trigraph_writer_matches_line_by_line_reference():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(257, 700)
        named = rng.sample(range(n), n - rng.randint(1, 40))  # the rest stay isolated
        pairs = {tuple(sorted(rng.sample(named, 2))) for _ in range(rng.randint(n, 4 * n))}
        pairs = sorted(pairs)
        rng.shuffle(pairs)
        cut = rng.randint(1, len(pairs) - 1)
        g = trigraph(n, pairs[:cut], pairs[cut:])
        assert edges(g.red_adj) and any(not (b or r) for b, r in zip(g.black_adj, g.red_adj))
        assert write_trigraph(g) == write_trigraph_by_lines(g)


def test_trigraph_header_alone_allocates_little():
    """Neighbor lists are made for the vertices that edge lines name, so a
    16-byte header declaring 2^20 vertices costs the two tables of n
    entries and the graph's own tuples, not two lists per vertex."""
    tracemalloc.start()
    try:
        g = read_trigraph("tgf 1048576 0 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 1048576 and not edges(g.black_adj) and not edges(g.red_adj)
    assert peak < 40 * 2**20, peak


def test_trigraph_reader_lets_the_lines_go_before_freezing():
    """The edge lines are freed when the loop over them ends, so reading
    the 1.8 MB text of mincol n = 15, m = 60 (159 240 edges) peaks at the
    graph plus its neighbor lists: 14.3 MiB, where a reader that holds
    the lines and a copy of them until the end peaks at 23.1 MiB.  The
    bound leaves about a quarter for allocator and version drift."""
    text = write_trigraph(build_mincol(random_formula(15, 60, Dialect.THREE_SAT,
                                                      random.Random(0))).graph)
    tracemalloc.start()
    try:
        g = read_trigraph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 5490 and edge_count(g.black_adj) == 159_240
    assert peak < 18 * 2**20, peak


def test_trigraph_plain_graph_has_no_red_lines():
    g = trigraph(3, [(0, 1)])
    text = write_trigraph(g)
    assert text == "tgf 3 1 0\nb 1 2\n"


def test_trigraph_comments_and_errors():
    g = read_trigraph("# a note\ntgf 2 1 0\nb 1 2  # inline\n")
    assert edges(g.black_adj) == {(0, 1)}
    with pytest.raises(ParseError):
        read_trigraph("b 1 2\n")
    with pytest.raises(ParseError):
        read_trigraph("tgf 2 2 0\nb 1 2\n")
    with pytest.raises(ParseError):
        read_trigraph("tgf 2 1 0\nq 1 2\n")
    with pytest.raises(ParseError, match="'b 1 3'"):
        read_trigraph("tgf 2 1 0\nb 1 3\n")
    with pytest.raises(ParseError):
        read_trigraph("tgf 2 1 0\nb 2 2\n")
    with pytest.raises(ParseError, match="pair 1 2 is both a black and a red edge"):
        read_trigraph("tgf 2 1 1\nb 1 2\nr 2 1\n")
    # a pair is on one edge line only, whatever its orientation or color
    with pytest.raises(ParseError, match="pair 1 2 is on two edge lines"):
        read_trigraph("tgf 2 2 0\nb 1 2\nb 2 1\n")
    with pytest.raises(ParseError, match="pair 2 3 is on two edge lines"):
        read_trigraph("tgf 3 1 2\nb 1 2\nr 3 2\nr 3 2\n")
    with pytest.raises(ParseError, match="pair 1 2 is both a black and a red edge"):
        read_trigraph("tgf 2 2 1\nb 1 2\nb 1 2\nr 1 2\n")


def test_trigraph_non_integer_id():
    with pytest.raises(ParseError, match="^malformed edge line: 'b 1 x'$"):
        read_trigraph("tgf 2 1 0\nb 1 x\n")


# (text, the start of the error both readers raise, or None when both read a graph):
# where faults meet in one file, the first one named is the reference's
TRIGRAPH_TEXTS = [
    ("tgf 3 2 0\nb 1 2\nb 2 1\nb 1 x\n", "ParseError: malformed edge line: 'b 1 x'"),
    ("tgf 3 2 1\nb 1 2\nb 1 2\nr 2 1\n", "ParseError: pair 1 2 is both a black and a red edge"),
    ("tgf 3 1 0\nb 1 2\nr 2 1\n", "ParseError: header declares 1 black / 0 red edges, found 1 / 1"),
    ("tgf 3 2 2\nb 3 1\nr 2 3\nb 2 3\nr 1 3\n",
     "ParseError: pair 1 3 is both a black and a red edge"),
    ("tgf 4 3 0\nb 3 4\nb 2 1\nb 4 3\nb 1 2\n", "ParseError: header declares 3 black"),
    ("tgf 4 4 0\nb 3 4\nb 2 1\nb 4 3\nb 1 2\n", "ParseError: pair 1 2 is on two edge lines"),
    ("tgf 3 1 0\nb 3 4\nb 1 2 3\n", "ParseError: edge line 'b 3 4' does not join"),
    ("tgf -1 0 0\n", "ParseError: vertex count must be non-negative, got -1"),
    ("tgf -1 1 0\nb 1 2\n", "ParseError: vertex count must be non-negative, got -1"),
    ("tgf 0 0 0\n", None),
    ("tgf 3 1 0\nb +3 01\n", None),
    # a repeat mention of a token reuses its id; a new spelling is converted and checked
    ("tgf 3 1 0\nb 1 2\nb 2 +2\n", "ParseError: edge line 'b 2 +2' does not join"),
    ("tgf 4 3 0\nb 1 2\nb 3 +2\nb 2 +2\n", "ParseError: edge line 'b 2 +2' does not join"),
    ("tgf 3 2 0\nb 01 2\nb 1 3\n", None),
    ("tgf 3 1 0\nb 1 2\nb 1 x\n", "ParseError: malformed edge line: 'b 1 x'"),
    ("tgf\t3\t1\t1\nb\t1\t3\nr 2\t3 # note\n", None),
    # the tag is the whole first token, not a prefix of it
    ("tgfoo 2 1 0\nb 1 2\n", "ParseError: missing 'tgf' header"),
    ("tgf3 0 0 0\n", "ParseError: missing 'tgf' header"),
]


@pytest.mark.parametrize("text, error", TRIGRAPH_TEXTS)
def test_trigraph_reader_matches_two_pass_reference(text, error):
    outcome = read_outcome(read_trigraph, text)
    assert outcome == read_outcome(read_trigraph_two_pass, text)
    assert outcome.startswith(error) if error else isinstance(outcome, tuple)


def test_trigraph_reader_matches_two_pass_reference_on_mutated_files():
    rng = random.Random(15)
    outcomes = []
    for _ in range(400):
        n = rng.randint(0, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        cut = rng.randint(0, len(pairs))
        text = mutate_trigraph_text(write_trigraph(trigraph(n, pairs[:cut], pairs[cut:])), rng)
        outcomes.append(read_outcome(read_trigraph, text))
        assert outcomes[-1] == read_outcome(read_trigraph_two_pass, text), text
    errors = [outcome for outcome in outcomes if isinstance(outcome, str)]
    assert len(errors) < len(outcomes)
    for fault in ["missing 'tgf'", "malformed header", "malformed edge line", "does not join",
                  "header declares", "both a black and a red", "on two edge lines", "non-negative"]:
        assert any(fault in error for error in errors), fault


def test_sequence_round_trip():
    seq = sequence_from_vertex_merges(5, [(0, 1), (2, 3), (0, 4), (0, 2)])
    text = write_sequence(seq)
    assert text.splitlines()[0] == "seq 5 4"
    back = read_sequence(text)
    assert back == seq
    assert write_sequence(back) == text
    with pytest.raises(ParseError):
        read_sequence("seq 3 2\nm 1 2\n")
    with pytest.raises(ParseError, match=r"merge \(4,1\)"):
        read_sequence("seq 3 1\nm 4 1\n")
    with pytest.raises(ParseError, match=r"merge \(2,1\) names two vertices already"):
        read_sequence("seq 3 2\nm 1 2\nm 2 1\n")
    with pytest.raises(ParseError):
        read_sequence("seq 3 1\nm 1 x\n")
    with pytest.raises(ParseError, match="non-negative"):
        read_sequence("seq -1 0\n")
    with pytest.raises(ParseError, match="malformed merge line: 'x 1 2'"):
        read_sequence("seq 2 1\nx 1 2\n")
    # merge lines may name any vertex of each part
    assert read_sequence("seq 3 2\nm 1 2\nm 2 3\n") == \
        sequence_from_vertex_merges(3, [(0, 1), (0, 2)])
    assert write_sequence(read_sequence("seq 4 3\nm 4 3\nm 2 4\nm 3 1\n")) == \
        "seq 4 3\nm 3 4\nm 2 3\nm 1 2\n"


# (text, the start of the error both readers raise, or None when both read a sequence)
SEQUENCE_TEXTS = [
    ("seq\t3\t2\nm\t1 2\nm 2\t3\n", None),
    ("seq 3 2\nm +1 02\nm 01 +3\n", None),
    ("# a script\nseq 3 2 # two steps\nm 1 2 # first\n#m 1 3\nm 3 1\n", None),
    ("seq 0 0\n", None),
    ("seq 3 1\nm 1\n", "ParseError: malformed merge line: 'm 1'"),
    ("seq 3 1\nm 1 2 3\n", "ParseError: malformed merge line: 'm 1 2 3'"),
    ("seq 3 1\nM 1 2\n", "ParseError: malformed merge line: 'M 1 2'"),
    ("seq 3 1\nm x 3\n", "ParseError: malformed merge line: 'm x 3'"),
    ("seq 3 1\nm 1 2\nm 2 3\n", "ParseError: header declares 1 steps, found 2"),
    ("seq 3 2\nm 1 2\n", "ParseError: header declares 2 steps, found 1"),
    ("seq 3 1\nm 0 2\n", "ParseError: merge (0,2) out of range for n=3"),
    ("seq 3 2\nm 1 2\nm 2 4\n", "ParseError: merge (2,4) out of range for n=3"),
    ("seq 4 2\nm 1 2\nm 2 1\n", "ParseError: merge (2,1) names two vertices already"),
    ("seq 4 3\nm 1 2\nm 3 4\nm 4 3\n", "ParseError: merge (4,3) names two vertices already"),
    ("seq 3 1\nm 1 1\n", "ParseError: merge (1,1) names two vertices already"),
    ("seq -1 0\n", "ParseError: vertex count must be non-negative, got -1"),
    ("seq 3\n", "ParseError: malformed header: 'seq 3'"),
    ("m 1 2\n", "ParseError: missing 'seq' header"),
    ("seqx 2 1\nm 1 2\n", "ParseError: missing 'seq' header"),
]


@pytest.mark.parametrize("text, error", SEQUENCE_TEXTS)
def test_sequence_reader_matches_reference(text, error):
    outcome = read_outcome(read_sequence, text)
    assert outcome == read_outcome(read_sequence_by_helpers, text)
    assert outcome.startswith(error) if error else not isinstance(outcome, str)


def test_sequence_reader_matches_reference_on_mutated_files():
    rng = random.Random(19)
    outcomes = []
    for _ in range(400):
        n = rng.randint(1, 9)
        parts, merges = [[v] for v in range(n)], []
        for _ in range(rng.randint(0, n - 1)):
            rng.shuffle(parts)
            first, second = parts.pop(), parts.pop()
            merges.append((rng.choice(first), rng.choice(second)))  # any vertex of each part
            parts.append(first + second)
        script = "".join(f"m {a + 1} {b + 1}\n" for a, b in merges)
        text = mutate_sequence_text(f"seq {n} {len(merges)}\n{script}", rng)
        outcomes.append(read_outcome(read_sequence, text))
        assert outcomes[-1] == read_outcome(read_sequence_by_helpers, text), text
    errors = [outcome for outcome in outcomes if isinstance(outcome, str)]
    assert len(errors) < len(outcomes)
    for fault in ["missing 'seq'", "malformed header", "malformed merge line", "out of range",
                  "header declares", "already in the same part", "non-negative"]:
        assert any(fault in error for error in errors), fault


def test_coloring_round_trip():
    assert write_coloring(Coloring((2, 1, 3, 1), 3)) == "1 2\n2 1\n3 3\n4 1\n"


def test_assignment_round_trip():
    assert write_assignment({3: True, 1: True, 2: False}) == "1 1\n2 0\n3 1\n"


def test_roles_round_trip():
    g = trigraph(3, [(0, 1)], labels={2: "T 1 u", 0: "A 2 5", 1: "Z"})
    assert write_roles(g) == "1 A 2 5\n2 Z\n3 T 1 u\n"
    assert write_roles(trigraph(2)) == ""


def test_parse_dimacs_demo():
    text = "c demo\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    f = parse_dimacs_cnf(text)
    assert f.n_vars == 3
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))
    assert f.dialect is Dialect.THREE_SAT


def test_parse_dimacs_dialect_flag_not_content():
    text = "p cnf 3 1\n1 2 3 0\n"
    assert parse_dimacs_cnf(text, Dialect.NAE_THREE_SAT).dialect is Dialect.NAE_THREE_SAT
    with pytest.raises(ParseError, match="repeats a variable"):
        parse_dimacs_cnf("p cnf 2 1\n1 1 2 0\n", Dialect.NAE_THREE_SAT)


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs_cnf("p cnf 3 2\n1 -2 3 0\n")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_dimacs_cnf("p cnf 3 1\n1 -2 0\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_dimacs_cnf("1 2 3 0\n")  # no problem line
    with pytest.raises(ParseError):
        parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(ParseError, match="^literal 9 out of range for 2 variables$"):
        parse_dimacs_cnf("p cnf 2 1\n1 2 9 0\n")
    with pytest.raises(ParseError, match="second problem line: 'p cnf 3 1'"):
        parse_dimacs_cnf("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")
    with pytest.raises(ParseError, match="second problem line: 'p cnf 3 2'"):
        parse_dimacs_cnf("p cnf 3 1\n1 2 3 0\np cnf 3 2\n")
    with pytest.raises(ParseError, match="malformed problem line: 'pq cnf 3 1'"):
        parse_dimacs_cnf("pq cnf 3 1\n1 2 3 0\n")
    with pytest.raises(ParseError, match="malformed problem line: 'p cnf x 1'"):
        parse_dimacs_cnf("p cnf x 1\n1 2 3 0\n")
    with pytest.raises(ParseError, match="malformed clause line: '1 y 3 0'"):
        parse_dimacs_cnf("p cnf 3 1\n1 y 3 0\n")


@pytest.mark.parametrize("text, dialect, message", [
    ("p cnf -1 0\n", Dialect.THREE_SAT, "variable count must be non-negative, got -1"),
    ("p cnf 2 1\n1 2 -1 0\n", Dialect.THREE_SAT,
     r"clause \(1, 2, -1\) contains a variable and its negation"),
    ("p cnf 2 1\n1 1 2 0\n", Dialect.NAE_THREE_SAT, r"NAE clause \(1, 1, 2\) repeats a variable"),
    ("p cnf 4 1\n1 2 3 0\n", Dialect.THREE_SAT, "variable 4 occurs in no clause"),
])
def test_parse_dimacs_formula_faults_are_parse_errors(text, dialect, message):
    # CnfFormula finds these; the reader raises its message again as a ParseError
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_dimacs_cnf(text, dialect)


def test_parse_dimacs_names_the_first_faulty_clause():
    # clause 1 repeats a variable and clause 2 has a literal out of range
    with pytest.raises(ParseError, match=r"^NAE clause \(1, 1, 2\) repeats a variable$"):
        parse_dimacs_cnf("p cnf 2 2\n1 1 2 0\n1 2 9 0\n", Dialect.NAE_THREE_SAT)


def test_parse_dimacs_multiline_clauses():
    f = parse_dimacs_cnf("p cnf 3 2\n1 -2\n3 0 -1\n2 -3 0\n")
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_one_line_is_not_quadratic():
    f = random_formula(200, 20_000, Dialect.THREE_SAT, random.Random(13))
    header = f"p cnf {f.n_vars} {f.n_clauses}"
    clause_lines = [" ".join(map(str, clause)) + " 0" for clause in f.clauses]
    per_line = "\n".join([header, *clause_lines]) + "\n"
    one_line = header + "\n" + " ".join(clause_lines) + "\n"
    assert len(one_line.splitlines()) == 2

    def best_parse_s(text):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            assert parse_dimacs_cnf(text) == f
            times.append(time.perf_counter() - started)
        return min(times)

    # copying the rest of the line once per clause made this 14x
    assert best_parse_s(one_line) < 3 * best_parse_s(per_line)
    with pytest.raises(ParseError, match=r"^clause \[1, -2\] does not have exactly 3 literals$"):
        parse_dimacs_cnf("p cnf 3 2\n1 2 3 0 1 -2 0\n")
    with pytest.raises(ParseError, match=r"^trailing literals without terminating 0: \[1, 2, 3\]$"):
        parse_dimacs_cnf("p cnf 3 2\n1 2 3 0 1 2 3\n")
