"""Property tests: the trigraph text format round-trips, and every reader fails cleanly.

Runs when the optional test extra (hypothesis) is installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from reference import (mutate_trigraph_text, read_outcome, read_trigraph_two_pass,  # noqa: E402
                       trigraph)
from test_cli_properties import DEMOS, mutated  # noqa: E402

from twinwidth import CnfFormula, Dialect, Trigraph  # noqa: E402
from twinwidth.errors import ParseError  # noqa: E402
from twinwidth.formats import (parse_dimacs_cnf, read_sequence,  # noqa: E402
                               read_trigraph, write_trigraph)


@st.composite
def trigraphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    colors = draw(st.lists(st.sampled_from("-br"), min_size=len(pairs), max_size=len(pairs)))
    black = [e for e, c in zip(pairs, colors) if c == "b"]
    red = [e for e, c in zip(pairs, colors) if c == "r"]
    return trigraph(n, black, red)


@settings(max_examples=200, deadline=None)
@given(trigraphs())
def test_write_read_write_is_byte_exact(g):
    text = write_trigraph(g)
    h = read_trigraph(text)
    assert write_trigraph(h) == text
    assert (h.n, h.black_adj, h.red_adj) == (g.n, g.black_adj, g.red_adj)


# Small ids only, so a header never asks for a large allocation; free
# text has no decimal digits for the same reason.
IDS = st.integers(-1, 6).map(str)
TOKENS = st.one_of(
    IDS,
    st.sampled_from(["tgf", "b", "r", "m", "#", "1_0", "٣", "+1", "-0", "1.0", ""]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
FREE = st.lists(TOKENS, max_size=5).map(" ".join)
EDGE = st.tuples(st.sampled_from("br"), *[st.integers(1, 4).map(str)] * 2).map(" ".join)


@st.composite
def trigraph_texts(draw):
    """Edge lines under a header whose counts are often the true ones, with free lines mixed in."""
    body = draw(st.lists(EDGE, max_size=8) | st.lists(EDGE | FREE, max_size=8))
    true_counts = [str(sum(line.startswith(tag + " ") for line in body)) for tag in "br"]
    counts = draw(st.just(true_counts) | st.lists(IDS, min_size=2, max_size=2))
    header = draw(st.just(" ".join(["tgf", draw(IDS), *counts])) | FREE)
    return "\n".join([header, *body])


@settings(max_examples=300, deadline=None)
@given(trigraph_texts())
def test_reader_returns_a_trigraph_or_a_parse_error(text):
    try:
        g = read_trigraph(text)
    except ParseError:
        return
    assert isinstance(g, Trigraph)


@settings(max_examples=300, deadline=None)
@given(trigraph_texts() | st.builds(mutate_trigraph_text, trigraphs().map(write_trigraph),
                                    st.randoms(use_true_random=False)))
def test_reader_matches_two_pass_reference(text):
    assert read_outcome(read_trigraph, text) == read_outcome(read_trigraph_two_pass, text)


# Tokens of the other formats, including ones that only look like
# integers to a careless check (`--5`, a superscript two).  Lines often
# start with an id, as every line of these formats does.
OTHER_TOKENS = st.sampled_from(["-1", "0", "1", "2", "3", "--5", "\u00b2", "x", "b", "m",
                                "p", "cnf", "seq", "#", "c", "A", "u"])
OTHER_LINES = st.lists(OTHER_TOKENS, max_size=5).map(" ".join)
ID_LINES = st.tuples(IDS, OTHER_LINES).map(" ".join)
READERS = {
    "sequence": read_sequence,
    "cnf": parse_dimacs_cnf,
    "nae": lambda text: parse_dimacs_cnf(text, Dialect.NAE_THREE_SAT),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=200, deadline=None)
@given(text=st.lists(ID_LINES | OTHER_LINES, max_size=6).map("\n".join))
def test_other_readers_return_a_value_or_a_parse_error(reader, text):
    try:
        READERS[reader](text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=st.sampled_from([DEMOS["demo.cnf"], DEMOS["nae.cnf"]]).flatmap(mutated),
       dialect=st.sampled_from(Dialect))
def test_dimacs_reader_returns_a_formula_or_a_parse_error(text, dialect):
    # the formula's own checks (counts, negations, repeats, unused variables) included
    try:
        f = parse_dimacs_cnf(text, dialect)
    except ParseError:
        return
    assert isinstance(f, CnfFormula) and f.dialect is dialect
