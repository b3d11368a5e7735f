"""Property test: the SAT and NAE solvers against exhaustive enumeration.

Runs when the optional test extra (hypothesis) is installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from reference import brute_nae, brute_sat  # noqa: E402
from twinwidth import CnfFormula, Dialect, solve_nae, solve_sat  # noqa: E402


@st.composite
def formulas(draw, dialect):
    """Up to 10 variables; 3-SAT clauses often repeat a literal, as in (x, x, y)."""
    nae = dialect is Dialect.NAE_THREE_SAT
    n = draw(st.integers(3 if nae else 1, 10))
    shape = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=nae)
    clauses = []
    for variables in draw(st.lists(shape, min_size=1, max_size=4 * n)):
        sign = {v: draw(st.sampled_from((1, -1))) for v in sorted(set(variables))}
        clauses.append([sign[v] * v for v in variables])
    used = sorted({abs(lit) for c in clauses for lit in c})  # every variable must occur
    rename = {v: i for i, v in enumerate(used, 1)}
    return CnfFormula(len(used), tuple(tuple(rename[abs(lit)] * (1 if lit > 0 else -1)
                                             for lit in c) for c in clauses), dialect)


@settings(max_examples=200, deadline=None)
@given(formulas(Dialect.THREE_SAT))
@example(CnfFormula(1, ((1, 1, 1),)))
@example(CnfFormula(1, ((-1, -1, -1),)))
@example(CnfFormula(2, ((1, 1, 2), (-1, -1, -1))))
@example(CnfFormula(2, ((-2, -2, -2), (1, 1, 2), (-1, 2, 2))))
def test_solve_sat_is_first_model_in_enumeration_order(formula):
    assert solve_sat(formula) == brute_sat(formula)


@settings(max_examples=200, deadline=None)
@given(formulas(Dialect.NAE_THREE_SAT))
@example(CnfFormula(3, ((1, 2, 3), (-1, -2, -3)), Dialect.NAE_THREE_SAT))
def test_solve_nae_is_first_model_in_enumeration_order(formula):
    assert solve_nae(formula) == brute_nae(formula)
