import random

import pytest

from corpus import random_formula
from twinwidth import CnfFormula, Dialect, nae_satisfies, satisfies
from twinwidth.errors import TwinwidthError


def test_valid_formula():
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)), Dialect.THREE_SAT)
    assert f.n_clauses == 2
    assert f.occurrences(1) == [(1, True), (2, False)]


def test_repeated_literal_allowed_in_threesat():
    f = CnfFormula(2, ((1, 1, 2),), Dialect.THREE_SAT)
    assert f.occurrences(1) == [(1, True)]


def test_nae_needs_distinct_variables():
    with pytest.raises(TwinwidthError, match="repeats a variable"):
        CnfFormula(2, ((1, 1, 2),), Dialect.NAE_THREE_SAT)


def test_tautological_clause_rejected():
    with pytest.raises(TwinwidthError, match="contains a variable and its negation"):
        CnfFormula(2, ((1, -1, 2),), Dialect.THREE_SAT)


def test_every_variable_must_occur():
    with pytest.raises(TwinwidthError, match="variable 4 occurs in no clause"):
        CnfFormula(4, ((1, 2, 3),), Dialect.THREE_SAT)


def test_range_and_arity():
    with pytest.raises(TwinwidthError, match="literal 3 out of range for 2 variables"):
        CnfFormula(2, ((1, 2, 3),), Dialect.THREE_SAT)
    with pytest.raises(TwinwidthError, match="does not have exactly 3 literals"):
        CnfFormula(2, ((1, 2),), Dialect.THREE_SAT)
    with pytest.raises(TwinwidthError, match="non-negative"):
        CnfFormula(-1, ())


def test_evaluation():
    f = CnfFormula(3, ((1, -2, 3),), Dialect.THREE_SAT)
    assert satisfies(f, {1: True, 2: True, 3: False})
    assert not satisfies(f, {1: False, 2: True, 3: False})
    g = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    assert nae_satisfies(g, {1: True, 2: False, 3: False})
    assert not nae_satisfies(g, {1: True, 2: True, 3: True})


def test_random_formula_is_always_valid():
    rng = random.Random(2)
    for _ in range(200):
        if rng.random() < 0.5:
            n = rng.randint(2, 6)
            m = rng.randint(max(1, (n + 2) // 3), 8)
            f = random_formula(n, m, Dialect.THREE_SAT, rng)
        else:
            n = rng.randint(3, 7)
            m = rng.randint(max(1, (n + 2) // 3), 8)
            f = random_formula(n, m, Dialect.NAE_THREE_SAT, rng)
        assert f.n_vars == n and f.n_clauses == m  # validation ran in the constructor


def test_random_formula_guards():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_formula(7, 2, Dialect.THREE_SAT, rng)
    with pytest.raises(ValueError):
        random_formula(2, 4, Dialect.NAE_THREE_SAT, rng)
