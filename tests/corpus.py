"""Formula corpora for the equivalence and certificate tests."""

import random
from itertools import combinations, combinations_with_replacement, permutations

from twinwidth import CnfFormula, Dialect


def random_formula(n_vars: int, n_clauses: int, dialect: Dialect,
                   rng: random.Random) -> CnfFormula:
    """Draw a valid random formula (every variable covered).

    Needs 3 * n_clauses >= n_vars so that coverage is possible, and
    n_vars >= 3 for the NAE dialect.
    """
    if 3 * n_clauses < n_vars:
        raise ValueError("too few clauses to cover every variable")
    if dialect is Dialect.NAE_THREE_SAT and n_vars < 3:
        raise ValueError("NAE clauses need three distinct variables")
    # Pre-place each variable in a random clause slot, then fill the rest.
    slots: list[list[int]] = [[] for _ in range(n_clauses)]
    variables = list(range(1, n_vars + 1))
    rng.shuffle(variables)
    open_slots = [j for j in range(n_clauses) for _ in range(3)]
    rng.shuffle(open_slots)
    for var, slot in zip(variables, open_slots):
        slots[slot].append(var)
    clauses = []
    for j in range(n_clauses):
        chosen = list(slots[j])
        while len(chosen) < 3:
            if dialect is Dialect.NAE_THREE_SAT:
                var = rng.choice([v for v in range(1, n_vars + 1) if v not in chosen])
            else:
                var = rng.randint(1, n_vars)
            chosen.append(var)
        rng.shuffle(chosen)
        sign = {}
        for var in chosen:
            if var not in sign:
                sign[var] = rng.choice((1, -1))
        clauses.append(tuple(sign[var] * var for var in chosen))
    return CnfFormula(n_vars, tuple(clauses), dialect)


def threesat_clauses(n):
    """All non-tautological 3-literal clause multisets over n variables."""
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    out = set()
    for c in combinations_with_replacement(lits, 3):
        if {abs(l) for l in c if l > 0} & {abs(l) for l in c if l < 0}:
            continue
        out.add(tuple(sorted(c)))
    return sorted(out)


def _canonical_key(clauses, n):
    best = None
    for perm in permutations(range(1, n + 1)):
        for flips in range(1 << n):
            mapped = []
            for clause in clauses:
                lits = []
                for l in clause:
                    sign = 1 if (l > 0) == (flips >> (abs(l) - 1) & 1 == 0) else -1
                    lits.append(sign * perm[abs(l) - 1])
                mapped.append(tuple(sorted(lits)))
            key = tuple(sorted(mapped))
            if best is None or key < best:
                best = key
    return best


def exhaustive_threesat_corpus(n_values=(2, 3), max_m=3):
    """Every clause set up to variable renaming, polarity flips and clause order."""
    corpus = []
    for n in n_values:
        clauses = threesat_clauses(n)
        seen = set()
        for m in range(1, max_m + 1):
            for subset in combinations(clauses, m):
                if {abs(l) for c in subset for l in c} != set(range(1, n + 1)):
                    continue
                key = _canonical_key(subset, n)
                if key in seen:
                    continue
                seen.add(key)
                corpus.append(CnfFormula(n, subset, Dialect.THREE_SAT))
    return corpus


def random_threesat_corpus(count, seed, n_range=(2, 3), m_range=(1, 3)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        m = rng.randint(max(m_range[0], (n + 2) // 3), m_range[1])
        out.append(random_formula(n, m, Dialect.THREE_SAT, rng))
    return out


def random_nae_corpus(count, seed, n_range=(3, 7), m_range=(1, 8)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        m = rng.randint(max(m_range[0], (n + 2) // 3), m_range[1])
        out.append(random_formula(n, m, Dialect.NAE_THREE_SAT, rng))
    return out


def nae_unsat_formula():
    """Four clauses on three variables ruling out every assignment pair."""
    return CnfFormula(3, ((1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3)),
                      Dialect.NAE_THREE_SAT)


def structured_nae_corpus():
    return [
        CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT),
        CnfFormula(3, ((1, 2, 3), (-1, -2, -3)), Dialect.NAE_THREE_SAT),
        CnfFormula(4, ((1, 2, 3), (2, 3, 4)), Dialect.NAE_THREE_SAT),
        CnfFormula(5, ((1, 2, 3), (3, 4, 5), (-1, -3, 5)), Dialect.NAE_THREE_SAT),
        CnfFormula(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)), Dialect.NAE_THREE_SAT),
        nae_unsat_formula(),
        CnfFormula(5, ((1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3), (3, 4, 5)),
                   Dialect.NAE_THREE_SAT),
    ]
