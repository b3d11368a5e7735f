"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately written from the definitions, in a
different style from the package (flag scans instead of counters, raw
enumeration instead of branch and bound), so agreement is meaningful.
The first three functions are not references but small helpers that only
tests call.
"""

import itertools

from twinwidth import Partition, Trigraph, quotient
from twinwidth.cnf import Dialect, literal_value


def max_red_degree(g):
    """The largest red degree of a trigraph, read from its red neighbor sets."""
    return max(map(len, g.red_adj), default=0)


def redify(g):
    """Reclassify every black edge as red (cannot decrease twin-width)."""
    return Trigraph(g.n, (), g.black | g.red, g.labels)


def pair_colors(state):
    """A ContractionState's quotient edges keyed by representative pair, as 'black'/'red'."""
    out = {}
    for p in state.live:
        out.update(((p, q), "black") for q in state.black_adj[p] if p < q)
        out.update(((p, q), "red") for q in state.red_adj[p] if p < q)
    return out


def quotient_by_definition(g, parts):
    """Edge colors of the quotient, by scanning every cross pair.

    Returns {(i, j): 'black' | 'red'} on part indices (i < j).
    """
    out = {}
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            any_red = any_black = any_nonadj = False
            for u in parts[i]:
                for v in parts[j]:
                    e = (u, v) if u < v else (v, u)
                    if e in g.red:
                        any_red = True
                    elif e in g.black:
                        any_black = True
                    else:
                        any_nonadj = True
            if any_red or (any_black and any_nonadj):
                out[(i, j)] = "red"
            elif any_black:
                out[(i, j)] = "black"
    return out


def brute_k_colorable(g, k):
    """Exhaustive product over all color vectors.  Tiny graphs only."""
    if g.n == 0:
        return True
    for colors in itertools.product(range(1, k + 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.black):
            return True
    return False


def brute_chromatic(g):
    if g.n == 0:
        return 0
    k = 1
    while not brute_k_colorable(g, k):
        k += 1
    return k


def greedy_clique_by_scan(g):
    """The greedy clique as first written: every seed scans all n vertices.

    Seeds are the first 24 vertices by descending degree, ties by id;
    each clique takes every later vertex in that order that is adjacent
    to all of its members, and the first largest clique wins.
    """
    order = sorted(range(g.n), key=lambda v: (-len(g.black_adj[v]), v))
    best = []
    for seed in order[:min(g.n, 24)]:
        clique = [seed]
        for v in order:
            if v != seed and all(v in g.black_adj[u] for u in clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return best


def brute_twinwidth(g):
    """Plain recursion over every merge order, bounded by best-so-far."""

    def best_from(parts, cap):
        if len(parts) == 1:
            return 0
        best = cap
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                trial = [p for t, p in enumerate(parts) if t not in (i, j)]
                trial.append(parts[i] | parts[j])
                w = max_red_degree(quotient(g, Partition(g.n, trial)))
                if w >= best:
                    continue
                sub = best_from(trial, best)
                best = min(best, max(w, sub))
        return best

    init = max_red_degree(g)
    return max(init, best_from([frozenset([v]) for v in range(g.n)], g.n))


def brute_sat(formula):
    """First satisfying assignment in lexicographic order (False < True)."""
    n = formula.n_vars
    for bits in itertools.product((False, True), repeat=n):
        a = {v: bits[v - 1] for v in range(1, n + 1)}
        if all(any(literal_value(l, a) for l in c) for c in formula.clauses):
            return a
    return None


def brute_nae(formula):
    n = formula.n_vars
    for bits in itertools.product((False, True), repeat=n):
        a = {v: bits[v - 1] for v in range(1, n + 1)}
        ok = True
        for clause in formula.clauses:
            vals = [literal_value(l, a) for l in clause]
            if all(vals) or not any(vals):
                ok = False
                break
        if ok:
            return a
    return None


def backtrack_solve(formula):
    """Recursive backtracking in variable-index order, False before True.

    A clause is checked once all its variables are set, so the first
    model found is the lexicographically smallest.  Moderate n only.
    """
    n = formula.n_vars
    nae = formula.dialect is Dialect.NAE_THREE_SAT
    last = {}  # variable -> the clauses it is the largest variable of
    for c in formula.clauses:
        last.setdefault(max(map(abs, c)), []).append([(abs(l), l > 0) for l in c])
    values = {}

    def dead(clause):
        vals = [values[v] == sign for v, sign in clause]
        return all(vals) or not any(vals) if nae else not any(vals)

    def rec(var):
        if var > n:
            return dict(values)
        for choice in (False, True):
            values[var] = choice
            if not any(dead(c) for c in last.get(var, ())):
                model = rec(var + 1)
                if model is not None:
                    return model
        del values[var]
        return None

    return rec(1)


def all_graphs(n):
    """Every labeled plain graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Trigraph(n, [e for t, e in enumerate(pairs) if bits >> t & 1])


def all_partitions(n, max_parts=None):
    """Every set partition of 0..n-1 (restricted growth strings)."""
    def grow(prefix, used):
        idx = len(prefix)
        if idx == n:
            parts = [[] for _ in range(used)]
            for v, p in enumerate(prefix):
                parts[p].append(v)
            yield parts
            return
        for p in range(used):
            yield from grow(prefix + [p], used)
        if max_parts is None or used < max_parts:
            yield from grow(prefix + [used], used + 1)

    yield from grow([], 0)


def random_cograph(n, rng):
    """A cograph built from a random cotree over n leaves."""
    if n == 1:
        return Trigraph(1)
    split = rng.randint(1, n - 1)
    left = random_cograph(split, rng)
    right = random_cograph(n - split, rng)
    edges = list(left.black)
    edges.extend((u + left.n, v + left.n) for u, v in right.black)
    if rng.random() < 0.5:  # join
        edges.extend((u, v + left.n) for u in range(left.n) for v in range(right.n))
    return Trigraph(n, edges)
