"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately written from the definitions, in a
different style from the package (flag scans instead of counters, raw
enumeration instead of branch and bound), so agreement is meaningful.
The exceptions are `exact_twinwidth_by_copies`,
`read_trigraph_two_pass`, `write_trigraph_by_lines`,
`read_sequence_by_helpers` and `threecol_assignment_by_sets`, the
package's earlier twin-width search, trigraph reader and writer,
sequence reader and 3col backward map, kept so that the current code
can be compared with them step for step, message for message and byte
for byte.  The first five functions and the last three are not
references but small helpers that only tests call.
"""

import itertools

from twinwidth import (ContractionState, PartitionSequence, Trigraph, is_proper,
                       sequence_from_vertex_merges)
from twinwidth.cnf import Dialect, literal_value, nae_satisfies
from twinwidth.errors import BudgetExceeded, OverlapError, ParseError, TwinwidthError
from twinwidth.formats import _header
from twinwidth.trigraph import edge_count


def trigraph(n, black=(), red=(), labels=None):
    """A Trigraph from black and red edge pairs, each asserted in range and not a loop."""
    sides = []
    for pairs in (black, red):
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            assert u != v and 0 <= u < n and 0 <= v < n, (u, v, n)
            adj[u].append(v)
            adj[v].append(u)
        sides.append(adj)
    return Trigraph(n, *sides, labels)


def edges(adj):
    """The edge pairs (u, v), u < v, of a symmetric neighbor-set table."""
    return frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)


def max_red_degree(g):
    """The largest red degree of a trigraph, read from its red neighbor sets."""
    return max(map(len, g.red_adj), default=0)


def redify(g):
    """Reclassify every black edge as red (cannot decrease twin-width)."""
    return trigraph(g.n, (), edges(g.black_adj) | edges(g.red_adj), g.labels)


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
    black, red = edges(g.black_adj), edges(g.red_adj)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            any_red = any_black = any_nonadj = False
            for u in parts[i]:
                for v in parts[j]:
                    e = (u, v) if u < v else (v, u)
                    if e in red:
                        any_red = True
                    elif e in black:
                        any_black = True
                    else:
                        any_nonadj = True
            if any_red or (any_black and any_nonadj):
                out[(i, j)] = "red"
            elif any_black:
                out[(i, j)] = "black"
    return out


def quotient_width(g, parts):
    """The max red degree of quotient_by_definition(g, parts)."""
    degree = [0] * len(parts)
    for (i, j), color in quotient_by_definition(g, parts).items():
        if color == "red":
            degree[i] += 1
            degree[j] += 1
    return max(degree, default=0)


def brute_k_colorable(g, k):
    """Exhaustive product over all color vectors.  Tiny graphs only."""
    if g.n == 0:
        return True
    black = edges(g.black_adj)
    for colors in itertools.product(range(1, k + 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in black):
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
                w = quotient_width(g, trial)
                if w >= best:
                    continue
                sub = best_from(trial, best)
                best = min(best, max(w, sub))
        return best

    init = max_red_degree(g)
    return max(init, best_from([frozenset([v]) for v in range(g.n)], g.n))


def greedy_merge_width(g):
    """Width of the greedy merge order: each step merges the first pair of
    parts whose quotient has the smallest max red degree.  An upper bound
    on twin-width, by full quotients rather than the package's state."""
    parts = [frozenset([v]) for v in range(g.n)]
    width = max_red_degree(g)
    while len(parts) > 1:
        best = None
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                trial = [p for t, p in enumerate(parts) if t not in (i, j)]
                trial.append(parts[i] | parts[j])
                w = quotient_width(g, trial)
                if best is None or w < best[0]:
                    best = (w, trial)
        width = max(width, best[0])
        parts = best[1]
    return width


def exact_twinwidth_by_copies(g, budget=None):
    """The exact twin-width search as first written: the package's
    iterative deepening and DFS, with each pair scored by building its
    merged copy and reading the copy's width.  Returns (width, sequence,
    expansions); past `budget` expansions it raises BudgetExceeded with
    lower = the width it was trying."""
    n = g.n
    if n <= 1:
        return 0, PartitionSequence(n, ()), 0
    root = ContractionState(g)
    spent = 0

    def spend(d):
        nonlocal spent
        spent += 1
        if budget is not None and spent > budget:
            raise BudgetExceeded(f"twin-width search exceeded {budget} expansions", d)

    for d in itertools.count(root.max_red_degree()):
        failed = set()
        spend(d)
        stack = [((), root, tuple(range(n)), itertools.combinations(sorted(root.live), 2))]
        while stack:
            _, state, rep, pairs = stack[-1]
            for a, b in pairs:
                if state.merged(a, b).max_red_degree() <= d:
                    if len(state.live) == 2:
                        merges = [frame[0] for frame in stack[1:]] + [(a, b)]
                        return d, sequence_from_vertex_merges(n, merges), spent
                    child_rep = tuple(a if r == b else r for r in rep)
                    if child_rep not in failed:
                        spend(d)
                        child = state.merged(a, b)
                        stack.append(((a, b), child, child_rep,
                                      itertools.combinations(sorted(child.live), 2)))
                        break
            else:
                failed.add(rep)
                stack.pop()


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
        yield trigraph(n, [e for t, e in enumerate(pairs) if bits >> t & 1])


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
        return trigraph(1)
    split = rng.randint(1, n - 1)
    left = random_cograph(split, rng)
    right = random_cograph(n - split, rng)
    pairs = list(edges(left.black_adj))
    pairs.extend((u + left.n, v + left.n) for u, v in edges(right.black_adj))
    if rng.random() < 0.5:  # join
        pairs.extend((u, v + left.n) for u in range(left.n) for v in range(right.n))
    return trigraph(n, pairs)


def read_trigraph_two_pass(text):
    """The trigraph reader as first written: a list of edge tuples, then a trigraph of them.

    Its loop checks each edge line's ids, and `trigraph` checks every pair
    again while it builds the neighbor lists; the overlap and repeat
    messages come from sorting the normalized pairs.
    """
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    n, n_black, n_red = _header(lines, "tgf", 3)
    black, red = [], []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("b", "r"):
            raise ParseError(f"malformed edge line: {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"malformed edge line: {line!r}") from None
        if u == v or not (0 < u <= n and 0 < v <= n):
            raise ParseError(f"edge line {line!r} does not join two vertices of 1..{n}")
        (black if parts[0] == "b" else red).append((u - 1, v - 1))
    if len(black) != n_black or len(red) != n_red:
        raise ParseError(
            f"header declares {n_black} black / {n_red} red edges, "
            f"found {len(black)} / {len(red)}")
    try:
        g = trigraph(n, black, red)
    except OverlapError:
        u, v = min({(min(e), max(e)) for e in black} & {(min(e), max(e)) for e in red})
        raise ParseError(f"pair {u + 1} {v + 1} is both a black and a red edge") from None
    if len(edges(g.black_adj)) + len(edges(g.red_adj)) < n_black + n_red:
        pairs = sorted((min(e), max(e)) for e in black + red)
        u, v = next(a for a, b in zip(pairs, pairs[1:]) if a == b)
        raise ParseError(f"pair {u + 1} {v + 1} is on two edge lines")
    return g


def write_trigraph_by_lines(g):
    """The trigraph writer as first written: one f-string per edge line."""
    lines = [f"tgf {g.n} {edge_count(g.black_adj)} {edge_count(g.red_adj)}"]
    for tag, adj in (("b", g.black_adj), ("r", g.red_adj)):
        lines += [f"{tag} {u + 1} {v + 1}" for u, nbrs in enumerate(adj) for v in sorted(nbrs) if v > u]
    return "\n".join(lines) + "\n"


def read_sequence_by_helpers(text):
    """The sequence reader as first written, with the union-find it called.

    Each merge line goes through a split into tag and ids and a checked
    integer conversion; the script is then normalized by a nested
    path-halving `find`, two calls per merge.
    """
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    n, n_steps = _header(lines, "seq", 2)
    merges = []
    for line in lines[1:]:
        tag, *ids = line.split()
        if tag != "m" or len(ids) != 2:
            raise ParseError(f"malformed merge line: {line!r}")
        try:
            a, b = [int(t) for t in ids]
        except ValueError:
            raise ParseError(f"malformed merge line: {line!r}") from None
        merges.append((a - 1, b - 1))
    if len(merges) != n_steps:
        raise ParseError(f"header declares {n_steps} steps, found {len(merges)}")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    steps = []
    for u, v in merges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"merge ({u + 1},{v + 1}) out of range for n={n}")
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ParseError(f"merge ({u + 1},{v + 1}) names two vertices already in the same part")
        lo, hi = (ru, rv) if ru < rv else (rv, ru)
        parent[hi] = lo
        steps.append((lo, hi))
    return PartitionSequence(n, tuple(steps))


def threecol_assignment_by_sets(inst, col):
    """The 3col backward map with its parity rule as first written: the
    occurrence colors of each sign form a set, each set holds at most one
    color, and the two sets differ."""
    if max(col.colors) > 3:
        raise TwinwidthError(f"coloring uses color {max(col.colors)}, budget is 3")
    if not is_proper(inst.graph, col):
        raise TwinwidthError("coloring is not proper")
    c_hub = col.colors[inst.z]
    c_first = col.colors[inst.path_vertex(1, 1)]
    perm = {c_hub: 3, c_first: 1}
    perm.update({c: 2 for c in (1, 2, 3) if c not in perm})
    normalized = [perm[c] for c in col.colors]
    assignment = {}
    for i in range(1, inst.n + 1):
        by_sign = {True: set(), False: set()}
        for j, sign in inst.formula.occurrences(i):
            by_sign[sign].add(normalized[inst.path_vertex(i, j)])
        if len(by_sign[True]) > 1 or len(by_sign[False]) > 1 or \
                (by_sign[True] and by_sign[True] == by_sign[False]):
            raise TwinwidthError(f"occurrence colors of variable {i} violate parity")
        if by_sign[True]:
            assignment[i] = by_sign[True] == {1}
        else:
            assignment[i] = not (by_sign[False] == {1})
    if not nae_satisfies(inst.formula, assignment):
        raise TwinwidthError("extracted assignment does not NAE-satisfy the formula")
    return assignment


def read_outcome(read, text):
    """What a reader makes of text: a trigraph's (n, black_adj, red_adj), a
    sequence, or "<error>: <message>"."""
    try:
        out = read(text)
    except TwinwidthError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (out.n, out.black_adj, out.red_adj) if isinstance(out, Trigraph) else out


def mutate_trigraph_text(text, rng):
    """One to three random faults or harmless variations of a trigraph text, by line.

    Half the time the header's edge counts are then set to the counts of
    b and r lines, so that the faults behind a count mismatch show.
    """
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(1, len(lines) + 1)
        edge = lines[rng.randrange(1, len(lines))].split() if len(lines) > 1 else ["b", "1", "2"]
        tag, u, v = edge if len(edge) == 3 else ("b", "1", "2")
        kind = rng.randrange(10)
        if kind == 0:  # the same pair again, either way round, either color
            lines.insert(at, " ".join([rng.choice((tag, "b", "r")), *rng.sample([u, v], 2)]))
        elif kind == 1 and len(lines) > 1:
            del lines[rng.randrange(1, len(lines))]
        elif kind == 2 and len(head := lines[0].split()) == 4:  # a count off by a little
            slot = rng.randrange(1, 4)
            head[slot] = str(int(head[slot]) + rng.choice((-2, -1, 1)))
            lines[0] = " ".join(head)
        elif kind == 3:
            lines.insert(at, rng.choice(["b 1", "x 1 2", "b 1 y", "b 1 2 3", "r 1.0 2", "b"]))
        elif kind == 4:  # ids outside 1..n, or a loop
            lines.insert(at, f"{tag} {rng.choice([0, n + 1, -1, u])} {u}")
        elif kind == 5:
            lines[at - 1] = lines[at - 1].replace(" ", "\t", rng.randint(1, 3))
        elif kind == 6:  # the same id written differently
            lines.insert(at, f"{tag} {rng.choice(['+', '0', ' '])}{u} {v}")
        elif kind == 7:
            lines.insert(at, rng.choice(["# note", "", "   ", f"{tag} {u} {v} # inline"]))
        elif kind == 8 and len(lines) > 1:  # recolor a line
            row = rng.randrange(1, len(lines))
            lines[row] = {"b": "r", "r": "b"}.get(lines[row][:1], "b") + lines[row][1:]
        else:
            lines[0] = rng.choice(["tgf -1 0 0", "tgf 0 0 0", lines[0] + " 1", "tgf 3 0",
                                   "tg 3 0 0"])
    head = lines[0].split()
    if len(head) == 4 and head[0] == "tgf" and rng.random() < 0.5:  # make the counts true
        tags = [line.split()[:1] for line in lines[1:]]
        lines[0] = " ".join([*head[:2], str(tags.count(["b"])), str(tags.count(["r"]))])
    return "\n".join(lines) + rng.choice(["", "\n"])


def mutate_sequence_text(text, rng):
    """One to three random faults or harmless variations of a sequence text, by line.

    Half the time the header's step count is then set to the number of
    data lines after it, so that the faults behind a count mismatch show.
    """
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(1, len(lines) + 1)
        step = lines[rng.randrange(1, len(lines))].split() if len(lines) > 1 else ["m", "1", "2"]
        u, v = step[1:] if len(step) == 3 else ("1", "2")
        kind = rng.randrange(10)
        if kind == 0:  # a merge within one part: a step again, either way round
            lines.insert(at, "m " + " ".join(rng.sample([u, v], 2)))
        elif kind == 1 and len(lines) > 1:
            del lines[rng.randrange(1, len(lines))]
        elif kind == 2 and len(head := lines[0].split()) == 3:  # a count off by a little
            slot = rng.randrange(1, 3)
            head[slot] = str(int(head[slot]) + rng.choice((-2, -1, 1)))
            lines[0] = " ".join(head)
        elif kind == 3:
            lines.insert(at, rng.choice(["m 1", "m 1 2 3", "M 1 2", "m x 3", "m 1.0 2", "m",
                                         "x 1 2"]))
        elif kind == 4:  # ids outside 1..n
            lines.insert(at, f"m {rng.choice([0, n + 1, -1, u])} {rng.choice([u, n + 1])}")
        elif kind == 5:
            lines[at - 1] = lines[at - 1].replace(" ", "\t", rng.randint(1, 2))
        elif kind == 6:  # the same id written differently
            lines.insert(at, f"m {rng.choice(['+', '0', '00'])}{u} {v}")
        elif kind == 7:
            lines.insert(at, rng.choice(["# note", "", "   ", f"m {u} {v} # inline", "#m 1 2"]))
        elif kind == 8 and len(lines) > 2:  # swap two steps
            i, j = rng.sample(range(1, len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[0] = rng.choice(["seq -1 0", "seq 0 0", lines[0] + " 1", "seq 3", "se 3 1",
                                   f"seq {n + 1} {len(lines) - 1}"])
    head = lines[0].split()
    if len(head) == 3 and head[0] == "seq" and rng.random() < 0.5:  # make the count true
        steps = sum(1 for line in lines[1:] if line.split("#", 1)[0].strip())
        lines[0] = " ".join([*head[:2], str(steps)])
    return "\n".join(lines) + rng.choice(["", "\n"])
