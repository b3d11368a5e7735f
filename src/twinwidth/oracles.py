"""Brute-force ground truth at desk scale.

Exact coloring via branch-and-bound backtracking, exact twin-width via
memoized search over merge orders, and exhaustive 3-SAT / NAE-3-SAT
solving.  Every positive answer comes with a witness that the matching
checker accepts, and repeated runs return identical outputs.

Budgets count node expansions, never wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .cnf import Assignment, CnfFormula, Dialect
from .contraction import ContractionState, PartitionSequence
from .errors import BudgetExceeded, TwinwidthError
from .trigraph import Trigraph


@dataclass(frozen=True)
class Coloring:
    """Total map vertex -> color; colors are 1-based and bounded by k."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        for v, c in enumerate(self.colors):
            if not 1 <= c <= self.k:
                raise TwinwidthError(f"vertex {v} has color {c}, outside 1..{self.k}")


def is_proper(g: Trigraph, col: Coloring) -> bool:
    """True iff no black edge is monochromatic.  Plain graphs only."""
    if any(g.red_adj):
        raise TwinwidthError("propriety is defined for plain graphs (no red edges)")
    if len(col.colors) != g.n:
        raise TwinwidthError(f"coloring has {len(col.colors)} entries, graph has {g.n} vertices")
    colors = col.colors
    return all(colors[u] != colors[v] for u, nbrs in enumerate(g.black_adj) for v in nbrs)


def _meter(budget: int | None, search: str):
    """A spend() that counts one expansion and raises BudgetExceeded past the budget."""
    spent = count(1)

    def spend(lower: int | None = None) -> None:
        if budget is not None and next(spent) > budget:
            raise BudgetExceeded(f"{search} search exceeded {budget} expansions", lower)
    return spend


def _base_order(g: Trigraph) -> list[int]:
    """Descending degree, ties by id."""
    return sorted(range(g.n), key=lambda v: (-len(g.black_adj[v]), v))


def greedy_coloring(g: Trigraph, order: list[int]) -> Coloring:
    """First-fit along `order`, the base order; an upper bound for the chromatic number."""
    colors = [0] * g.n
    for v in order:
        used = {colors[u] for u in g.black_adj[v] if colors[u]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return Coloring(tuple(colors), max(colors, default=1))


def greedy_clique(g: Trigraph, order: list[int]) -> list[int]:
    """A maximal clique grown greedily from several seeds along `order`; a lower bound witness."""
    rank = {v: i for i, v in enumerate(order)}
    adj = g.black_adj
    best: list[int] = []
    for seed in order[: min(g.n, 24)]:
        clique = [seed]  # every member is a neighbor of the seed
        for v in sorted(adj[seed], key=rank.__getitem__):
            if adj[v].issuperset(clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return best


def is_k_colorable(g: Trigraph, k: int, budget: int | None = None
                   ) -> tuple[bool, Coloring | None]:
    """Exact k-colorability with a witness coloring on success.

    Chronological backtracking on an explicit stack of colored levels, as
    is the k-clique enumeration.  A greedy maximum clique is colored 1,
    2, ... first (with more than k members it rules k colors out); a new
    color may then only be max used + 1.  Selection: highest saturation
    (distinct colors on colored neighbors), ties by descending degree then
    id; a vertex with at most one color left is taken as soon as the scan
    meets it.  A dead end, or a level with no colors left, takes back the
    deepest level's color and tries its next one.

    Hall check: a k-clique must use all k colors.  For up to n k-cliques
    (met within n*k enumeration nodes) the search counts, per color, the
    members that hold it or could still take it.  A count of 0 is a dead
    end; at 1 its last supporter is the next vertex, that color first.
    Budgets count precolored vertices and colors tried.
    """
    if any(g.red_adj):
        raise TwinwidthError("colorability is defined for plain graphs")
    if g.n == 0:
        return True, Coloring((), max(k, 0))
    order = _base_order(g)
    return _search(g, k, order, greedy_clique(g, order), budget)


def _search(g: Trigraph, k: int, order: list[int], clique: list[int], budget: int | None
            ) -> tuple[bool, Coloring | None]:
    """is_k_colorable's search, n > 0; chromatic_number sets up order and clique once."""
    n = g.n
    if len(clique) > k:  # also every k <= 0, since n > 0
        return False, None
    adj = [tuple(sorted(g.black_adj[v])) for v in range(n)]
    colors = [0] * n
    forbidden = [0] * n  # of an uncolored vertex: bit c - 1 iff a neighbor holds color c
    spend = _meter(budget, "coloring")

    # the first n k-cliques met within n*k enumeration nodes, ids ascending;
    # any subset keeps the Hall check sound, and the caps bound its time
    # and memory however many k-cliques the graph has.  support[q][c]:
    # members of clique q that hold color c or could still take it
    cliques: list[list[int]] = []
    member_of: list[list[int]] = [[] for _ in range(n)]
    nodes = n * k - 1
    members: list[int] = []  # of the deepest open node
    # per open node: the common neighbors of its members above their largest
    # id, ascending, and an enumerate of them that resumes where it stopped
    nest = [(range(n), enumerate(range(n)))]
    while nest and nodes > 0 and len(cliques) < n:
        cand, tries = nest[-1]
        for i, u in tries:
            nbrs = g.black_adj[u]
            # cand ascends, so all after u is above it; the root's cand is every vertex
            rest = [w for w in cand[i + 1:] if w in nbrs] if members else [w for w in adj[u] if w > u]
            if len(rest) >= k - len(members) - 1:
                nodes -= 1
                members.append(u)
                if len(members) == k:
                    for v in members:
                        member_of[v].append(len(cliques))
                    cliques.append(members[:])
                    rest = []
                nest.append((rest, enumerate(rest)))
                break
        else:
            nest.pop()
            if members:  # the root has none
                members.pop()
    support = [[k] * (k + 1) for _ in cliques]
    singles: list[tuple[int, int]] = []  # (vertex, bit): sole supporter of a color

    def place(v: int, bit: int):
        """Color v and propagate; returns (touched, lost supports, dead end)."""
        color = colors[v] = bit.bit_length()
        touched = []
        lost = [(q, c) for c in range(1, k + 1) if c != color and not forbidden[v] >> (c - 1) & 1
                for q in member_of[v]]
        dead = False
        for u in adj[v]:
            if not colors[u] and not forbidden[u] & bit:
                forbidden[u] |= bit
                touched.append(u)
                if forbidden[u] == (1 << k) - 1:
                    dead = True
                for q in member_of[u]:
                    lost.append((q, color))
        for q, c in lost:
            count = support[q]
            count[c] -= 1
            if count[c] == 0:
                dead = True
            elif count[c] == 1:
                b = 1 << (c - 1)
                for w in cliques[q]:
                    if not colors[w] and not forbidden[w] & b:
                        singles.append((w, b))
                        break
        return touched, lost, dead

    for i, v in enumerate(clique):
        spend()
        if place(v, 1 << i)[2]:
            return False, None
    # per colored level: vertex, colors left, max used before it, undo record
    stack: list[tuple] = []
    max_used = len(clique)
    back = False  # the level just closed failed
    while True:
        if not back:  # open the next level
            if len(stack) == n - len(clique):
                return True, Coloring(tuple(colors), k)
            v, first = -1, 0
            for u, b in reversed(singles):
                if not colors[u]:
                    v, first = u, b
                    break
            if v < 0:
                best = -1
                for u in order:
                    if not colors[u] and (saturation := forbidden[u].bit_count()) > best:
                        best = saturation
                        v = u
                        if best >= k - 1:
                            break
            allowed = ~forbidden[v] & ((1 << min(max_used + 1, k)) - 1)
            first &= allowed
        elif not stack:
            return False, None
        else:  # take back the deepest level's color
            v, allowed, max_used, mark, touched, lost = stack.pop()
            bit = 1 << colors[v] - 1
            for u in touched:
                forbidden[u] ^= bit
            for q, c in lost:
                support[q][c] += 1
            del singles[mark:]
        if not allowed:  # every color of this level failed
            colors[v] = 0
            back = True
            continue
        bit = first or allowed & -allowed
        first = 0
        allowed ^= bit
        spend()
        mark = len(singles)
        touched, lost, back = place(v, bit)
        stack.append((v, allowed, max_used, mark, touched, lost))
        max_used = max(max_used, bit.bit_length())


def chromatic_number(g: Trigraph, budget: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring that uses exactly that many colors.

    A greedy coloring bounds it from above and a greedy clique from
    below.  When the bounds meet the greedy coloring is the witness;
    otherwise k-colorability searches run upward from the lower bound
    and the first success is the witness.
    """
    if any(g.red_adj):
        raise TwinwidthError("chromatic number is defined for plain graphs")
    if g.n == 0:
        return 0, Coloring((), 0)
    order = _base_order(g)
    greedy = greedy_coloring(g, order)
    clique = greedy_clique(g, order)
    for k in range(len(clique), greedy.k):
        try:
            ok, witness = _search(g, k, order, clique, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(str(exc), lower=k, upper=greedy.k) from None
        if ok:
            return k, witness
    return greedy.k, greedy


def exact_twinwidth(g: Trigraph, budget: int | None = None
                    ) -> tuple[int, PartitionSequence]:
    """Exact twin-width with an optimal witness sequence.

    Iterative deepening on the width bound d, up from the root's max red
    degree: each level's DFS, on an explicit stack over contraction states,
    memoizes failed partitions by each vertex's part representative.  A
    pair is tested only against d (`fitting_pairs`), which is exact because
    every state the search opens, the root included, has width at most d.  A
    level with d >= n - 2 takes the first pair at every node, so the loop
    ends.  The budget counts levels and descents; BudgetExceeded carries
    lower = d, proved by the levels below.  Meant for about a dozen vertices.
    """
    n = g.n
    if n <= 1:
        return 0, PartitionSequence(n, ())
    spend = _meter(budget, "twin-width")
    d = max(map(len, g.red_adj))
    spend(d)  # the first level's count comes before the root is built
    root = ContractionState(g)
    while True:
        failed: set[tuple[int, ...]] = set()  # reps of states that no merge order finishes
        # per open state: the merge into it, its rep, and the pairs it has left to try
        stack = [((), root, tuple(range(n)), root.fitting_pairs(d))]
        while stack:
            _, state, rep, pairs = stack[-1]
            for a, b in pairs:
                if len(state.live) == 2:
                    merges = [frame[0] for frame in stack[1:]] + [(a, b)]
                    return d, PartitionSequence(n, tuple(merges))
                child_rep = tuple(a if r == b else r for r in rep)
                if child_rep not in failed:  # copy only the states descended into
                    spend(d)
                    child = state.merged(a, b)
                    stack.append(((a, b), child, child_rep, child.fitting_pairs(d)))
                    break
            else:
                failed.add(rep)
                stack.pop()
        d += 1
        spend(d)


def _solve_cnf(formula: CnfFormula) -> Assignment | None:
    """DPLL over variables in index order, False before True.

    An NAE clause (a, b, c) is read as (a, b, c) and (-a, -b, -c), and a
    repeated 3-SAT literal counts once.  After each decision, unit
    propagation sets a clause's last unfalsified literal true, to a
    fixpoint or a violated clause.  A forced literal holds in every model
    that extends the current prefix, so only subtrees without a model are
    pruned, and the first model found is the lexicographically smallest
    (False < True), as in plain backtracking.
    """
    n = formula.n_vars
    clauses = [tuple(dict.fromkeys(c)) for c in formula.clauses]
    if formula.dialect is Dialect.NAE_THREE_SAT:
        clauses += [tuple(-lit for lit in c) for c in clauses]
    # indexed by literal: entry -v sits at the far end, so v and -v never collide
    occ: list[list[tuple[int, ...]]] = [[] for _ in range(2 * n + 1)]
    for clause in clauses:
        for lit in clause:
            occ[lit].append(clause)
    value: list[bool | None] = [None] * (2 * n + 1)
    trail: list[int] = []  # true literals in the order they were set
    decisions: list[int] = []  # trail length before each decision still on False

    def propagate(lit: int) -> bool:
        """Set lit true and force literals to a fixpoint; False on a conflict."""
        if value[lit] is not None:
            return value[lit]
        head = len(trail)
        trail.append(lit)
        value[lit], value[-lit] = True, False
        while head < len(trail):
            for clause in occ[-trail[head]]:
                free = 0
                for other in clause:
                    v = value[other]
                    if v or v is None and free:
                        break  # satisfied, or a second unset literal
                    if v is None:
                        free = other
                else:
                    if not free:
                        return False
                    trail.append(free)
                    value[free], value[-free] = True, False
            head += 1
        return True

    ok = all(propagate(c[0]) for c in clauses if len(c) == 1)
    var = 1
    while True:
        if ok:
            while var <= n and value[var] is not None:
                var += 1
            if var > n:
                return {v: value[v] for v in range(1, n + 1)}
            decisions.append(len(trail))
            ok = propagate(-var)
        elif decisions:  # undo the deepest False decision, then try True
            mark = decisions.pop()
            var = -trail[mark]
            for lit in trail[mark:]:
                value[lit] = value[-lit] = None
            del trail[mark:]
            ok = propagate(var)
        else:
            return None


def solve_sat(formula: CnfFormula) -> Assignment | None:
    """Lexicographically smallest satisfying assignment, or None."""
    if formula.dialect is not Dialect.THREE_SAT:
        raise TwinwidthError("solve_sat expects the 3-SAT dialect")
    return _solve_cnf(formula)


def solve_nae(formula: CnfFormula) -> Assignment | None:
    """Lexicographically smallest NAE-satisfying assignment, or None."""
    if formula.dialect is not Dialect.NAE_THREE_SAT:
        raise TwinwidthError("solve_nae expects the NAE-3-SAT dialect")
    return _solve_cnf(formula)
