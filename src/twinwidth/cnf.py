"""CNF formulas in the two dialects the reductions accept.

Literals use the DIMACS convention: variable indices are 1-based and a
negative integer denotes a negated variable.  Every clause has exactly
three literals.  Assignments are plain dicts mapping variable index to
bool.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import TwinwidthError

Clause = tuple[int, int, int]
Assignment = dict[int, bool]


class Dialect(enum.Enum):
    THREE_SAT = "3sat"
    NAE_THREE_SAT = "nae3sat"


@dataclass(frozen=True)
class CnfFormula:
    """A 3-SAT or NAE-3-SAT instance.

    Invariants (checked at construction): n_vars >= 0; variable indices
    lie in [1, n_vars]; every variable occurs in at least one clause; NAE
    clauses are on three distinct variables; no clause contains both a
    variable and its negation (such a clause would break the forward
    coloring of the coloring-number reduction, so the dialect excludes
    it outright).
    """

    n_vars: int
    clauses: tuple[Clause, ...]
    dialect: Dialect = Dialect.THREE_SAT

    def __post_init__(self):
        if self.n_vars < 0:
            raise TwinwidthError(f"variable count must be non-negative, got {self.n_vars}")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        seen: set[int] = set()
        for clause in self.clauses:
            if len(clause) != 3:
                raise TwinwidthError(f"clause {clause} does not have exactly 3 literals")
            variables = [abs(lit) for lit in clause]
            for lit, var in zip(clause, variables):
                if lit == 0 or not 1 <= var <= self.n_vars:
                    raise TwinwidthError(f"literal {lit} out of range for {self.n_vars} variables")
            if self.dialect is Dialect.NAE_THREE_SAT and len(set(variables)) != 3:
                raise TwinwidthError(f"NAE clause {clause} repeats a variable")
            if len({(v, lit > 0) for v, lit in zip(variables, clause)}) != len(set(variables)):
                raise TwinwidthError(f"clause {clause} contains a variable and its negation")
            seen.update(variables)
        for var in range(1, self.n_vars + 1):
            if var not in seen:
                raise TwinwidthError(f"variable {var} occurs in no clause")

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def occurrences(self, var: int) -> list[tuple[int, bool]]:
        """Clause positions of a variable as (1-based clause index, sign).

        Sign is True for a positive occurrence.  Clause indices come out
        sorted; each clause contributes at most one entry per variable
        (NAE clauses never repeat a variable, 3-SAT repeats carry the
        same sign and collapse).
        """
        out = []
        for j, clause in enumerate(self.clauses, start=1):
            for lit in clause:
                if abs(lit) == var:
                    out.append((j, lit > 0))
                    break
        return out


def literal_value(lit: int, assignment: Assignment) -> bool:
    value = assignment[abs(lit)]
    return value if lit > 0 else not value


def satisfies(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause has at least one true literal."""
    return all(any(literal_value(l, assignment) for l in c) for c in formula.clauses)


def nae_satisfies(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause has both a true and a false literal."""
    for clause in formula.clauses:
        values = [literal_value(l, assignment) for l in clause]
        if all(values) or not any(values):
            return False
    return True
