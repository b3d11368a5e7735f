"""Twin-width toolkit.

Trigraphs and contraction sequences, two SAT-to-coloring reductions
with certified low-width sequences, and brute-force oracles that verify
every claim at desk scale.
"""

from .cnf import Assignment, CnfFormula, Dialect, nae_satisfies, satisfies
from .contraction import (ContractionState, PartitionSequence, WidthProfile,
                          replay, sequence_from_vertex_merges,
                          verify_d_sequence)
from .mincol import (MinColInstance, build_mincol, build_mincol_3sequence,
                     mincol_assignment_from_coloring,
                     mincol_coloring_from_assignment)
from .oracles import (Coloring, chromatic_number, exact_twinwidth,
                      is_k_colorable, is_proper, solve_nae, solve_sat)
from .threecol import (ThreeColInstance, build_3col, build_3col_4sequence,
                       lift_to_k, subdivision_positions,
                       threecol_assignment_from_coloring,
                       threecol_coloring_from_assignment)
from .trigraph import Trigraph, quotient

__all__ = [
    "Assignment", "CnfFormula", "Dialect", "nae_satisfies", "satisfies",
    "ContractionState", "PartitionSequence", "WidthProfile", "replay",
    "sequence_from_vertex_merges", "verify_d_sequence", "MinColInstance", "build_mincol",
    "build_mincol_3sequence", "mincol_assignment_from_coloring",
    "mincol_coloring_from_assignment", "Coloring", "chromatic_number",
    "exact_twinwidth", "is_k_colorable", "is_proper", "solve_nae",
    "solve_sat", "ThreeColInstance", "build_3col",
    "build_3col_4sequence", "lift_to_k", "subdivision_positions",
    "threecol_assignment_from_coloring", "threecol_coloring_from_assignment",
    "Trigraph", "quotient",
]
