"""State-complexity experiments: two-way NFAs versus unambiguous automata.

The package builds the universal witness automaton for a given number of
states, materializes its acceptance matrix over prefix and suffix tables,
computes exact matrix ranks over the rationals and over prime fields, and
counts ordered prefix tables in closed form; the rank and the count must
meet.  A companion module extracts the same table structure from arbitrary
two-way automata and checks that no choice of automaton and string sets
produces a higher rank.
"""

from .automata import (LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, dump_automaton,
                       load_automaton, twonfa_accepts)
from .combinatorics import (asymptotic_floor, count_ordered_prefix_tables,
                            enumerate_ordered_prefix_tables, p_count, s_count,
                            stirling2, table1_row)
from .crossing import (OptimalityReport, prefix_tables_of, random_two_way_nfa,
                       schmidt_matrix, suffix_tables_of, verify_optimality)
from .errors import CapacityError
from .exact_linalg import rank_exact, rank_mod_p
from .tables import (LayerStructure, PrefixTable, SuffixTable, augment,
                     enumerate_prefix_tables, enumerate_suffix_tables, is_ordered,
                     layer_structure, starting_state, table_size)
from .witness import (BoolMatrix, WitnessAutomaton, acceptance_matrix, build_K,
                      build_M, build_g_I)

__all__ = [name for name in dir() if not name.startswith("_")]
