"""Walk through the witness construction at n = 2.

Builds prefix and suffix tables, simulates the universal automaton on an
encoded pair, materializes the full acceptance matrix, and confirms that
its rank equals the ordered-table count.
"""
from ufabound import (PrefixTable, SuffixTable, WitnessAutomaton,
                      acceptance_matrix, build_K, build_M,
                      count_ordered_prefix_tables, rank_exact, rank_mod_p,
                      starting_state, table_size, twonfa_accepts)
from ufabound.tables import prefix_table_to_text, suffix_table_to_text

# A prefix table maps every state to the states reachable across the
# prefix boundary; the starting state's value must sit inside all others.
f = PrefixTable.from_sets(2, [{2}, {1, 2}])
print("prefix table:", prefix_table_to_text(f))
print("starting state:", starting_state(f), " arcs:", table_size(f))

# A suffix table does the same for the suffix side; state 1 accepts
# outright here, so its entry is saturated to the full set.
g = SuffixTable.from_sets(2, [{1, 2}, {2}], accept={1})
print("suffix table: ", suffix_table_to_text(g))

# The three-letter word drives the universal automaton, built here over
# just these two tables: pick the starting state, walk the prefix arcs
# right, bounce off the suffix arcs left, accept once an accepting suffix
# entry is hit.
aut = WitnessAutomaton(2, [f], [g])
word = aut.word(f, g)
print("word:", word, " letters:", aut.nfa.alphabet_size)
print("simulation accepts:", twonfa_accepts(aut.nfa, word))
print("graph reachability:", bool(acceptance_matrix([f], [g], 2).bits[0]))

# The acceptance matrix over all 7 prefix tables and 9 suffix tables.
m = build_M(2)
print(f"\nacceptance matrix ({m.rows} x {m.cols}):")
for i in range(m.rows):
    print("   ", "".join("#" if m.entry(i, j) else "." for j in range(m.cols)))

# At n = 2 every prefix table is already ordered, so the reduced matrix
# coincides with the full one, and the rank meets the count exactly.
k = build_K(2)
print("\nreduced matrix equals full matrix:", m.bits == k.bits)
print("rank over the rationals:", rank_exact(m))
print("rank mod 2^31-1:        ", rank_mod_p(m, 2**31 - 1))
print("ordered prefix tables:  ", count_ordered_prefix_tables(2))
