"""Rank experiments on arbitrary two-way automata.

Extracts crossing tables from a random automaton, builds the
concatenation matrix for random string sets, and checks it against the
universal matrix over the distinct tables the strings induce: every
entry must be the universal entry of its two tables (zero where a
string induces none), both ranks must agree, and neither may exceed the
closed-form ceiling.
"""
import json
import random

from ufabound import (count_ordered_prefix_tables, prefix_tables_of,
                      schmidt_matrix, suffix_tables_of, verify_optimality)
from ufabound.crossing import random_strings, random_two_way_nfa
from ufabound.tables import prefix_table_to_text, suffix_table_to_text

rng = random.Random(2024)
aut = random_two_way_nfa(2, 2, rng)
print("random 2-state automaton over a binary alphabet")
print("initial:", sorted(q + 1 for q in aut.initial),
      " accepting:", sorted(q + 1 for q in aut.accepting))

# Crossing tables induced by concrete strings, one search per family.
# A prefix that nothing leaves, or a suffix from which nothing accepts,
# induces no table; its matrix row or column is all zero.
xs = [(), (0,), (0, 1)]
for x, f in zip(xs, prefix_tables_of(aut, xs)):
    label = "".join("ab"[c] for c in x) or "(empty)"
    print(f"  prefix {label:7}  ->",
          prefix_table_to_text(f) if f else "no exit: zero row")
ys = [(), (1,), (1, 0)]
for y, g in zip(ys, suffix_tables_of(aut, ys)):
    label = "".join("ab"[c] for c in y) or "(empty)"
    print(f"  suffix {label:7}  ->",
          suffix_table_to_text(g) if g else "never accepts: zero column")

# The concatenation matrix for random string sets, and the full report:
# its entries are the universal matrix's, repeated per string, and its
# rank equals the universal rank and stays within the ceiling.
xs = random_strings(2, 12, 5, rng)
ys = random_strings(2, 12, 5, rng)
m = schmidt_matrix(aut, xs, ys)
print(f"\nconcatenation matrix {m.rows} x {m.cols}:")
for i in range(m.rows):
    print("   ", "".join("#" if m.entry(i, j) else "." for j in range(m.cols)))

report = verify_optimality(aut, xs, ys, seed=2024)
print("\nreport:", json.dumps(report.to_json(), sort_keys=True))
print("ceiling for 2 states:", count_ordered_prefix_tables(2))

# A short seeded campaign: the rank never beats the ceiling.
worst = 0
for seed in range(200):
    r = random_two_way_nfa(2, 2, random.Random(seed))
    s = random.Random(seed)
    result = verify_optimality(r, random_strings(2, 10, 5, s),
                               random_strings(2, 10, 5, s), seed=seed)
    assert result.ok
    worst = max(worst, result.rank)
print(f"\n200 seeded instances: highest rank seen {worst} <= 7")
