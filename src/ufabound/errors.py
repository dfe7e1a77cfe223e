"""The capacity limits of the package and the error raised beyond them.

The state count n itself has no cap: state sets and matrix rows are plain
Python ints of any width.  The limits below bound the computations whose
cost or output grows too fast with n.
"""


class CapacityError(ValueError):
    """Raised when an exact computation is requested beyond the supported size."""


# exhaustive prefix/suffix table enumeration: n=5 has 33^5 - 32^5 suffix tables
ENUMERATION_MAX_N = 4
# ordered tables through the layer bijection: n=6 has 11,467,387 of them
BIJECTION_MAX_N = 5
# fraction-free elimination runs on Python ints, one per matrix entry
RANK_EXACT_MAX_ENTRIES = 10**7
# primes must stay below this so that residues fit in int32 and products of
# two residues in int64
MOD_P_LIMIT = 2**31
# the CLI prints numbers in full, and Python converts at most 4300 digits
# of an int to a string: count(816) has 4,306 digits and table1's row 121
# has a 4,339-digit entry
COUNT_MAX_N = 815
TABLE1_MAX_N = 120
# schmidt's random automata draw states^2 * (alphabet + 2) * 2 moves, and an
# instance reads at most 2 * 20 strings of at most 6 letters: letters past
# 240 would only add moves that no string reads
RANDOM_ALPHABET_MAX = 240
# a random automaton keeps about states^2 * (alphabet + 2) moves, as tuples
# in sets, at 120-185 bytes of RSS each (66.6 MB at 40 states and 240
# letters, 55.2 MB at 400 states and one letter): this many keep one
# automaton, of which schmidt's workers hold one per CPU, near 370 MB
RANDOM_MOVES_MAX = 2_000_000

# schmidt --random decides a block of instances in one lane search.  At 3
# states and 2 letters, blocks of 6, 12, 16, 24 and 32 took about 65, 58, 59,
# 56 and 58 % of the time of one search each, and schmidt --random 300 peaked
# 0.10, 0.25, 0.26 and 0.36 MB higher at 12, 16, 24 and 32 than at 6; blocks
# of 12 ran 4-14 % faster than blocks of 6 at 1-6 states and 2-16 letters.
# At 20-240 letters, 50 states or near RANDOM_MOVES_MAX, blocks ran 1.04-1.6
# times slower.  Beyond these limits an automaton is a block of its own.
RANDOM_BLOCK_MAX = 12
RANDOM_BLOCK_MOVES = 2_000
RANDOM_BLOCK_ALPHABET = 16


def random_block(states: int, alphabet: int) -> int:
    """The instances per search of schmidt's random automata of this shape."""
    if alphabet > RANDOM_BLOCK_ALPHABET:
        return 1
    return max(1, min(RANDOM_BLOCK_MAX, RANDOM_BLOCK_MOVES // (states ** 2 * (alphabet + 2))))
