"""The capacity limits of the package and the error raised beyond them."""


class CapacityError(ValueError):
    """Raised when an exact computation is requested beyond the supported size."""


# state masks set bits 1..n of the witness row kernel's np.int32 arrays
MAX_N = 30
# exhaustive prefix/suffix table enumeration: n=5 has 33^5 - 32^5 suffix tables
ENUMERATION_MAX_N = 4
# ordered tables through the layer bijection: n=6 has 11,467,387 of them
BIJECTION_MAX_N = 5
# fraction-free elimination runs on Python ints, one per matrix entry
RANK_EXACT_MAX_ENTRIES = 10**7
# primes must stay below this so that products of two residues fit in int64
MOD_P_LIMIT = 2**31
