import random

import pytest

from ufabound import statesets


def test_full_mask_leaves_bit_zero_clear():
    assert statesets.full_mask(3) == 0b1110
    assert statesets.full_mask(1) == 0b10


def test_mask_roundtrip():
    for s in [set(), {1}, {2, 5}, {1, 2, 3}]:
        assert set(statesets.elements(statesets.mask_of(s))) == s


def test_format_and_parse():
    assert statesets.format_set(0) == "-"
    assert statesets.format_set(statesets.mask_of({3, 1})) == "1,3"
    assert statesets.parse_set("-", 4) == 0
    assert statesets.parse_set(" 2,4 ", 4) == statesets.mask_of({2, 4})
    with pytest.raises(ValueError):
        statesets.parse_set("5", 4)
    with pytest.raises(ValueError):
        statesets.parse_set("0", 4)


def test_is_subset():
    assert statesets.is_subset(0b0110, 0b1110)
    assert not statesets.is_subset(0b1110, 0b0110)


def test_check_n_limits():
    statesets.check_n(1)
    statesets.check_n(30)
    with pytest.raises(ValueError):
        statesets.check_n(0)


@pytest.mark.parametrize("count", [0, 1, 8, 9, 115])
@pytest.mark.parametrize("width", [0, 1, 8, 9, 373])
def test_transpose_against_a_bit_probe(count, width):
    # up to 8 rows, rows of up to 8 bits and the rest each take their own
    # path; the counts and widths sit on both sides of both thresholds
    rng = random.Random(count * 1000 + width)
    for rows in ([rng.getrandbits(width) if width else 0 for _ in range(count)],
                 [(1 << width) - 1] * count, [0] * count):
        want = [sum((row >> i & 1) << j for j, row in enumerate(rows)) for i in range(width)]
        assert statesets.transpose(rows, width) == want
