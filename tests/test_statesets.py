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
