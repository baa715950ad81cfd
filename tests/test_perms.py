import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupgraph import perms
from groupgraph.perms import (PermError, compose, cycles, format_cycles,
                              identity, inverse, parse_cycles)
from oracles import perm_order, power

perm_strategy = st.permutations(range(7)).map(tuple)


def test_identity_is_lexicographically_first():
    assert identity(5) == (0, 1, 2, 3, 4)
    assert all(identity(6) <= tuple(p) for p in [(1, 0, 2, 3, 4, 5), (0, 2, 1, 3, 4, 5)])


def test_compose_applies_left_then_right():
    r = parse_cycles("(0 1 2)", 3)
    s = parse_cycles("(0 1)", 3)
    assert compose(r, s)[0] == s[r[0]]


@given(st.integers(0, 12).flatmap(lambda d: st.tuples(
    st.permutations(range(d)), st.permutations(range(d)))))
def test_compose_matches_the_image_loop(pair):
    """Degrees 0 and 1 included, where ``itemgetter`` is not used."""
    p, q = (tuple(x) for x in pair)
    composed = compose(p, q)
    assert type(composed) is tuple
    assert composed == tuple(q[i] for i in p)


@given(perm_strategy, perm_strategy, perm_strategy)
def test_associativity(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perm_strategy)
def test_inverse_and_identity(p):
    assert compose(p, inverse(p)) == identity(7)
    assert compose(inverse(p), p) == identity(7)
    assert compose(p, identity(7)) == p


@given(perm_strategy)
def test_order_matches_power(p):
    k = perm_order(p)
    assert power(p, k) == identity(7)
    assert all(power(p, i) != identity(7) for i in range(1, min(k, 6)))


def test_parse_format_roundtrip():
    for text in ["(0 1 2)(3 4)", "(1 5)", "()", "(0 3)(1 4)(2 5)"]:
        p = parse_cycles(text)
        assert parse_cycles(format_cycles(p), len(p)) == p


def test_parse_accepts_commas_and_whitespace():
    assert parse_cycles("(0, 1, 2)") == parse_cycles("( 0 1 2 )")


def test_cycles_canonical():
    p = parse_cycles("(3 4)(0 1 2)", 5)
    assert cycles(p) == [(0, 1, 2), (3, 4)]


@pytest.mark.parametrize("bad", ["(0 1", "(0 0)", "(0 1)(1 2)", "0 1 2", "(x)"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(PermError):
        parse_cycles(bad)


def test_check_permutation():
    with pytest.raises(PermError):
        perms.check_permutation((0, 0, 1))
    assert perms.check_permutation([2, 0, 1]) == (2, 0, 1)


def test_shift_and_pad():
    p = parse_cycles("(0 1)", 2)
    assert perms.shift(p, 2, 5) == (0, 1, 3, 2, 4)
    assert perms.pad(p, 4) == (1, 0, 2, 3)
