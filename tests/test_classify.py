import pytest

from groupgraph import classify
from groupgraph.classify import (derived_series_orders, is_abelian,
                                 is_dedekind, is_iwasawa, is_nilpotent,
                                 is_simple, is_solvable, is_supersolvable)


@pytest.mark.parametrize("text,expected", [
    ("cyclic(6)", True), ("dihedral(3)", False), ("dicyclic(2)", False),
])
def test_is_abelian(make, text, expected):
    g, _ = make(text)
    assert is_abelian(g) == expected


@pytest.mark.parametrize("text,expected", [
    ("dicyclic(2)", True), ("dihedral(4)", False), ("cyclic(30)", True),
    ("elem_abelian(2,3)", True),
])
def test_is_dedekind(make, text, expected):
    g, lat = make(text)
    assert is_dedekind(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("dicyclic(2)", True),
    ("direct(cyclic(4), dicyclic(2))", False),   # the classic non-Iwasawa case
    ("dihedral(3)", False),
])
def test_is_iwasawa(make, text, expected):
    g, lat = make(text)
    assert is_iwasawa(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("dihedral(4)", True), ("dihedral(3)", False),
    ("direct(cyclic(4), dicyclic(2))", True),
])
def test_is_nilpotent(make, text, expected):
    g, lat = make(text)
    assert is_nilpotent(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("symmetric(4)", True), ("alternating(5)", False), ("dicyclic(4)", True),
    ("elem_abelian(3,3)", True), ("psl2(7)", False),
])
def test_is_solvable(make, text, expected):
    g, lat = make(text)
    assert is_solvable(g, lat) == expected


def test_derived_series_of_s4():
    from groupgraph import realize
    assert derived_series_orders(realize("symmetric(4)")) == [24, 12, 4, 1]
    assert derived_series_orders(realize("alternating(5)")) == [60]


@pytest.mark.parametrize("text,expected", [
    ("dihedral(3)", True), ("alternating(4)", False), ("symmetric(4)", False),
    ("dihedral(6)", True), ("semidirect(cyclic(5), cyclic(8), z5_by_doubling)", True),
])
def test_is_supersolvable(make, text, expected):
    g, lat = make(text)
    assert is_supersolvable(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("alternating(5)", True), ("cyclic(7)", True), ("symmetric(4)", False),
    ("psl2(7)", True), ("cyclic(1)", False), ("cyclic(4)", False),
])
def test_is_simple(make, text, expected):
    g, lat = make(text)
    assert is_simple(g, lat) == expected


@pytest.mark.parametrize("text", [
    "cyclic(16)", "dihedral(5)", "dicyclic(2)", "symmetric(4)",
    "alternating(4)", "alternating(5)", "direct(cyclic(4), dicyclic(2))",
    "semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)",
    "semidirect(elem_abelian(2,3), elem_abelian(2,2), gap3249)",
    "psl2(5)",
])
def test_implication_chain_holds(make, text):
    g, lat = make(text)
    c = classify(g, lat)   # classify() itself asserts the chain
    assert c.dedekind == is_dedekind(g, lat)
    assert c.iwasawa == is_iwasawa(g, lat)
    if c.abelian:
        assert c.dedekind and c.nilpotent
    if c.dedekind:
        assert c.iwasawa
    if c.nilpotent:
        assert c.supersolvable
    if c.supersolvable:
        assert c.solvable
    if c.p_group is not None:
        assert c.nilpotent


def test_p_group_detection(make):
    g, lat = make("dicyclic(4)")
    assert classify(g, lat).p_group == 2
    g, lat = make("cyclic(6)")
    assert classify(g, lat).p_group is None


def test_witnesses_present(make):
    g, lat = make("dihedral(3)")
    c = classify(g, lat)
    assert "non_normal_subgroup" in c.witnesses
    assert "non_normal_sylow" in c.witnesses
    assert "non_permutable_pair" in c.witnesses
    assert c.witnesses["derived_series_orders"] == (6, 3, 1)


def test_json_keys(make):
    g, lat = make("cyclic(6)")
    keys = set(classify(g, lat).to_json_dict())
    assert keys == {"abelian", "dedekind", "iwasawa", "nilpotent", "solvable",
                    "supersolvable", "simple", "p_group"}
