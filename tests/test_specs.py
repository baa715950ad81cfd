import pytest

from groupgraph import groups, parse_group_spec, realize, register_action, specs
from groupgraph.errors import (ActionTableError, CapExceeded, RealizeError,
                               SpecDomainError, SpecSyntaxError)
from groupgraph.perms import parse_cycles
from oracles import perm_order, realization_fingerprint, realize_by_parts
from groupgraph.specs import GroupSpec


def test_parse_simple_constructor():
    spec = parse_group_spec("cyclic(6)")
    assert spec == GroupSpec("cyclic", (6,))


def test_parse_is_whitespace_insensitive():
    a = parse_group_spec("direct(dihedral(4),cyclic(3))")
    b = parse_group_spec("  direct( dihedral( 4 ) , cyclic( 3 ) ) ")
    assert a == b


def test_parse_semidirect_with_action_id():
    spec = parse_group_spec("semidirect(elem_abelian(2,3), elem_abelian(2,2), a0)")
    assert spec.kind == "semidirect"
    assert spec.args[2] == "a0"


def test_parse_raw():
    spec = parse_group_spec("raw((0 1 2)(3 4), (0 1))")
    assert spec.kind == "raw"
    assert spec.args[0] == parse_cycles("(0 1 2)(3 4)", 5)
    assert spec.args[1] == parse_cycles("(0 1)", 5)


@pytest.mark.parametrize("text,position", [
    ("raw()", 4), ("direct(cyclic(2), raw())", 22), ("raw((0 1), )", 11),
])
def test_raw_without_a_permutation_is_a_syntax_error(text, position):
    with pytest.raises(SpecSyntaxError,
                       match="expected a cycle-notation permutation") as err:
        parse_group_spec(text)
    assert err.value.position == position


def test_realize_raw_s3():
    assert realize("raw((0 1 2), (0 1))").order == 6


def test_parse_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_group_spec("cyclic(6,)")
    assert err.value.position > 0
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("unknown(3)")
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("cyclic(3) garbage")
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("direct(cyclic(2)")


@pytest.mark.parametrize("bad", [
    "psl2(6)", "psl2(16)", "elem_abelian(4,2)", "elem_abelian(2,0)",
    "cyclic(0)", "dihedral(2)", "semidirect(cyclic(3), cyclic(2), 5)",
])
def test_parse_domain_errors(bad):
    with pytest.raises(SpecDomainError):
        parse_group_spec(bad)


@pytest.mark.parametrize("text,order", [
    ("cyclic(1)", 1),
    ("cyclic(6)", 6),
    ("dihedral(3)", 6),
    ("dihedral(16)", 32),
    ("dicyclic(1)", 4),
    ("dicyclic(2)", 8),
    ("dicyclic(6)", 24),
    ("symmetric(1)", 1),
    ("symmetric(4)", 24),
    ("alternating(2)", 1),
    ("alternating(4)", 12),
    ("alternating(5)", 60),
    ("elem_abelian(3,2)", 9),
    ("elem_abelian(2,4)", 16),
    ("psl2(2)", 6),
    ("psl2(3)", 12),
    ("psl2(4)", 60),
    ("psl2(5)", 60),
    ("psl2(7)", 168),
    ("psl2(8)", 504),
    ("psl2(9)", 360),
    ("direct(dihedral(4), cyclic(3))", 24),
    ("semidirect(cyclic(5), cyclic(8), z5_by_doubling)", 40),
    ("semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)", 27),
    ("semidirect(cyclic(9), cyclic(3), z9_by_pow4)", 27),
    ("semidirect(elem_abelian(2,3), elem_abelian(2,2), gap3249)", 32),
])
def test_realize_orders(text, order):
    assert realize(text).order == order


def test_psl27_acts_on_projective_line():
    g = realize("psl2(7)")
    assert (g.order, g.degree) == (168, 8)


def test_q8_has_unique_involution():
    q8 = realize("dicyclic(2)")
    assert sum(1 for p in q8.elements if perm_order(p) == 2) == 1


def test_extraspecial_27_exponents_differ():
    exp3 = realize("semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)")
    exp9 = realize("semidirect(cyclic(9), cyclic(3), z9_by_pow4)")
    assert int(exp3.element_orders.max()) == 3
    assert int(exp9.element_orders.max()) == 9


def test_realize_is_reproducible():
    a = realize("direct(dihedral(4), cyclic(3))")
    b = realize("direct(dihedral(4), cyclic(3))")
    assert a.table_bytes() == b.table_bytes()
    assert a.elements == b.elements


def test_canonical_generators_frozen():
    assert realize("cyclic(5)").generators == ((1, 2, 3, 4, 0),)
    assert realize("symmetric(4)").generators == ((1, 0, 2, 3), (1, 2, 3, 0))
    assert realize("dihedral(4)").generators == ((1, 2, 3, 0), (0, 3, 2, 1))
    assert realize("alternating(4)").generators == ((1, 2, 0, 3), (0, 2, 3, 1))
    assert realize("alternating(5)").generators == ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0))


def test_unknown_action_rejected_at_realize():
    spec = parse_group_spec("semidirect(elem_abelian(2,3), elem_abelian(2,2), a0)")
    with pytest.raises(ActionTableError, match="unknown action id 'a0'"):
        realize(spec)


def test_action_table_must_be_a_homomorphism():
    # x -> 2x has order 4 in Aut(Z5); a Z3 acting that way is no action
    register_action("bad_z5_action", [("(0 2 4 1 3)",)])
    with pytest.raises(ActionTableError, match="not a homomorphism"):
        realize("semidirect(cyclic(5), cyclic(3), bad_z5_action)")


def test_action_image_must_be_an_element():
    register_action("bad_image", [("(0 1)",)])
    with pytest.raises(ActionTableError, match="not an element"):
        realize("semidirect(cyclic(5), cyclic(3), bad_image)")


def test_action_image_must_be_an_automorphism():
    # sending the generator of Z4 to the involution is no automorphism
    register_action("bad_aut", [("(0 2)(1 3)",)])
    with pytest.raises(ActionTableError, match="bijection|automorphism"):
        realize("semidirect(cyclic(4), cyclic(2), bad_aut)")


def test_order_cap():
    with pytest.raises(CapExceeded):
        realize("symmetric(8)")
    assert realize("symmetric(8)", order_cap=50000).order == 40320


def test_semidirect_records_parts():
    g = realize("semidirect(cyclic(5), cyclic(8), z5_by_doubling)")
    assert g.semidirect_normal_mask.bit_count() == 5
    assert g.semidirect_complement_mask.bit_count() == 8
    assert g.semidirect_normal_mask & g.semidirect_complement_mask == 1


def test_spec_label_roundtrip():
    g = realize("direct(dihedral(3), cyclic(5))")
    assert g.spec_label == "direct(dihedral(3), cyclic(5))"
    assert realize(g.spec_label).table_bytes() == g.table_bytes()


def test_realize_matches_realizing_by_parts(corpus):
    extra = ["psl2(8)", "psl2(11)", "psl2(13)", "symmetric(6)", "dicyclic(16)",
             "direct(direct(cyclic(2), cyclic(3)), "
             "semidirect(cyclic(5), cyclic(8), z5_by_doubling))",
             "direct(raw((0 1 2)), dihedral(4))"]
    texts = [e.spec_text for e in corpus] + extra
    for text in texts:
        assert realization_fingerprint(realize(text)) \
            == realization_fingerprint(realize_by_parts(text)), text


def test_direct_product_is_enumerated_and_certified_once(monkeypatch):
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(groups, "enumerate_elements",
                        spy("bfs", groups.enumerate_elements))
    monkeypatch.setattr(specs, "stabilizer_chain_order",
                        spy("certificate", specs.stabilizer_chain_order))
    assert realize("direct(dihedral(4), cyclic(3))").order == 24
    assert sorted(calls) == ["bfs", "certificate"]


# per constructor: a spec the parser accepts, and arguments _validate rejects
# (None for raw: the parser rejects raw() before _validate sees it)
CONSTRUCTORS = {
    "cyclic": ("cyclic(4)", (0,)),
    "dihedral": ("dihedral(4)", (2,)),
    "dicyclic": ("dicyclic(2)", (0,)),
    "symmetric": ("symmetric(3)", (0,)),
    "alternating": ("alternating(4)", (0,)),
    "elem_abelian": ("elem_abelian(2,2)", (4, 2)),
    "psl2": ("psl2(3)", (6,)),
    "raw": ("raw((0 1))", None),
    "direct": ("direct(cyclic(2), cyclic(3))", (GroupSpec("cyclic", (2,)), 3)),
    "semidirect": ("semidirect(cyclic(5), cyclic(8), z5_by_doubling)",
                   (GroupSpec("cyclic", (5,)), GroupSpec("cyclic", (8,)), 5)),
}


def test_the_table_holds_exactly_the_constructors_the_parser_accepts():
    assert set(specs._KINDS) == set(CONSTRUCTORS)
    for kind, (text, bad_args) in CONSTRUCTORS.items():
        assert parse_group_spec(text).kind == kind
        if bad_args is not None:
            with pytest.raises(SpecDomainError):
                specs._validate(GroupSpec(kind, bad_args), 0)
    with pytest.raises(SpecSyntaxError, match="unknown constructor"):
        parse_group_spec("quaternion(2)")


def test_a_wrong_factor_fails_the_direct_products_order_check(monkeypatch):
    # cyclic(n) made to give the trivial group on n points
    wrong = specs._KINDS["cyclic"]._replace(
        generators=lambda _cap, n: [tuple(range(n))])
    monkeypatch.setitem(specs._KINDS, "cyclic", wrong)
    with pytest.raises(RealizeError, match="theoretical order 15"):
        realize("direct(cyclic(5), cyclic(3))")


def test_a_factor_whose_action_is_no_homomorphism_is_caught():
    register_action("bad_z5_action", [("(0 2 4 1 3)",)])
    assert realize("direct(cyclic(2), semidirect(cyclic(5), cyclic(4), "
                   "bad_z5_action))").order == 40
    with pytest.raises(RealizeError, match="theoretical order 30"):
        realize("direct(cyclic(2), semidirect(cyclic(5), cyclic(3), "
                "bad_z5_action))")
