import hashlib
import logging

import pytest

from groupgraph import all_subgroups, realize
from groupgraph.cache import (FORMAT_VERSION, cache_path, lattice_from_text,
                              lattice_to_text, load_or_compute)
from groupgraph.cli import main as cli_main
from groupgraph.errors import CacheError, CriteriaDisagreement
from groupgraph.groups import FiniteGroup
from groupgraph.lattice import Subgroup, SubgroupLattice


def test_roundtrip_is_bit_identical(tmp_path):
    g = realize("symmetric(4)")
    lat, hit = load_or_compute(g, tmp_path)
    assert not hit
    file_text = cache_path(tmp_path, g).read_text()
    assert file_text == lattice_to_text(lat)
    lat2, hit2 = load_or_compute(g, tmp_path)
    assert hit2
    assert lattice_to_text(lat2) == file_text
    assert lat2.supersets == lat.supersets
    assert lat2.is_maximal == lat.is_maximal
    assert lat2.conj_class_of == lat.conj_class_of
    assert lat2.frattini_id == lat.frattini_id
    assert lat2.sylow_index == lat.sylow_index


def test_cache_matches_fresh_computation(tmp_path):
    g = realize("dicyclic(4)")
    load_or_compute(g, tmp_path)
    cached, hit = load_or_compute(realize("dicyclic(4)"), tmp_path)
    assert hit
    fresh = all_subgroups(realize("dicyclic(4)"))
    assert lattice_to_text(cached) == lattice_to_text(fresh)


def test_same_element_table_hits_across_presentations(tmp_path):
    # symmetric(3) and dihedral(3) enumerate to the same canonical table
    a = realize("symmetric(3)")
    b = realize("dihedral(3)")
    assert a.table_bytes() == b.table_bytes()
    assert a.table_digest == b.table_digest
    load_or_compute(a, tmp_path)
    _, hit = load_or_compute(b, tmp_path)
    assert hit


def test_table_digest_is_pinned():
    # the digest names the cache files, so a change to the table encoding
    # would silently orphan every existing entry
    assert realize("symmetric(3)").table_digest == (
        "cdafb8de994f33c80fda645e311c326e6276b3f6fde9fd74abcfa363455955a0")
    assert realize("psl2(7)").table_digest == (
        "b4657bdff3672140743e4a7381f22335808bcb111d1eac701f93aedf8dfb4884")


def test_element_table_is_encoded_once_per_group(tmp_path, monkeypatch):
    group = realize("psl2(7)")
    encoded = []
    real = FiniteGroup.table_bytes

    def spy(self):
        encoded.append(self)
        return real(self)

    monkeypatch.setattr(FiniteGroup, "table_bytes", spy)
    lat, _ = load_or_compute(group, tmp_path)
    assert lattice_from_text(group, lattice_to_text(lat)).subgroups \
        == lat.subgroups
    assert load_or_compute(group, tmp_path)[1]
    assert cache_path(tmp_path, group).name == group.table_digest + ".lattice"
    assert encoded == [group]
    assert group.table_digest == hashlib.sha256(real(group)).hexdigest()


def test_degree_beyond_16_bits_is_a_cache_error(tmp_path, capsys):
    wide = realize("raw((0 70000))")
    for _ in range(2):  # a failed encoding leaves no digest behind
        with pytest.raises(CacheError, match="degree 70001"):
            wide.table_digest
    code = cli_main(["group", "raw((0 70000))", "--cache", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("groupgraph: error: cannot key a group of degree")
    assert "Traceback" not in err
    assert cli_main(["group", "raw((0 65535))", "--cache", str(tmp_path)]) == 0


def test_different_groups_do_not_collide(tmp_path):
    a = realize("cyclic(6)")
    b = realize("dihedral(3)")
    assert cache_path(tmp_path, a) != cache_path(tmp_path, b)


def test_corrupted_entry_is_recomputed(tmp_path, caplog):
    g = realize("dihedral(4)")
    load_or_compute(g, tmp_path)
    path = cache_path(tmp_path, g)
    path.write_text(path.read_text().replace("sub 2", "sub 3", 1))
    with caplog.at_level(logging.WARNING):
        lat, hit = load_or_compute(g, tmp_path)
    assert not hit
    assert any("discarding" in rec.message for rec in caplog.records)
    assert lat.subgroup_count() == 10
    # and the bad entry was overwritten with a good one
    _, hit2 = load_or_compute(g, tmp_path)
    assert hit2


def test_version_1_entry_is_discarded_and_rewritten(tmp_path, caplog):
    # version 2 entries carried sylow and frattini records; both versions
    # are discarded the same way
    for old_version in ("1", "2"):
        g = realize("dihedral(4)")
        load_or_compute(g, tmp_path)
        path = cache_path(tmp_path, g)
        body = path.read_text().rstrip("\n").rpartition("\n")[0]
        body = body.replace(f"groupgraph-lattice-cache {FORMAT_VERSION}\n",
                            f"groupgraph-lattice-cache {old_version}\n", 1)
        path.write_text(
            f"{body}\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n")
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            lat, hit = load_or_compute(g, tmp_path)
        assert not hit
        assert any("discarding" in rec.message and "version" in rec.message
                   for rec in caplog.records)
        assert path.read_text() == lattice_to_text(lat)
        assert path.read_text().startswith(
            f"groupgraph-lattice-cache {FORMAT_VERSION}\n")


def test_entry_missing_its_frattini_subgroup_is_recomputed(tmp_path, caplog):
    # the Frattini subgroup is derived on load; an entry that lacks it has
    # a valid checksum but cannot be annotated
    g = realize("dihedral(4)")
    lat, _ = load_or_compute(g, tmp_path)
    path = cache_path(tmp_path, g)
    lines = path.read_text().splitlines()[:-1]
    frattini_line = 2 + lat.frattini_id
    labels: dict[int, int] = {}
    conj = [labels.setdefault(c, len(labels)) for i, c
            in enumerate(lat.conj_class_of) if i != lat.frattini_id]
    lines = lines[:frattini_line] + lines[frattini_line + 1:-1] + \
        ["conj " + " ".join(str(c) for c in conj)]
    body = "\n".join(lines)
    path.write_text(
        f"{body}\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n")
    with caplog.at_level(logging.WARNING):
        fresh, hit = load_or_compute(g, tmp_path)
    assert not hit
    assert any("discarding" in rec.message for rec in caplog.records)
    assert lattice_to_text(fresh) == lattice_to_text(lat)


def test_dot_output_is_identical_cold_and_warm(tmp_path, capsys):
    args = ["graph", "symmetric(4)", "--kind", "d", "--format", "dot",
            "--cache", str(tmp_path)]
    assert cli_main(args) == 0
    cold = capsys.readouterr().out
    assert len(list(tmp_path.glob("*.lattice"))) == 1
    assert cli_main(args) == 0
    warm = capsys.readouterr().out
    assert cold.startswith("graph difference {")
    assert warm == cold


def test_wrong_group_entry_is_rejected():
    g = realize("cyclic(6)")
    other = realize("cyclic(8)")
    text = lattice_to_text(all_subgroups(g))
    with pytest.raises(CacheError):
        lattice_from_text(other, text)


def test_truncated_entry_is_rejected():
    g = realize("cyclic(6)")
    text = lattice_to_text(all_subgroups(g))
    with pytest.raises(CacheError):
        lattice_from_text(g, text[: len(text) // 2])


def test_no_cache_dir_means_compute():
    g = realize("cyclic(10)")
    lat, hit = load_or_compute(g, None)
    assert not hit and lat.subgroup_count() == 4


def rechecksummed(group, edit) -> str:
    """The cache entry of ``group`` with ``edit`` applied to its sub
    records and class labels, under a valid checksum."""
    lines = lattice_to_text(all_subgroups(group)).splitlines()
    head, subs, conj = lines[:2], lines[2:-2], lines[-2].split()[1:]
    subs, conj = edit(subs, conj)
    body = "\n".join(head + subs + ["conj " + " ".join(conj)])
    return f"{body}\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n"


def relabel(conj):
    labels: dict[str, str] = {}
    return [labels.setdefault(c, str(len(labels))) for c in conj]


def swap_order_two_records(subs, conj):
    # symmetric(3): 1, three subgroups of order 2, one of order 3, G
    subs[1], subs[2] = subs[2], subs[1]
    return subs, conj


def rehint(pos: int, hint: str):
    """An edit that replaces the hint field of sub record ``pos``."""
    def edit(subs, conj):
        subs = list(subs)
        subs[pos] = subs[pos].rpartition(" ")[0] + " " + hint
        return subs, conj
    return edit


def hint_of(pos: int) -> str:
    return lattice_to_text(all_subgroups(realize("symmetric(3)"))) \
        .splitlines()[2 + pos].rpartition(" ")[2]


@pytest.mark.parametrize("edit,message", [
    (lambda subs, conj: (subs[1:], relabel(conj[1:])),
     "first subgroup is not the trivial group"),
    (lambda subs, conj: (subs[:-1], conj[:-1]),
     "last subgroup is not the whole group"),
    (lambda subs, conj: ([subs[0], subs[1].replace("sub 2", "sub 3", 1)]
                         + subs[2:], conj),
     "has order field 3, but 2 members"),
    (swap_order_two_records, "not in strictly increasing"),
    (lambda subs, conj: (subs[:2] + subs[1:], conj[:2] + conj[1:]),
     "not in strictly increasing"),
    # the hint of another order-2 subgroup, one generator of S3, and
    # indices past either end of the element table
    (rehint(1, hint_of(2)), "does not generate subgroup 1"),
    (rehint(5, hint_of(5).split(",")[0]), "does not generate subgroup 5"),
    (rehint(1, "6"), "does not generate subgroup 1"),
    (rehint(4, "-1"), "out of range"),
], ids=["no-trivial", "no-whole-group", "order-field", "swapped",
        "repeated", "other-hint", "short-hint", "hint-past-end",
        "negative-hint"])
def test_entry_that_misstates_its_structure_is_recomputed(
        tmp_path, caplog, edit, message):
    """A checksummed entry whose records do not run from the trivial group
    to G in canonical order, with true orders and hints that generate
    their subgroups, is a CacheError, and ``load_or_compute`` discards it
    with a log line and recomputes."""
    group = realize("symmetric(3)")
    text = rechecksummed(group, edit)
    with pytest.raises(CacheError, match=message):
        lattice_from_text(group, text)
    path = cache_path(tmp_path, group)
    path.write_text(text)
    with caplog.at_level(logging.WARNING):
        lat, hit = load_or_compute(group, tmp_path)
    assert not hit
    assert any("discarding" in rec.message and message in rec.message
               for rec in caplog.records)
    assert path.read_text() == lattice_to_text(lat) \
        == lattice_to_text(all_subgroups(group))


@pytest.mark.parametrize("pos,hint", [(1, (2,)), (5, (1,)), (1, (6,)),
                                      (4, (-1,))])
def test_the_same_hints_raise_on_a_lattice_in_memory(pos, hint):
    """The hint edits above, made to the subgroups of a lattice built in
    memory, raise when the lattice is annotated."""
    group = realize("symmetric(3)")
    lat = all_subgroups(group)
    subgroups = list(lat.subgroups)
    subgroups[pos] = Subgroup(subgroups[pos].mask, subgroups[pos].order, hint)
    with pytest.raises(CriteriaDisagreement):
        SubgroupLattice(group, subgroups, lat.conj_class_of)


def test_structure_checks_pass_on_the_untouched_entry():
    group = realize("symmetric(3)")
    text = rechecksummed(group, lambda subs, conj: (subs, conj))
    assert text == lattice_to_text(all_subgroups(group))
    assert lattice_from_text(group, text).subgroup_count() == 6
