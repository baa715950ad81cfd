import time

import pytest

from groupgraph import (all_subgroups, build_graph, load_corpus, realize,
                        run_corpus)
from groupgraph.corpus import parse_manifest

MINI_MANIFEST = """
# tiny corpus for harness, lattice and table tests
s3 = dihedral(3)
d4 = dihedral(4)
a4 = alternating(4)
z6 = cyclic(6)
z4 = cyclic(4)
a5 = alternating(5)
q8 = dicyclic(2)
z4xq8 = direct(cyclic(4), dicyclic(2))
s3xz5 = direct(dihedral(3), cyclic(5))
s3xz7 = direct(dihedral(3), cyclic(7))
es27_exp3 = semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)
gap_32_49_like = semidirect(elem_abelian(2,3), elem_abelian(2,2), gap3249)
"""


@pytest.fixture(scope="session")
def make():
    """Memoized (group, lattice) factory keyed by spec text."""
    store = {}

    def get(spec_text):
        if spec_text not in store:
            group = realize(spec_text)
            store[spec_text] = (group, all_subgroups(group))
        return store[spec_text]

    return get


@pytest.fixture(scope="session")
def dgraph(make):
    """Memoized subgroup-graph factory, difference graph by default."""
    store = {}

    def get(spec_text, kind="difference"):
        key = (spec_text, kind)
        if key not in store:
            _, lat = make(spec_text)
            store[key] = build_graph(lat, kind)
        return store[key]

    return get


@pytest.fixture(scope="session")
def mini_corpus():
    return parse_manifest(MINI_MANIFEST)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("lattice-cache"))


@pytest.fixture(scope="session")
def fast_report(corpus, shared_cache):
    """The fast-tier report; it leaves every fast-tier lattice in
    ``shared_cache``."""
    start = time.perf_counter()
    report = run_corpus(corpus, tier="fast", threads=1,
                        cache_dir=shared_cache)
    report.elapsed = time.perf_counter() - start
    return report
