import time

import pytest

from groupgraph import (all_subgroups, build_graph, load_corpus, realize,
                        run_corpus)


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
