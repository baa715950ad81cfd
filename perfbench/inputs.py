"""Seeded workload inputs.

The seed changes what the program is given, never how much work it is:
the corpus workloads get the same groups in a seeded manifest order, and
the single-group workload gets its group with the points relabeled by a
seeded permutation (an isomorphic group whose element table, and so every
subgroup bitset, differs).
"""

from __future__ import annotations

import random

from groupgraph import load_corpus, realize
from groupgraph.perms import format_cycles

# elem_abelian(2,6) alone is 70% of a cold fast-tier pass (2,825 subgroups,
# about 17 s on a 2-core Xeon), so a pass that includes it cannot be
# repeated within one benchmark run; every other fast-tier group stays.
EXCLUDED = ("ea_2_6",)

# The single-group workload: a long-tier simple group (order 504 > 400),
# like psl2(13), but whose bundle takes about 9 s instead of 80 s.
BUNDLE_LABEL = "psl2_8"
BUNDLE_SPEC = "psl2(8)"


def bench_manifest(seed: int | None, *, labels=None) -> str:
    """The default manifest without EXCLUDED (or only ``labels``), in an
    order drawn from ``seed``; ``None`` keeps manifest order."""
    entries = [e for e in load_corpus() if e.label not in EXCLUDED
               and (labels is None or e.label in labels)]
    if seed is not None:
        random.Random(seed).shuffle(entries)
    return "".join(f"{e.label} = {e.spec_text}\n" for e in entries)


def relabeled_spec(spec: str, seed: int | None) -> str:
    """A ``raw(...)`` spec for ``spec`` with its points relabeled by a
    permutation drawn from ``seed``; ``None`` keeps the labels."""
    gens = realize(spec).generators
    degree = len(gens[0])
    sigma = list(range(degree))
    if seed is not None:
        random.Random(seed).shuffle(sigma)
    conjugated = []
    for g in gens:
        image = [0] * degree
        for i in range(degree):
            image[sigma[i]] = sigma[g[i]]
        conjugated.append(format_cycles(tuple(image)))
    return "raw(" + ", ".join(conjugated) + ")"
