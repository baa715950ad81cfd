"""groupgraph: subgroup lattices of finite permutation groups, the
difference subgroup graph and its relatives, exact graph invariants, and a
verification harness over a reproducible corpus."""

__version__ = "0.1.0"

import os
import sys

# numpy's OpenBLAS starts a worker thread at import that spins for CPU
# time, and the package calls no BLAS routine: unless numpy is loaded
# already or the thread count is set, a process runs on one thread.
if "numpy" not in sys.modules and not any(
        name in os.environ for name in (
            "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .analytics import AnalysisReport, Graph, analyze, graphs_isomorphic
from .classify import GroupClassification, classify
from .corpus import Corpus, load_corpus
from .errors import (ActionTableError, BudgetExceeded, CacheError,
                     CapExceeded, CriteriaDisagreement, GroupGraphError,
                     NotNormal, RealizeError, SpecDomainError,
                     SpecSyntaxError)
from .graphs import SubgroupGraph, build_graph, star_reduction
from .groups import FiniteGroup, enumerate_elements, stabilizer_chain_order
from .harness import (HUNTS, REGISTRY, Budgets, GroupBundle, HuntFinding,
                      RunReport, TheoremCheck, TheoremVerdict, build_bundle,
                      find_gap3249_action, hunt, run_corpus, sweep, verify)
from .lattice import SubgroupLattice, all_subgroups
from .specs import GroupSpec, parse_group_spec, realize, register_action

__all__ = [
    "AnalysisReport", "Graph", "analyze", "graphs_isomorphic",
    "GroupClassification", "classify", "Corpus", "load_corpus",
    "ActionTableError", "BudgetExceeded", "CacheError", "CapExceeded",
    "CriteriaDisagreement", "GroupGraphError", "NotNormal", "RealizeError",
    "SpecDomainError", "SpecSyntaxError", "SubgroupGraph", "build_graph",
    "star_reduction", "FiniteGroup", "enumerate_elements",
    "stabilizer_chain_order", "HUNTS", "REGISTRY", "Budgets", "GroupBundle",
    "HuntFinding", "RunReport", "TheoremCheck", "TheoremVerdict",
    "build_bundle", "find_gap3249_action", "hunt", "run_corpus", "sweep",
    "verify",
    "SubgroupLattice", "all_subgroups", "GroupSpec", "parse_group_spec",
    "realize", "register_action", "__version__",
]
