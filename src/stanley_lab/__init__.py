"""stanley-lab: exact Stanley depth and depth of edge-ideal powers.

Monomial-ideal arithmetic, graph invariants, an exact Stanley-depth oracle
(characteristic-poset interval partitions), an exact depth oracle (multigraded
Koszul homology), certified lower bounds, and verifier-checked decomposition
certificates, with a CLI for sweeps and experiments.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    analytic_spread_edge,
    depth_by_trung,
    lower_sdepth_power,
    lower_sdepth_quotient_layers,
    lower_sdepth_s_mod_power,
    module_for,
    question_experiment,
    stanley_verdict,
)
from .constructions import (
    decompose_layer,
    decompose_power_general,
    decompose_power_tree,
    decompose_s_mod_power,
)
from .depth import (
    HomologyProfile,
    depth_exact,
    homology_profile,
    rank_int,
)
from .errors import (
    BudgetExceededError,
    ContradictionError,
    InputError,
    UndefinedValueError,
)
from .graphs import Graph, disjoint_union, enumerate_labeled_graphs, enumerate_trees, parse_graph, preset
from .monomials import MonomialIdeal, Multidegree, divides, minimalize
from .sdepth import (
    CharacteristicPoset,
    IntervalPartition,
    SdepthResult,
    SearchOutcome,
    build_poset,
    partition_to_decomposition,
    sdepth_exact,
    search_partition,
)
from .stanley import (
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    VerificationReport,
    concat,
    pin,
    shift,
    tensor,
    verify,
)
