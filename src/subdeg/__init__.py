"""Permutation-group toolkit: subdegrees, pairwise-coprime subdegree sets,
the coprime-index invariant mu, coprime factorizations, and a verification
harness over constructed and ingested group corpora.
"""

from .perm import (
    CycleParseError,
    Permutation,
    compose,
    format_cycles,
    inverse,
    order_of,
    parse_cycles,
)
from .groups import (
    Bsgs,
    BlockSystem,
    CapExceeded,
    PermGroup,
    contains,
    coset_action,
    elements,
    fixed_points,
    is_primitive,
    is_subgroup,
    is_transitive,
    minimal_block_system,
    normalizer_small,
    orbit,
    orbits,
    order,
    point_stabilizer,
    schreier_sims,
    sylow_subgroup_small,
)
from .analysis import (
    CoprimeClique,
    SuborbitProfile,
    check_stabilizer_normal_bound,
    common_divisor_graph,
    count_maximum_cliques,
    max_coprime_set,
    neumann_check,
    subdegrees,
    sylow_divisibility_check,
    weiss_check,
)
from .lattice import (
    SubgroupLattice,
    all_subgroups_small,
    check_mu_bound,
    coprime_factorizations,
    distinct_prime_factors,
    mu,
    mu_prime_bound,
)
from .constructions import (
    FiniteField,
    ProjectiveLine,
    agl,
    alternating,
    cyclic,
    dihedral,
    ksubsets_action,
    partition_action,
    psl2,
    symmetric,
)
from .corpus import (
    CoprimeReport,
    GroupFileError,
    analyze,
    builtin_entries,
    fixture_path,
    load_group,
    verify_corpus,
    write_group,
)

__version__ = "0.1.0"
