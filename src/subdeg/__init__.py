"""Permutation-group toolkit: subdegrees, pairwise-coprime subdegree sets,
the coprime-index invariant mu, coprime factorizations, and a verification
harness over constructed and ingested group corpora.

`import subdeg` runs no submodule. Each public name below is imported from
its submodule on first access (PEP 562) and then cached here, so a command
pays only for the modules it uses.
"""

# public name -> the submodule that defines it; a submodule maps to itself
_SOURCE = {
    name: module
    for module, names in {
        "perm": "CycleParseError Permutation compose format_cycles inverse order_of parse_cycles",
        "groups": "Bsgs BlockSystem CapExceeded PermGroup contains coset_action elements fixed_points "
                  "is_primitive is_subgroup is_transitive minimal_block_system orbit orbits order "
                  "point_stabilizer schreier_sims sylow_subgroup_small",
        "numtheory": "",
        "analysis": "CoprimeClique SuborbitProfile check_stabilizer_normal_bound common_divisor_graph "
                    "count_maximum_cliques max_coprime_set neumann_check subdegrees "
                    "sylow_divisibility_check weiss_check",
        "lattice": "SubgroupLattice all_subgroups_small check_mu_bound coprime_factorizations "
                   "distinct_prime_factors mu mu_prime_bound",
        "constructions": "FiniteField ProjectiveLine agl alternating cyclic dihedral ksubsets_action "
                         "partition_action psl2 symmetric",
        "corpus": "CoprimeReport GroupFileError analyze builtin_entries fixture_path load_group "
                  "verify_corpus write_group",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
