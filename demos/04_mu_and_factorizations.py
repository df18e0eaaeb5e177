"""Subgroup lattices, mu, and coprime factorizations.

mu(G) is the largest number of proper subgroups with pairwise coprime
indices. It bounds how many coprime subdegrees a suitable overgroup can
show, and it is tied to factorizations G = AB with coprime indices.
"""
from subdeg import (
    all_subgroups_small,
    alternating,
    check_mu_bound,
    check_stabilizer_normal_bound,
    coprime_factorizations,
    dihedral,
    distinct_prime_factors,
    mu,
    mu_prime_bound,
    point_stabilizer,
    symmetric,
)

# Full subgroup lattice of A5: 59 subgroups, 3 conjugacy classes of maximal ones.
A5 = alternating(5)
lat = all_subgroups_small(A5)
maximal_orders = sorted({s.order for s in lat.maximal()})
print(f"A5: {len(lat)} subgroups, maximal orders {maximal_orders}")

# mu(A5) = 2: indices 5 (A4) and 6 (D5) are coprime, and no third fits.
print(f"mu(A5) = {mu(A5, lattice=lat)}")
print(f"mu(S4) = {mu(symmetric(4))}")
print(f"mu(D4) = {mu(dihedral(4))}  <- a 2-group: all indices even")

# mu can never exceed the number of distinct primes dividing |G|.
print(f"primes of 60: {distinct_prime_factors(60)}, bound {mu_prime_bound(60)}")

# Coprime factorizations: every pair satisfies |A||B| = |G||A meet B|.
pairs = coprime_factorizations(A5, lattice=lat)
maximal_pairs = sorted({(f.index_a, f.index_b) for f in pairs if f.both_maximal})
print(f"A5 coprime factorizations: {len(pairs)}, maximal index pairs {maximal_pairs}")

# The structural bound behind the main theorem: if N is normal in a point
# stabilizer and fixes only that point, the clique size is at most mu(N).
verdict = check_stabilizer_normal_bound(A5, 0, point_stabilizer(A5, 0))
print(
    f"stabilizer bound on A5: clique {verdict.clique_size} <= mu(N) {verdict.mu_value}"
    f" -> holds {verdict.holds}"
)
print(f"check_mu_bound(A4), mu <= 2: {check_mu_bound(alternating(4)).holds}")
