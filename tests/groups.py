"""Z[S3], the group ring of the smallest non-abelian group.

Over an abelian table g_i g_j = g_j g_i, so no test on one can tell a
product from its operands swapped; tests that must do so use S3.
"""
from itertools import permutations

from chaink0.rings import GroupRing

# The permutations of {0, 1, 2} in lexicographic order, the identity first;
# g_i g_j is the composition p_i . p_j, that is k -> p_i(p_j(k)).
PERMUTATIONS = sorted(permutations(range(3)))
S3 = GroupRing([[PERMUTATIONS.index(tuple(p[q[k]] for k in range(3)))
                 for q in PERMUTATIONS] for p in PERMUTATIONS])
