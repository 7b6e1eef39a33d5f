"""Hall harem matchings: finite pieces and the infinite back-and-forth.

A perfect (1,k)-matching gives every left vertex exactly k partners and
every right vertex exactly one.  On an infinite graph oracle whose finite
subsets expand enough (the witness function quantifies how much), the
matching is built star by star: alternate sides, cut out a ball around the
next unresolved vertex, solve a relaxed finite matching there, commit only
the star of that vertex, repeat.  Committed answers never change.
"""

from folnerlab import Budget, make_group
from folnerlab.groups import ball, parse_elements
from folnerlab.harem import (
    FiniteBipartite,
    cehhc_spot_check,
    finite_harem_match,
    harem_new,
    harem_query,
    harem_step,
    linear_witness,
    matching_dump,
)
from folnerlab.paradox import cayley_bipartite

# -- finite: lower-bounded flow ---------------------------------------------

fg = FiniteBipartite(
    A=(0, 2), B=(1, 3, 5), adj={0: (1, 3, 5), 2: (1, 3, 5)},
    boundary_B=frozenset([5]),
)
print("2 lefts, 3 rights, boundary {5}, k=1 ->", finite_harem_match(fg, 1))
print("same but k=2 needs 4 distinct rights ->", finite_harem_match(fg, 2))

# -- infinite: the doubling graph of the free group -------------------------

free = make_group("free:2")
K = ball(free, parse_elements(free, "a,b"), 1)
gamma = cayley_bipartite(free, K)
print("\nexpansion spot check on 3 samples:",
      cehhc_spot_check(gamma, linear_witness(1), 1,
                       [(0,), (1, 3), (2, 4, 6)]) or "no violations")

st = harem_new(gamma, 1)
for _ in range(8):
    harem_step(st)
print("\nmatching dump after 8 steps:")
print(matching_dump(st))

partner = harem_query(st, 0, Budget(10))
print("\nleft code 0 is matched to right code(s)", partner)
