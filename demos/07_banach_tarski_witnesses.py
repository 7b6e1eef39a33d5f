"""Witnesses of the Banach-Tarski paradox and the subgroup restriction.

A finite key witnesses the paradox exactly when the subgroup it generates
is non-amenable.  Over free (and free abelian) groups this is decided by a
commutation scan; a bounded search for Folner sets with respect to the key
provides refutations.  Folner sets of the ambient group restrict to the
subgroup along a coset slice.
"""

from folnerlab import Budget, make_group
from folnerlab.folner import is_n_folner, search_folner
from folnerlab.groups import parse_elements
from folnerlab.witness import (
    decide_witness_commutation,
    refute_witness_bounded,
    restrict_folner_to_subgroup,
    subgroup_membership,
)

free = make_group("free:2")
for text in ("a,b", "a,a^2", "ab,ba"):
    K = parse_elements(free, text)
    v = decide_witness_commutation(free, K)
    print("K = {%s}: %s (%s)" % (text, v.verdict, v.rationale))

z2 = make_group("zd:2")
K = parse_elements(z2, "(1,0),(0,1)")
print("\nzd:2 generators:", decide_witness_commutation(z2, K).verdict)

z1 = make_group("zd:1")
K1 = parse_elements(z1, "+1")
cert = refute_witness_bounded(z1, K1, 5, 5, Budget(10**6), radius=3)
print("refuting (K={+1}, n=5) in Z: found F of size %d with max defect %s"
      % (len(cert.F), cert.max_defect()))

gens = parse_elements(free, "a,a^-1,b,b^-1")
print("\nfree generators: a 4-Folner subset of size <= 6 in the radius-2 ball:",
      refute_witness_bounded(free, gens, 4, 6, Budget(10**7)))  # None: there is none

# subgroup membership engines
sub = subgroup_membership(free, parse_elements(free, "ab,a^2"))
probes = ["ab", "a^2", "aba^2", "a", "b"]
print("\nStallings membership in <ab, a^2>:",
      {w: sub.membership(parse_elements(free, w)[0]) for w in probes})

lat = subgroup_membership(z2, parse_elements(z2, "(2,0),(0,3)"))
print("lattice membership in <(2,0),(0,3)>: (4,3) ->",
      lat.membership(z2.encode_vector((4, 3))),
      " (1,0) ->", lat.membership(z2.encode_vector((1, 0))))

# restriction of an ambient Folner set to the subgroup
Ka = parse_elements(z2, "(1,0)")
n = 4
cert = search_folner(z2, Ka, n * len(Ka), Budget(10**6))
S = restrict_folner_to_subgroup(z2, Ka, n, cert.F)
ok, _ = is_n_folner(z2, S, Ka, n)
print("\nrestricting a %d-Folner set of zd:2 to <(1,0)>: slice of size %d, "
      "%d-Folner: %s" % (n * len(Ka), len(S), n, ok))
