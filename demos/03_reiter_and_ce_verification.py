"""Reiter functions and invariance verification over a c.e. group.

A finitely supported positive function is n-invariant when the normalised
l1 defect of its pushforward under every shift from D is at most 1/n.
Over a c.e. group equality of codes is only enumerable, so the verifier
starts from the finest partition of the relevant codes and merges blocks
as equalities are enumerated; the blockwise defect only shrinks, which
makes an early success sound.
"""

from folnerlab import Budget, make_group
from folnerlab.folner import (
    ReiterFunction,
    UnionFind,
    partition_defect,
    reiter_defect,
    verify_invariance_ce,
)
from folnerlab.groups import parse_element

z = make_group("zd:1")
F = tuple(sorted(z.encode_vector((i,)) for i in range(5)))
chi = ReiterFunction.characteristic(F)
x = z.encode_vector((1,))
print("characteristic function of a length-5 interval, shift by +1:")
print("  reiter defect:", reiter_defect(z, chi, (x,))[x], "(exactly 2/5)")

rz = make_group("redundant-z")
xw = parse_element(rz, "x")
yx = parse_element(rz, "yx")
f = ReiterFunction.characteristic((xw, yx))
# a union-find starts with every code in its own block and is itself the
# code -> block map that partition_defect reads
part = UnionFind()
print("\npartition defects on redundant-z (support {x, yx}, shift x):")
print("  finest partition:", partition_defect(f, part, xw, rz.mult))
part.union(yx, rz.mult(xw, xw))
print("  after merging the value-2 fiber:",
      partition_defect(f, part, xw, rz.mult), "(halved)")

words = ["", "y", "yx", "yxx", "x^4", "x^5", "x^6", "x^7", "x^8", "x^9"]
codes = tuple(sorted(parse_element(rz, w) for w in words))
g10 = ReiterFunction.characteristic(codes)
print("\nten codes spelling x^0..x^9 with mixed spellings; true defect 2/10:")
for n in (4, 10):
    print("  n=%d:" % n, verify_invariance_ce(rz, n, (xw,), g10, Budget(10**5)))
print("  tiny budget:", verify_invariance_ce(rz, 4, (xw,), g10, Budget(3)))
