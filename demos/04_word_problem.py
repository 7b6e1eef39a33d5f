"""Deciding multiplication from a Folner oracle.

A c.e. group whose Folner sets can be computed has a decidable word
problem: to test whether codes n1 * n2 = n3, fetch a 4-Folner set F for
{n1, n2, n3}, consume the multiplication-table enumeration collecting the
partial translation graphs on F, stop once each graph covers more than
3/4 of F, and check whether any start index chains consistently.
"""

from folnerlab import Budget, CEView, make_group
from folnerlab.folner import box_folner, decide_mult_from_folner, folner_oracle

z2 = make_group("zd:2")
ce = CEView(z2)  # the same group, exposed through enumerations only
budget = Budget(10**6)  # each decision scans at most this many table entries
oracle = folner_oracle(ce, budget)

triples = [
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (0, 1), (2, 2)),
    ((0, 0), (0, 0), (0, 0)),
    ((2, -1), (-1, 2), (1, 1)),
    ((2, -1), (-1, 2), (1, 2)),
]
for a, b, c in triples:
    codes = [z2.encode_vector(v) for v in (a, b, c)]
    got = decide_mult_from_folner(ce, oracle, *codes, budget)
    truth = (a[0] + b[0], a[1] + b[1]) == c
    print("%s + %s = %s ?  decided %-5s  (truth %s)" % (a, b, c, got, truth))

F = box_folner(z2, [z2.encode_vector(v) for v in ((1, 0), (0, 1), (1, 1))], 4)
print("\nthe 4-Folner set used for the first triple is a %d-point box" % len(F))
