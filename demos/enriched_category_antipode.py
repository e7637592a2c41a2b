"""
Antipodes for a category enriched in comonoids
===============================================

"""

from hopfspan import hopf_structures as hs
from hopfspan.cat_backend import FinCategory
from hopfspan.spanv_core import product_category

# The carrier: a two-object groupoid whose homs are two-element sets,
# built as the indiscrete category on {x, y} times the group Z2.  Each
# hom set spans a two-dimensional hom object with grouplike comonoid,
# and composition linearizes the groupoid's composition.
torsor = product_category(
    FinCategory.indiscrete(["x", "y"]),
    FinCategory.from_monoid(["e", "b"],
                            {("e", "e"): "e", ("e", "b"): "b",
                             ("b", "e"): "b", ("b", "b"): "e"},
                            "e"))
pres = hs.enriched_from_groupoid(torsor)
mp = pres.monad
com = pres.comonoid_structure()

print("monad laws:      ", hs.check_monad(mp).summary())
print("bimonoid squares: ", hs.check_opmonoidal(mp, com).summary())
print("is Hopf:          ", bool(hs.is_hopf(mp, com)))

# The antipode family maps hom(x, y) to hom(y, x); for a linearized
# groupoid it inverts basis morphisms.  Solving the squares from
# scratch recovers exactly the family the constructor attached.
solved = hs.compute_antipode(pres)
agree = all(solved.family.sigma[p] == pres.antipode.sigma[p]
            for p in pres.antipode.sigma)
print("solved family equals inversion:", agree)

print("componentwise:", hs.check_antipode_group(pres).summary())
print("assembled:    ", hs.check_antipode_duoidal(pres).summary())

# Feed a deliberately wrong family through the same checkers: the
# identity on every hom is only an antipode when every hom includes the
# identities, which fails on the off-diagonal homs here.  Both routes
# must reject it, and for the same reason.
wrong = hs.AntipodeFamily(
    {(x, y): hs.vb.VMorphism.from_basis_map(
        pres.hom[(x, y)], pres.hom[(y, x)],
        lambda w, x=x, y=y: (next(iter(torsor.hom(x, y))),))
     for x in pres.objects for y in pres.objects})
componentwise = hs.check_antipode_group(pres, wrong)
assembled = hs.check_antipode_duoidal(pres, wrong)
print("wrong family componentwise:", componentwise.summary())
print("wrong family assembled:    ", assembled.summary())
print("verdicts agree:", componentwise.ok == assembled.ok)
