"""
A group algebra as a Hopf monad, checked end to end
====================================================

"""

from fractions import Fraction

# the one-object presentations and their checkers
from hopfspan import hopf_structures as hs
from hopfspan.vect_backend import BraidParam

# Start with the two-element group.  Every element carries the group
# algebra itself, multiplication follows the table, and each basis
# element is grouplike: delta(g) = g (x) g, eps(g) = 1.
pres = hs.cyclic_group_algebra(2)
mp = pres.monad
com = pres.comonoid_structure()

print("monad laws:     ", hs.check_monad(mp).summary())
print("bimonoid squares:", hs.check_opmonoidal(mp, com).summary())

# The left fusion cell composes comultiplication into multiplication.
# Over a group its span map sends a composable pair (h, k) to (hk, h),
# a bijection, and each matrix component is a permutation.
fusion = hs.left_fusion(mp, com)
for atom in fusion.source.span.apex:
    (h, _), (k, _) = atom
    image = fusion.morphism.map(atom)
    print("fusion sends (%s, %s) to %s, permutation: %s"
          % (h, k, image[1], fusion.components[atom].is_permutation()))

print("is Hopf:", bool(hs.is_hopf(mp, com)))

# Solving the two antipode squares element by element recovers group
# inversion, and the solution is unique.
solved = hs.compute_antipode(pres)
for a in pres.elements:
    print("sigma_%s =" % a, [list(map(str, row))
                             for row in solved.family.sigma[a].entries])

# The same squares can be read two ways: componentwise over the shape,
# or assembled inside the convolution-style product on endo cells.
# Both verdicts must agree.
print("componentwise antipode:", hs.check_antipode_group(pres).summary())
print("assembled antipode:    ", hs.check_antipode_duoidal(pres).summary())

# A nontrivial braiding weights the fusion entries by grade pairings
# but groups stay Hopf; put the k-th power in degree k and take q = 2.
graded = hs.cyclic_group_algebra(3, q=BraidParam(Fraction(2)), graded=True)
print("graded Z3 Hopf:", bool(hs.is_hopf(graded.monad,
                                         graded.comonoid_structure())))

# Monoids that are not groups fail: with z idempotent the fusion span
# map collapses (z, z) onto (z, z) twice and misses a target element.
bad = hs.idempotent_monoid_presentation()
verdict = hs.is_hopf(bad.monad, bad.comonoid_structure())
print("idempotent monoid Hopf:", bool(verdict))
print("witness:", verdict.witness)
print("solver verdict:", hs.compute_antipode(bad).witness)
