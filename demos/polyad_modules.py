"""
Polyads over strict monoidal fibers, and their modules
=======================================================

"""

from hopfspan import hopf_structures as hs

Z2 = (["e", "b"],
      {("e", "e"): "e", ("e", "b"): "b", ("b", "e"): "b", ("b", "b"): "e"},
      "e")

# A polyad assigns a strict monoidal category to the base point and a
# functor to every shape morphism.  The simplest fibers over Z2: the
# discrete monoidal category on the group (objects multiply by the
# table, no nonidentity morphisms) and its indiscrete cousin.
discrete = hs.discrete_monoidal_group(*Z2)
indiscrete = hs.indiscrete_monoidal_group(*Z2)

# Identity labels are opmonoidal over any fiber, and over a group shape
# every fusion transformation is invertible pointwise.
opstr = hs.identity_polyad(*Z2, discrete)
print("identity polyad monad:", hs.check_monad(opstr.monad).summary())
print("identity polyad Hopf: ", bool(hs.polyad_is_hopf(opstr)))

# Translation labels send q to h (x) q.  They are a perfectly good
# monad over the discrete fiber, but the comparison morphisms needed
# for opmonoidality ask for arrows between distinct objects, which the
# discrete fiber lacks; the indiscrete fiber provides them.
print("translation monad:", hs.check_monad(
    hs.translation_polyad(*Z2, discrete)).summary())
try:
    hs.translation_opmonoidal(*Z2, discrete)
except hs.SpanVError as error:
    print("discrete fiber:", error)
connected = hs.translation_opmonoidal(*Z2, indiscrete)
print("indiscrete translation Hopf:", bool(hs.polyad_is_hopf(connected)))

# Off groups the whole question dies at the shape: the groupoid
# criterion rejects the idempotent monoid before any fiber is touched.
idem = (["e", "z"],
        {("e", "e"): "e", ("e", "z"): "z",
         ("z", "e"): "z", ("z", "z"): "z"},
        "e")
verdict = hs.polyad_is_hopf(
    hs.identity_polyad(*idem, hs.discrete_monoidal_group(*idem)))
print("idempotent shape:", verdict.witness)

# Modules pick a fiber object per shape object and an action per shape
# morphism; representations pick an object per morphism instead.  Both
# enumerations are exhaustive, so their counts are exact.
for name, monad in (("identity", opstr.monad),
                    ("translation", hs.translation_polyad(*Z2, indiscrete))):
    modules = hs.enumerate_modules(monad)
    reps = hs.enumerate_representations(monad)
    print("%s polyad: %d modules, %d representations"
          % (name, len(list(modules.objects)), len(list(reps.objects))))

# The same categories arise a second way, as algebras over a restricted
# carrier; the comparison hands back a functor pair and checks it is an
# isomorphism of categories.
comparison = hs.em_algebras_restricted(
    hs.translation_polyad(*Z2, indiscrete), "modules")
print("restricted-algebra comparison:", comparison.report.summary())
print("algebra count:", len(list(comparison.algebras.objects)))
