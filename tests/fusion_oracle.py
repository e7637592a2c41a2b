"""The composed polyad fusion families, kept as an oracle.

Each family's component at an object of the fiber square is composed
from the outer label's binary structure d2 and the multiplication mu,
and the family is built by the checked NatTransData constructor, on any
fiber.  ``hopf_structures.polyad_fusion`` builds them so too; it once
held each family into a thin fiber by its source and target functors,
and this frozen copy stays the reference the differential tests compare
it with.
"""

from hopfspan import cat_backend as cb
from hopfspan.hopf_structures import _pair_order
from hopfspan.spanv_core import product_functor


def composed_fusion(opstr, side="left"):
    """polyad_fusion with every component composed and checked."""
    order = _pair_order(side)
    p, d = opstr.monad, opstr.monad.shape
    out = {}
    for (h, k) in d.composable_pairs():
        fmid = opstr.fibers[d.src(h)]
        ftop = opstr.fibers[d.tgt(h)]
        fh, fk = p.mor_label[h], p.mor_label[k]
        fhk = p.mor_label[d.compose(h, k)]
        mu = p.mu[(h, k)].components
        d2 = opstr.d2[h].components
        cod = ftop.cat
        ident = cb.FunctorData.identity(fmid.cat)
        source = product_functor(*order(fk, ident)).then(fmid.tensor).then(fh)
        target = product_functor(*order(fhk, fh)).then(ftop.tensor)
        comps = {}
        for pair in source.dom.objects:
            a, c0 = order(*pair)
            comps[pair] = cod.compose(
                ftop.mor_tensor(*order(mu[a], cod.identities(fh.omap(c0)))),
                d2[order(fk.omap(a), c0)])
        out[(h, k)] = cb.NatTransData(source, target, comps)
    return out
