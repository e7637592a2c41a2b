"""Seeded generators for randomized law checking.

Everything takes an explicit random.Random so that the randomized suites
are reproducible from a single seed.
"""

import random
from fractions import Fraction
from itertools import count

from hopfspan.finset_span import FinSet, FinFn, Span, SpanMorphism
from hopfspan.vect_backend import VObject, VMorphism
from hopfspan.spanv_core import Cell0, Cell1, Cell2

_fresh = count()


def fresh_atom(prefix="a"):
    return "%s%d" % (prefix, next(_fresh))


def random_finset(rng, max_size, min_size=1, prefix="x"):
    n = rng.randint(min_size, max_size)
    return FinSet([fresh_atom(prefix) for _ in range(n)])


def random_fn(rng, domain, codomain):
    if len(codomain) == 0 and len(domain) > 0:
        raise ValueError("no function into the empty set")
    values = list(codomain.elements)
    return FinFn(domain, codomain,
                 {a: rng.choice(values) for a in domain})


def random_span(rng, src, tgt, max_apex=3, min_apex=0):
    apex = random_finset(rng, max_apex, min_apex, prefix="c")
    if len(apex) > 0 and (len(src) == 0 or len(tgt) == 0):
        apex = FinSet([])
    return Span(src, tgt, apex,
                random_fn(rng, apex, tgt), random_fn(rng, apex, src))


def random_vobject(rng, max_dim=3, max_grade=2, min_dim=1):
    n = rng.randint(min_dim, max_dim)
    return VObject([(fresh_atom("b"), rng.randint(0, max_grade))
                    for _ in range(n)])


def random_vmorphism(rng, dom, cod, span=3):
    rows = [[Fraction(rng.randint(-span, span),
                      rng.randint(1, 2)) for _ in range(dom.dim)]
            for _ in range(cod.dim)]
    return VMorphism(dom, cod, rows)


def random_vect_cell0(rng, backend, max_carrier=3):
    carrier = random_finset(rng, max_carrier, prefix="p")
    return Cell0(backend, carrier, {x: "*" for x in carrier})


def random_vect_cell1(rng, backend, src, tgt, max_apex=3, max_dim=3,
                      max_grade=2):
    span = random_span(rng, src.carrier, tgt.carrier, max_apex)
    label = {c: random_vobject(rng, max_dim, max_grade) for c in span.apex}
    return Cell1(backend, src, tgt, span, label)


def _span_over(rng, tspan):
    """A random span with fresh apex atoms, each with the legs of a
    random image in tspan's apex; returns it and the images."""
    n = rng.randint(0, max(1, len(tspan.apex)))
    if len(tspan.apex) == 0:
        n = 0
    apex = FinSet([fresh_atom("s") for _ in range(n)])
    images = {c: rng.choice(tspan.apex.elements) for c in apex}
    left = FinFn(apex, tspan.tgt, {c: tspan.left(images[c]) for c in apex})
    right = FinFn(apex, tspan.src, {c: tspan.right(images[c]) for c in apex})
    return Span(tspan.src, tspan.tgt, apex, left, right), images


def random_relabeling(rng, target):
    """A random 1-cell parallel to target and a map of its apex into
    target's apex, as a dict, along which the legs commute and each
    label is its image's: the data of a valid relabel_cell2."""
    span, images = _span_over(rng, target.span)
    return Cell1(target.backend, target.src, target.tgt, span,
                 {c: target.label[d] for c, d in images.items()}), images


def random_vect_cell2_from(rng, target, max_dim=3, max_grade=2):
    """A random 2-cell into the given 1-cell.

    The source span reuses the legs of each chosen image element, which
    makes the span morphism commute by construction; components are dense
    random rational matrices of the forced shape.
    """
    be = target.backend
    tspan = target.span
    span, images = _span_over(rng, tspan)
    apex = span.apex
    label = {c: random_vobject(rng, max_dim, max_grade) for c in apex}
    source = Cell1(be, target.src, target.tgt, span, label)
    morphism = SpanMorphism(span, tspan, FinFn(apex, tspan.apex, images))
    comps = {c: random_vmorphism(rng, label[c], target.label[images[c]])
             for c in apex}
    return Cell2(source, target, morphism, comps)


def random_composable_vect_cell1s(rng, backend, count_cells=2, max_carrier=3,
                                  max_apex=3, max_dim=3, max_grade=2):
    """A chain a_n, ..., a_1 with matching boundaries, outermost first."""
    cells = []
    lower = random_vect_cell0(rng, backend, max_carrier)
    for _ in range(count_cells):
        upper = random_vect_cell0(rng, backend, max_carrier)
        cells.append(random_vect_cell1(rng, backend, lower, upper,
                                       max_apex, max_dim, max_grade))
        lower = upper
    cells.reverse()
    return cells


def seeded(seed):
    return random.Random(seed)
