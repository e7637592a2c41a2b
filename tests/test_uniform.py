"""Uniform cells against the atom-by-atom path.

Where a cell is checked, a label or component dict that holds one object
at every key is marked (spanv_core.Uniform), and a builder whose operand
dicts are all marked computes one base value and fills its dict with it.
Here the same generated inputs are built twice: as they are, and with
the marking switched off, so that every dict is built and checked atom
by atom.  Over both bases, with uniform, mixed and equal-but-distinct
labels and components, both must give the same labels and components,
key order included; broken inputs must raise the same error at the same
atom, and eq2 must give the same witness.
"""

import itertools
from collections.abc import Mapping

import pytest

import rand
from hopfspan import cat_backend as cb
from hopfspan import hopf_structures as hs
from hopfspan import monoidale_duoidal as md
from hopfspan import spanv_core as sc
from hopfspan import vect_backend as vb
from hopfspan.cat_backend import FinCategory, FunctorData, NatTransData
from hopfspan.finset_span import (
    FinFn, FinSet, Span, SpanError, SpanMorphism, _trusted as unchecked,
)
from hopfspan.spanv_core import (
    CatBackend, Cell0, Cell1, Cell2, InverseCellResult, SpanVError, Uniform,
    VectBackend, cell2_along, eq2, hcomp1, hcomp2, identity_cell1,
    identity_cell2, interchange_cell2, invert_cell2, regroup, regroup_cell1,
    relabel_cell2, tensor0, tensor1, tensor2, unit_cell0, vcomp2,
)
from test_hopf_structures import chain_inputs
from rand import fresh_atom, random_vmorphism, random_vobject, seeded

KINDS = ("uniform", "mixed", "equal")


def atom_by_atom(monkeypatch):
    """Switch the marking off: no dict is ever a Uniform, so every cell
    is built and checked atom by atom."""
    for module in (sc, hs):
        monkeypatch.setattr(module, "_marked", lambda values: values)


def twice(monkeypatch, build):
    """build() as it is and then atom by atom, each time with rand's
    fresh atoms counted from the start, so that both name them alike."""
    monkeypatch.setattr(rand, "_fresh", itertools.count())
    marked = build()
    atom_by_atom(monkeypatch)
    monkeypatch.setattr(rand, "_fresh", itertools.count())
    return marked, build()


class GradedBase:
    """The graded base: one 0-cell, graded objects, matrices.  Objects
    are hash-consed, so equal labels are one object; equal components
    can be distinct."""

    def __init__(self, rng):
        self.rng = rng
        self.backend = VectBackend(vb.BraidParam(-1))
        self.point = self.unit_point = "*"
        self.labels = [random_vobject(rng, 2) for _ in range(2)]
        self.unit_labels = self.labels

    def copy_label(self, p):
        return p

    def component(self, p):
        return random_vmorphism(self.rng, p, p)

    def copy_component(self, phi):
        return vb.VMorphism(phi.dom, phi.cod, phi.entries)

    def stray_label(self):
        """A label whose source is not the point label."""
        return None

    def stray_component(self, p, wrong_source):
        stray = random_vobject(self.rng, 3, min_dim=3)
        return vb.VMorphism.zero(stray, p) if wrong_source else \
            vb.VMorphism.zero(p, stray)


def z3():
    names, mul, unit = hs.cyclic_group(3)
    return FinCategory.from_monoid(names, mul, unit), names


def endofunctor(c, mmap):
    return FunctorData(c, c, FinFn(c.objects, c.objects,
                                   {x: x for x in c.objects}),
                       FinFn(c.morphisms, c.morphisms, mmap))


class CategoryBase:
    """The category base on Z_3 as a one-object category: the identity
    and the inversion functors, a transformation of a functor to itself
    per group element.  Each call builds a new functor, so equal labels
    can be distinct."""

    def __init__(self, rng):
        self.rng = rng
        self.backend = CatBackend()
        self.point, self.names = z3()
        self.unit_point = cb.TERMINAL
        c, names = self.point, self.names
        self.labels = [endofunctor(c, {names[k]: names[k * power % 3]
                                       for k in range(3)})
                       for power in (1, 2)]
        t = cb.TERMINAL
        identity = endofunctor(t, {m: m for m in t.morphisms})
        self.unit_labels = [identity, self.copy_label(identity)]

    def copy_label(self, p):
        return FunctorData(p.dom, p.cod, FinFn(p.dom.objects, p.cod.objects,
                                               dict(p.omap.assignment)),
                           FinFn(p.dom.morphisms, p.cod.morphisms,
                                 dict(p.mmap.assignment)))

    def component(self, p):
        return NatTransData(p, p, {x: self.rng.choice(
            p.cod.morphisms.elements) for x in p.dom.objects})

    def copy_component(self, phi):
        return NatTransData(phi.source, phi.target, dict(phi.components))

    def stray_label(self):
        other = FinCategory.discrete(["o"])
        return FunctorData(other, self.point,
                           FinFn(other.objects, self.point.objects,
                                 {"o": "*"}),
                           FinFn(other.morphisms, self.point.morphisms,
                                 {("id", "o"): "e"}))

    def stray_component(self, p, wrong_source):
        """A transformation out of or into another functor; the checks
        read only its ends, so it is built without its own, in checking
        mode too."""
        other = self.labels[p == self.labels[0]]
        ends = (other, p) if wrong_source else (p, other)
        return unchecked(NatTransData, *ends, {"*": "e"})


BASES = {"graded": GradedBase, "category": CategoryBase}


def cell0(base, size, point=None):
    carrier = FinSet([fresh_atom("p") for _ in range(size)])
    point = base.point if point is None else point
    return Cell0(base.backend, carrier, {x: point for x in carrier})


def labels_on(base, atoms, kind, pool=None):
    """One label per atom: one object, two alternating, or equal copies."""
    pool = pool or base.labels
    if kind == "uniform":
        return {c: pool[0] for c in atoms}
    if kind == "mixed":
        return {c: pool[i % 2] for i, c in enumerate(atoms)}
    return {c: base.copy_label(pool[0]) for c in atoms}


def cell1(base, src, tgt, kind, size=3, pool=None):
    rng = base.rng
    apex = FinSet([fresh_atom("c") for _ in range(size)])
    span = Span(src.carrier, tgt.carrier, apex,
                FinFn(apex, tgt.carrier, {c: rng.choice(tgt.carrier.elements)
                                          for c in apex}),
                FinFn(apex, src.carrier, {c: rng.choice(src.carrier.elements)
                                          for c in apex}))
    return Cell1(base.backend, src, tgt, span,
                 labels_on(base, apex, kind, pool))


def components_on(base, labels, kind):
    """One endomorphism of each label: one object per label object, a
    new one per atom, or equal copies of one per label object."""
    first = {}
    for p in labels.values():
        first.setdefault(id(p), base.component(p))
    if kind == "uniform":
        return {c: first[id(p)] for c, p in labels.items()}
    if kind == "mixed":
        return {c: base.component(p) for c, p in labels.items()}
    return {c: base.copy_component(first[id(p)]) for c, p in labels.items()}


def onto(base, target, kind):
    """A 2-cell into target along a bijection of apexes, in shuffled
    order: each source label is its image's, each component an
    endomorphism of it.  Returns the cell and its along data."""
    span = target.span
    images = {fresh_atom("s"): d for d in base.rng.sample(
        span.apex.elements, len(span.apex))}
    apex = FinSet(list(images))
    source = Cell1(base.backend, target.src, target.tgt, Span(
        span.src, span.tgt, apex,
        FinFn(apex, span.tgt, {c: span.left(d) for c, d in images.items()}),
        FinFn(apex, span.src, {c: span.right(d) for c, d in images.items()})),
        {c: target.label[d] for c, d in images.items()})
    comps = components_on(base, source.label, kind)
    return cell2_along(source, target, images.__getitem__, comps), \
        (source, target, images, comps)


def dicts(value):
    """The label and component dicts a built value carries, in order."""
    if isinstance(value, InverseCellResult):
        return dicts(value.inverse) if value else [value.witness]
    if isinstance(value, Cell0):
        return [value.label]
    if isinstance(value, Cell1):
        return [value.label, value.src.label, value.tgt.label]
    return [value.components, value.source.label, value.target.label]


def readable(values):
    """What every dict of values reads as: its items in order (a view of
    components held by their 1-cells as the transformations it reads)."""
    return [[list(d.items()) if isinstance(d, Mapping) else d
             for d in dicts(value)] for value in values]


def core_cells(name, seed, labels, components):
    """Every spanv_core builder on generated cells of one kind each."""
    base = BASES[name](seeded(seed))
    x, y, z, w = (cell0(base, n) for n in (2, 3, 2, 1))
    a, b = cell1(base, x, y, labels), cell1(base, y, z, labels)
    a2, b2 = cell1(base, w, x, labels), cell1(base, x, z, labels)
    u, (s, _, images, _) = onto(base, a, components)
    v, _ = onto(base, b, components)
    below, _ = onto(base, s, components)
    composite = hcomp1(v.source, u.source)
    return [hcomp1(b, a), tensor0(x, y), tensor1(a, b), identity_cell1(x),
            identity_cell2(a), vcomp2(u, below), hcomp2(v, u), tensor2(u, v),
            relabel_cell2(s, a, images.__getitem__),
            interchange_cell2(b, b2, a, a2),
            sc._landed(sc._chained(composite, sc._whiskered(v, u)),
                       hcomp1(v.target, u.target)),
            invert_cell2(u), invert_cell2(identity_cell2(a)),
            regroup_cell1(tensor0(tensor0(x, y), z),
                          tensor0(x, tensor0(y, z)), regroup)]


def convolution_cells(name, seed, labels, components):
    """star1, star2 and, over the graded base, the braid cell, on
    endo-cells of carriers labeled by the base unit."""
    base = BASES[name](seeded(seed))
    x = cell0(base, 2, base.unit_point)
    one = cell0(base, 1, base.unit_point)
    pool = base.unit_labels
    a, b = (cell1(base, x, x, labels, pool=pool) for _ in range(2))
    u, _ = onto(base, a, components)
    v, _ = onto(base, b, components)
    built = [md.star1(b, a), md.star2(v, u)]
    if name == "graded":
        p, q = (cell1(base, one, one, labels, pool=pool) for _ in range(2))
        built.append(md.zunino_braiding(p, q))
    return built


CASES = [(name, seed, labels, components)
         for name in BASES for seed in range(2)
         for labels, components in itertools.product(KINDS, KINDS)]


@pytest.mark.parametrize("name, seed, labels, components", CASES)
@pytest.mark.parametrize("cells", [core_cells, convolution_cells])
def test_uniform_cells_read_as_the_atom_by_atom_ones(
        cells, name, seed, labels, components, monkeypatch):
    marked, plain = twice(monkeypatch, lambda: cells(
        name, seed, labels, components))
    assert readable(marked) == readable(plain)
    assert marked == plain
    assert all(type(d) is dict for value in plain for d in dicts(value)
               if isinstance(d, dict))
    if labels == components == "uniform":
        assert all(type(d) is Uniform for value in marked
                   for d in dicts(value) if isinstance(d, dict) and d)


def test_equal_but_distinct_values_are_mixed():
    graded, category = GradedBase(seeded(0)), CategoryBase(seeded(0))
    a = cell1(category, cell0(category, 2), cell0(category, 2), "equal")
    b = cell1(graded, cell0(graded, 2), cell0(graded, 2), "uniform")
    u, _ = onto(graded, b, "equal")
    assert type(a.src.label) is type(b.label) is Uniform
    assert type(a.label) is type(u.components) is dict


def test_the_structure_cells_read_as_the_atom_by_atom_ones(monkeypatch):
    # The fusion cells run _binary_cell, _whiskered, interchange_cell2
    # and tensor2 on the monad cells of each presentation, uniform or
    # not; the first is built on its own as well.
    def build():
        cells = []
        for _, p, c, fibers in chain_inputs():
            m = md.diagonal_multiplication(p.shape.objects, p.backend, fibers)
            cells += [hs._binary_cell(p, c, m), *hs.fusion_cells(p, c, fibers)]
        return cells
    marked, plain = twice(monkeypatch, build)
    assert readable(marked) == readable(plain)
    assert any(type(cell.components) is Uniform for cell in marked)


def broken(name, seed):
    """Uniform cells and broken data made from them, each as a thunk:
    components and labels missing at one atom, or with the wrong source
    or target at one atom or at every atom, through cell2_along, Cell2
    and Cell1."""
    base = BASES[name](seeded(seed))
    x, y = cell0(base, 2), cell0(base, 3)
    a = cell1(base, x, y, "uniform", size=4)
    u, (source, target, images, comps) = onto(base, a, "uniform")
    apex, p = source.span.apex.elements, a.label[a.span.apex.elements[0]]
    second = apex[1]
    morphism = SpanMorphism(source.span, target.span,
                            FinFn(source.span.apex, target.span.apex, images))
    bad = {}
    for wrong_source in (True, False):
        stray = base.stray_component(p, wrong_source)
        bad["one stray %s" % wrong_source] = {**comps, second: stray}
        bad["all stray %s" % wrong_source] = dict.fromkeys(apex, stray)
    bad["missing"] = {c: comps[c] for c in apex if c != second}
    cases = {}
    for what, given in bad.items():
        cases["along " + what] = lambda given=given: cell2_along(
            source, target, images.__getitem__, given)
        cases["cell2 " + what] = lambda given=given: Cell2(
            source, target, morphism, given)
        cases["marked cell2 " + what] = lambda given=given: Cell2(
            source, target, morphism, sc._marked(given))
    be, span, label = base.backend, a.span, a.label
    at = span.apex.elements[1]
    labels = {"missing": (x, {c: label[c] for c in span.apex if c != at})}
    stray = base.stray_label()
    if stray is None:
        # Over the graded base every label runs from the one 0-cell: a
        # label source breaks where the point is labeled otherwise.
        labels["one stray"] = (Cell0(be, x.carrier, {
            q: "#" if q == span.right(at) else "*" for q in x.carrier}),
            label)
        labels["all stray"] = (Cell0(be, x.carrier,
                                     dict.fromkeys(x.carrier, "#")), label)
    else:
        labels["one stray"] = (x, {**label, at: stray})
        labels["all stray"] = (x, dict.fromkeys(span.apex, stray))
    for what, (src, given) in labels.items():
        cases["cell1 " + what] = lambda src=src, given=given: Cell1(
            be, src, y, span, given)
    return cases


def outcome(build):
    try:
        value = build()
    except (SpanError, SpanVError) as error:
        return type(error), str(error)
    return readable([value])


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("seed", range(2))
def test_broken_uniform_cells_fail_at_the_same_atom(name, seed,
                                                    monkeypatch):
    def build():
        return {what: outcome(case)
                for what, case in broken(name, seed).items()}
    marked, plain = twice(monkeypatch, build)
    assert marked == plain
    assert all(isinstance(o, tuple) for o in marked.values()), marked


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("seed", range(3))
def test_eq2_on_differing_uniform_cells_names_the_first_atom(
        name, seed, monkeypatch):
    def build():
        base = BASES[name](seeded(seed))
        x, y = cell0(base, 2), cell0(base, 2)
        a = cell1(base, x, y, "uniform", size=3)
        u, (source, target, images, comps) = onto(base, a, "uniform")
        phi = next(iter(comps.values()))
        other = base.component(phi.source if name == "category" else phi.dom)
        while other == phi:
            other = base.component(other.source if name == "category"
                                   else other.dom)
        v = cell2_along(source, target, images.__getitem__,
                        dict.fromkeys(comps, other))
        w = cell2_along(source, target, images.__getitem__,
                        dict.fromkeys(comps, base.copy_component(phi)))
        return source.span.apex.elements[0], eq2(u, v), eq2(u, w), \
            type(u.components), type(v.components)
    marked, plain = twice(monkeypatch, build)
    assert marked[:3] == plain[:3]
    first, differ, agree = marked[:3]
    assert differ.witness[:2] == ("component", first)
    assert agree
    assert marked[3:] == (Uniform, Uniform) and plain[3:] == (dict, dict)


@pytest.mark.parametrize("seed", range(3))
def test_a_uniform_singular_component_is_named_at_the_first_atom(
        seed, monkeypatch):
    def build():
        base = GradedBase(seeded(seed))
        a = cell1(base, cell0(base, 2), cell0(base, 2), "uniform", size=3)
        _, (source, target, images, comps) = onto(base, a, "uniform")
        p = a.label[a.span.apex.elements[0]]
        zero = cell2_along(source, target, images.__getitem__,
                           dict.fromkeys(comps, vb.VMorphism.zero(p, p)))
        return source.span.apex.elements[0], invert_cell2(zero).witness
    marked, plain = twice(monkeypatch, build)
    assert marked == plain
    first, witness = marked
    assert witness[:2] == ("component not invertible", first)


# The vb.tensor_obj calls of both fusion cells of the n-object
# indiscrete presentation: one per cell, however many atoms it has.
# Built atom by atom they were 1250 and 2402 for 4 and 5 objects, and
# 26 when each step of the chain landed in a 1-cell of its own.
FUSION_TENSORS = 14


@pytest.mark.parametrize("n", [4, 5])
def test_fusion_tensors_once_per_cell(n, monkeypatch):
    pres = hs.indiscrete_enriched(["x%d" % k for k in range(n)])
    c = pres.comonoid_structure()
    calls = []
    tensor_obj = vb.tensor_obj

    def counted(a, b):
        calls.append((a, b))
        return tensor_obj(a, b)
    monkeypatch.setattr(vb, "tensor_obj", counted)
    hs.left_fusion(pres.monad, c)
    hs.right_fusion(pres.monad, c)
    assert len(calls) == FUSION_TENSORS


def test_unit_cell_is_uniform():
    for be in (VectBackend(vb.BraidParam(1)), CatBackend()):
        assert type(unit_cell0(be).label) is Uniform
