"""Labeled spans over a pluggable base: cells, compositions, coherence.

A 0-cell is a finite carrier set whose points are labeled by base 0-cells.
A 1-cell is a span whose apex elements are labeled by base 1-cells, with
the boundary compatibility: the label of c runs from x(right(c)) to
y(left(c)).  A 2-cell is a span morphism together with one base 2-cell per
source apex element.

Both bundled backends are strict (word-concatenation tensor for graded
vector spaces, function composition for functors), so every coherence cell
built here has identity components and all the weakness sits in span apex
re-bracketing.  Equality of 2-cells is decided exactly, optionally after
transport along explicitly supplied coherence cells.

The cell constructors check labels and boundaries.  Identities, the
composites of checked 1-cells and the vertical composites of checked
2-cells are built without those checks (finset_span._trusted), once
the boundary they compose across has been checked.  A 2-cell along a
given atom map is built by cell2_along, which builds its map, span
morphism and cell through _trusted and runs each class's own checks on
them (relabel_cell2 is cell2_along with identity components), and
invert_cell2 runs only its own.

A 2-cell read at a source atom needs its target only at that atom's
image, so a 1-cell is restricted by the atoms it is built on.  A law is
a chain of vertical steps from a built 1-cell (_chained), landed once,
in the law's target (_landed).  A step reads the atoms the chain has
reached, which no 1-cell holds: a 1-cell reads as its identity, a
2-cell at the atoms of its source, and _relabeled, _pairwise,
_interchanged and _run build the others.  At each atom it gives the
atom reached and its component there, one object for all atoms (a
1-tuple) or a list; the chain composes them, so vcomp checks every
seam, and cell2_along checks the composite where it lands.
relabel_cell2, hcomp2, tensor2 and interchange_cell2 are one-step
chains.

A cell whose atoms all carry one label or component object is built
and checked once, any other cell atom by atom.  Where a cell is checked
(the Cell0 and Cell1 constructors and cell2_along), a label or component
dict holding one object at every key, compared by identity, becomes a
Uniform: a dict that carries that value.  A builder whose operand dicts
are all Uniform computes one base value from theirs and fills its dict
with it (_fill), and the checks compare the one value once, falling
back to the atom-by-atom loop, and its errors and witnesses, whenever
anything differs.

On the Cat base, a 2-cell whose target's labels land in thin
categories holds its components by its 1-cells (HeldCells): into a
thin category there is at most one transformation between two
functors, so the component at c is the one from the source label at c
to the target label at c's image, read on lookup.  Where Uniform is
decided (cell2_along and identity_cell2), a cell whose components are
not one object becomes such a cell, once its given components are
checked one by one; one is_thin test decides it when the target's
0-cell label is a Uniform.  Existence is decided once for a cell held
along its own span map when each category its target's labels land in
has a morphism between any two objects (cb.is_full), else atom by
atom.  vcomp2 and invert_cell2 build held cells from held cells and
compose no transformation, and a chain into thin categories composes
the pairs of labels its components run between (_Ends): each seam is
checked atom by atom by comparing label functors, which are kept
composites, so equal ones are one object; a label that is a point
functor composes to the point at its image (cb.point_functor).  eq2
compares two such cells by their boundaries and span maps.  Into other
categories, and over the graded base, the components stay a dict.
"""

from dataclasses import dataclass, field
from itertools import repeat
from operator import is_

from .finset_span import (
    FinSet, FinFn, Span, SpanMorphism, _Pairs, _kept, _owns_no_memo, _trusted,
    compose_spans, cartesian_product,
)
from .reporting import Verdict
from . import vect_backend as vb
from . import cat_backend as cb


class SpanVError(ValueError):
    """Raised for ill-formed labeled cells and mismatched boundaries."""


class Uniform(dict):
    """A label or component dict holding one object, its value, at every
    key.  It reads as any dict does; only builders and checks look at
    the mark."""

    __slots__ = ("value",)


def _uniform(keys, value):
    marked = Uniform.fromkeys(keys, value)
    marked.value = value
    return marked


def _marked(values):
    """values as a Uniform when it is not empty and every value in it is
    one object, compared by identity; values itself otherwise, and a
    HeldCells as it is, nothing read.  Decided where a cell or a
    presentation is checked, never in a builder."""
    if type(values) in (Uniform, HeldCells) or not values:
        return values
    first = next(iter(values.values()))
    if all(map(is_, values.values(), repeat(first))):
        return _uniform(values, first)
    return values


def _mark_fields(value, *names):
    """Each named dict field of the frozen dataclass value, _marked."""
    for name in names:
        object.__setattr__(value, name, _marked(getattr(value, name)))


def _values(*operands):
    """The value of each operand dict when every one is a Uniform; None
    otherwise.  A law whose operands are all Uniform is one equation."""
    for operand in operands:
        if type(operand) is not Uniform:
            return None
    return [operand.value for operand in operands]


def _fill(keys, op, *operands):
    """The Uniform on keys holding op of the operands' values, when keys
    is not empty and every operand dict is a Uniform; None otherwise, for
    the builder to build its dict atom by atom instead."""
    values = _values(*operands)
    if values is None or not keys:
        return None
    return _uniform(keys, op(*values))


def _covers(values, atoms):
    """Whether values has a key at each of atoms."""
    return all(map(values.__contains__, atoms))


def _agree_once(eq, mine, theirs, atoms):
    """Whether mine and theirs are Uniforms with a key at each of atoms
    whose values agree under eq: the one comparison for all of atoms."""
    return type(mine) is Uniform and type(theirs) is Uniform \
        and eq(mine.value, theirs.value) \
        and _covers(mine, atoms) and _covers(theirs, atoms)


class HeldCells(cb._View):
    """The components of a 2-cell into thin categories, held by its
    1-cells: at a source atom c, the one transformation from
    source.label[c] to the label that c's image reaches in target, a
    1-cell, or in target[c] when target is the dict of the labels a
    chain reaches (_landed).  Each is read on lookup, held by its two
    functors (cb.NatTransData.held); its keys are the source apex atoms,
    and image maps them into the target apex."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        self.source, self.target, self.image = source, target, image

    def parts(self):
        return (self.source, self.target, self.image)

    def __repr__(self):
        # The atom map only: the 1-cells list every label.
        return "HeldCells(%r)" % (self.image,)

    def ends(self, c):
        """The functors the component at c runs between, or None when no
        transformation runs between them: one does when they are one
        functor or their codomain has a morphism between any two objects
        (cb.is_full), else when each of its homs is not empty."""
        F, target = self.source.label[c], self.target
        G = target[c] if type(target) is dict else \
            target.label[self.image[c]]
        return (F, G) if F is G or cb.is_full(F.cod) \
            or cb.ThinMap.components(F, G).gap() is None else None

    def __getitem__(self, c):
        return cb.NatTransData.held(*self.ends(c))

    def __iter__(self):
        return iter(self.source.span.apex.elements)

    def __len__(self):
        return len(self.source.span.apex)

    def __contains__(self, c):
        return c in self.source.span.apex


def _thin_labels(a):
    """Whether a's labels land in thin categories: on the Cat base, each
    category labeling a's target 0-cell is thin."""
    return type(a.backend) is CatBackend and _each_target(a, cb.is_thin)


def _each_target(a, test):
    """Whether test holds of each category labeling a's target 0-cell:
    one test when that label is a Uniform."""
    label = a.tgt.label
    if type(label) is Uniform:
        return bool(test(label.value))
    return all(map(test, label.values()))


class Backend:
    """Base-bicategory interface; values at levels 0, 1, 2 are opaque here.

    A backend defines src1, tgt1, id1, comp1, src2, tgt2, id2, vcomp,
    comp2, unit0, tensor0v, tensor1v, tensor2v, mid4, reshape1, invert2
    and first_diff, and eq0, eq1 and eq2 compare by == unless it says
    otherwise.  comp1/comp2 are horizontal composition of base 1-/2-cell
    values (for a one-object base this is the tensor), vcomp is vertical
    composition.
    mid4(p, q, r, s) is the interchange comparison (p . q) o (r . s) =>
    (p o r) . (q o s) on base 1-cell values, where o is composition within
    the base and . its tensor; both bundled backends realize it exactly.
    reshape1(x, y, fn) is the base 1-cell x -> y that reshuffles the atoms
    of products of base 0-cells by fn (a regrouping, projection or
    diagonal), where morphism atoms mirror the nesting of object atoms.
    invert2(f) returns (inverse, witness), inverse None when f is not
    invertible, and first_diff(f, g) a located difference between two
    parallel 2-cell values.
    """

    def eq0(self, x, y):
        return x == y

    def eq1(self, p, q):
        return p == q

    def eq2(self, f, g):
        return f == g


class _GradedCells(Backend):
    """The cell operations on graded objects and matrices, shared by the
    graded base and its image in Cat: a 1-cell is a graded object, a
    2-cell a matrix, and horizontal composition is the Kronecker tensor."""

    def id1(self, x):
        return vb.unit_object()

    def comp1(self, b, a):
        return vb.tensor_obj(b, a)

    def src2(self, f):
        return f.dom

    def tgt2(self, f):
        return f.cod

    def id2(self, p):
        return vb.VMorphism.identity(p)

    def vcomp(self, second, first):
        return second.compose(first)

    def comp2(self, g, f):
        return vb.tensor_mor(g, f)

    def invert2(self, f):
        res = vb.invert(f)
        return res.inverse, res.witness

    def first_diff(self, f, g):
        return vb.first_diff(f, g)


@dataclass(frozen=True)
class VectBackend(_GradedCells):
    """One 0-cell; 1-cells are graded objects, 2-cells are matrices.

    Horizontal composition and tensor coincide (both are the Kronecker
    tensor); mid4 is 1 tensor braiding tensor 1 and genuinely depends on q.
    """

    q: vb.BraidParam

    def src1(self, p):
        return "*"

    def tgt1(self, p):
        return "*"

    def unit0(self):
        return "*"

    def tensor0v(self, x, y):
        return "*"

    def tensor1v(self, p, q):
        return vb.tensor_obj(p, q)

    def tensor2v(self, f, g):
        return vb.tensor_mor(f, g)

    def braid1(self, p, q):
        return vb.braiding(p, q, self.q)

    def reshape1(self, x, y, fn):
        """The unit object: the one 0-cell has no atoms to reshuffle."""
        return vb.unit_object()

    def mid4(self, p, q, r, s):
        return _kept(VectBackend._braided_middle, self, p, q, r, s)

    def _braided_middle(self, p, q, r, s):
        return vb.tensor_mor(vb.VMorphism.identity(p), vb.tensor_mor(
            vb.braiding(q, r, self.q), vb.VMorphism.identity(s)))


class CatBackend(Backend):
    """0-cells are finite categories, 1-cells functors, 2-cells nat transes.

    The tensor is the product of categories (plain pairing); mid4 holds on
    the nose, so its comparison is an identity transformation.
    """

    def __eq__(self, other):
        return isinstance(other, CatBackend)

    def __hash__(self):
        return hash(CatBackend)

    def src1(self, p):
        return p.dom

    def tgt1(self, p):
        return p.cod

    def id1(self, x):
        return cb.FunctorData.identity(x)

    def comp1(self, b, a):
        return a.then(b)

    def src2(self, f):
        return f.source

    def tgt2(self, f):
        return f.target

    def id2(self, p):
        return cb.NatTransData.identity(p)

    def vcomp(self, second, first):
        return first.vcomp(second)

    def comp2(self, g, f):
        return f.hcomp(g)

    def unit0(self):
        return cb.TERMINAL

    def tensor0v(self, x, y):
        return product_category(x, y)

    def tensor1v(self, p, q):
        return product_functor(p, q)

    def tensor2v(self, f, g):
        return product_nat(f, g)

    def mid4(self, p, q, r, s):
        composite = self.comp1(self.tensor1v(p, q), self.tensor1v(r, s))
        other = self.tensor1v(self.comp1(p, r), self.comp1(q, s))
        if composite != other:
            raise SpanVError("interchange is not strict on %r" % ((p, q, r, s),))
        return cb.NatTransData.identity(composite)

    def reshape1(self, x, y, fn):
        """The functor applying fn to objects and morphisms alike."""
        return cb.FunctorData(
            x, y, FinFn(x.objects, y.objects, {o: fn(o) for o in x.objects}),
            FinFn(x.morphisms, y.morphisms, {m: fn(m) for m in x.morphisms}))

    def invert2(self, f):
        cod = f.source.cod
        comps = {}
        for x in f.source.dom.objects:
            comps[x] = cod.inverse(f.components[x])
            if comps[x] is None:
                return None, x
        return cb.NatTransData(f.target, f.source, comps), None

    def first_diff(self, f, g):
        for x in f.source.dom.objects:
            if f.components[x] != g.components[x]:
                return x
        return None


def product_category(a, b):
    """Product of finite categories on pair atoms, componentwise.  Its
    objects and morphisms are the FinSet products; its src, tgt and
    identities cb.PairMap views on the factors' maps, and its
    composition a cb.ProductTable that composes in the factors, each
    read on lookup, so none is tabulated."""
    return _kept(_product_category, a, b)


def _product_category(a, b):
    objects = FinSet.product(a.objects, b.objects)
    morphisms = _Pairs(a.morphisms, b.morphisms)
    src, tgt, ids = [_trusted(FinFn, dom, cod, cb.PairMap(
        dom, left.assignment, right.assignment)) for dom, cod, left, right in (
            (morphisms, objects, a.src, b.src),
            (morphisms, objects, a.tgt, b.tgt),
            (objects, morphisms, a.identities, b.identities))]
    return _trusted(cb.FinCategory, objects, morphisms, src, tgt, ids,
                    cb.ProductTable(a, b))


def product_functor(p, q):
    """p x q, mapping objects and morphisms on lookup.  The product of
    two identities is the identity of the product, kept on it."""
    if p is p.dom._identity and q is q.dom._identity:
        dom = product_category(p.dom, q.dom)
        if dom._identity is None:
            object.__setattr__(dom, "_identity",
                               _owns_no_memo(_product_functor(p, q)))
        return dom._identity
    return _kept(_product_functor, p, q)


def _product_functor(p, q):
    dom = product_category(p.dom, q.dom)
    cod = product_category(p.cod, q.cod)
    omap = cb.PairMap(dom.objects, p.omap.assignment, q.omap.assignment)
    mmap = cb.PairMap(dom.morphisms, p.mmap.assignment, q.mmap.assignment)
    return _trusted(cb.FunctorData, dom, cod,
                    _trusted(FinFn, dom.objects, cod.objects, omap),
                    _trusted(FinFn, dom.morphisms, cod.morphisms, mmap))


def product_nat(f, g):
    """f x g, with its components read on lookup."""
    source = product_functor(f.source, g.source)
    target = product_functor(f.target, g.target)
    comps = cb.PairMap(source.dom.objects, f.components, g.components)
    return _trusted(cb.NatTransData, source, target, comps)


@dataclass(frozen=True)
class Cell0:
    """A finite carrier with a base 0-cell label at every point."""

    backend: Backend
    carrier: FinSet
    label: dict = field(compare=False)

    def __post_init__(self):
        if not _covers(self.label, self.carrier.elements):
            for x in self.carrier:
                if x not in self.label:
                    raise SpanVError("0-cell label missing at %r" % (x,))
        object.__setattr__(self, "label", _marked(self.label))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Cell0) and self.backend == other.backend
            and self.carrier == other.carrier
            and (_agree_once(self.backend.eq0, self.label, other.label,
                             self.carrier.elements)
                 or all(self.backend.eq0(self.label[x], other.label[x])
                        for x in self.carrier)))

    def __hash__(self):
        return hash(self.carrier)


@dataclass(frozen=True)
class Cell1:
    """A span with a base 1-cell label at every apex element."""

    backend: Backend
    src: Cell0
    tgt: Cell0
    span: Span
    label: dict = field(compare=False)

    def __post_init__(self):
        be = self.backend
        if self.span.src != self.src.carrier or self.span.tgt != self.tgt.carrier:
            raise SpanVError("span boundary does not match 0-cell carriers")
        label = _marked(self.label)
        object.__setattr__(self, "label", label)
        src, tgt = self.src.label, self.tgt.label
        if type(label) is Uniform and type(src) is Uniform \
                and type(tgt) is Uniform \
                and _covers(label, self.span.apex.elements) \
                and be.eq0(be.src1(label.value), src.value) \
                and be.eq0(be.tgt1(label.value), tgt.value):
            return
        for c in self.span.apex:
            if c not in self.label:
                raise SpanVError("1-cell label missing at %r" % (c,))
            p = self.label[c]
            if not be.eq0(be.src1(p), self.src.label[self.span.right(c)]):
                raise SpanVError("label source mismatch at apex %r" % (c,))
            if not be.eq0(be.tgt1(p), self.tgt.label[self.span.left(c)]):
                raise SpanVError("label target mismatch at apex %r" % (c,))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Cell1) and self.backend == other.backend
            and self.src == other.src and self.tgt == other.tgt
            and self.span == other.span
            and (_agree_once(self.backend.eq1, self.label, other.label,
                             self.span.apex.elements)
                 or all(self.backend.eq1(self.label[c], other.label[c])
                        for c in self.span.apex)))

    def __hash__(self):
        return hash(self.span)


@dataclass(frozen=True)
class Cell2:
    """A span morphism with one base 2-cell per source apex element."""

    source: Cell1
    target: Cell1
    morphism: SpanMorphism
    components: dict = field(compare=False)

    def __post_init__(self):
        s, t = self.source, self.target
        be = s.backend
        if be != t.backend:
            raise SpanVError("2-cell endpoints use different backends")
        if self.morphism.source != s.span or self.morphism.target != t.span:
            raise SpanVError("span morphism endpoints do not match labels")
        if s.src != t.src or s.tgt != t.tgt:
            raise SpanVError("2-cell 0-cell boundaries must agree")
        components, image = self.components, self.morphism.map.assignment
        held = type(components) is HeldCells
        if held:
            if components.source != s or not _thin_labels(t):
                raise SpanVError("components held from another 1-cell "
                                 "or not into thin categories")
            if components.target is t and components.image == image \
                    and _each_target(t, cb.is_full):
                return
        elif type(components) is Uniform and type(s.label) is Uniform \
                and type(t.label) is Uniform \
                and _covers(components, s.span.apex.elements) \
                and be.eq1(be.src2(components.value), s.label.value) \
                and be.eq1(be.tgt2(components.value), t.label.value):
            return
        src, tgt, eq1 = s.label, t.label, be.eq1
        for c in s.span.apex.elements:
            if held:
                pair = components.ends(c)
            elif c in components:
                phi = components[c]
                pair = be.src2(phi), be.tgt2(phi)
            else:
                pair = None
            if pair is None:
                raise SpanVError("component missing at %r" % (c,))
            p, q = src[c], tgt[image[c]]
            if pair[0] is not p and not eq1(pair[0], p):
                raise SpanVError("component domain mismatch at %r" % (c,))
            if pair[1] is not q and not eq1(pair[1], q):
                raise SpanVError("component codomain mismatch at %r" % (c,))

    @property
    def backend(self):
        return self.source.backend

    def __eq__(self, other):
        if not isinstance(other, Cell2):
            return False
        return bool(eq2(self, other))

    def __hash__(self):
        return hash((self.source, self.target))


def identity_cell1(x):
    """The identity 1-cell: trivial span, identity labels."""
    span, be, atoms = Span.identity(x.carrier), x.backend, x.carrier.elements
    label = _fill(atoms, be.id1, x.label) or {
        c: be.id1(x.label[c]) for c in atoms}
    return _trusted(Cell1, be, x, x, span, label)


def identity_cell2(a):
    """The identity 2-cell; its components held by a (HeldCells) when
    a's labels land in thin categories and are not one functor."""
    be, atoms = a.backend, a.span.apex.elements
    morphism = SpanMorphism.identity(a.span)
    comps = _fill(atoms, be.id2, a.label)
    if comps is None:
        comps = HeldCells(a, a, morphism.map.assignment) \
            if _thin_labels(a) else {c: be.id2(a.label[c]) for c in atoms}
    return _trusted(Cell2, a, a, morphism, comps)


def cell2_along(source, target, fn, components):
    """The 2-cell source => target with the given components along fn, a
    map of source apex atoms into the target apex commuting with the legs.

    It builds the FinFn, the SpanMorphism and the Cell2 through _trusted
    and runs each class's own checks on it after it is built, in that
    order: the checked constructors' errors, in their order.  It decides
    whether the components are Uniform, and otherwise, once they are
    checked, whether target's labels land in thin categories: then the
    cell holds its components by its 1-cells (HeldCells).  Components
    held already, from source into another target, are checked by the
    labels they land on, and none is composed."""
    s, t = source.span, target.span
    image = _trusted(FinFn, s.apex, t.apex,
                     {c: fn(c) for c in s.apex.elements})
    FinFn.__post_init__(image)
    morphism = _trusted(SpanMorphism, s, t, image)
    SpanMorphism.__post_init__(morphism)
    components = _marked(components)
    cell = _trusted(Cell2, source, target, morphism, components)
    Cell2.__post_init__(cell)
    if type(components) is not Uniform and _thin_labels(target):
        object.__setattr__(cell, "components", HeldCells(
            source, target, morphism.map.assignment))
    return cell


def vcomp2(second, first):
    """Vertical composite; component at c is second at f(c) after first at c.
    Its boundary is compared once: the span maps of equal 1-cells meet
    on equal spans, so their composite is built without checks.  When
    either holds its components by its 1-cells, so does the composite:
    both land in the same thin categories, and none is composed."""
    if second.source != first.target:
        raise SpanVError("vertical composition boundary mismatch")
    be = first.backend
    f, g = first.morphism.map, second.morphism.map
    fm, gm = f.assignment, g.assignment
    morphism = _trusted(SpanMorphism, first.morphism.source,
                        second.morphism.target, _trusted(
                            FinFn, f.domain, g.codomain,
                            {c: gm[fm[c]] for c in f.domain.elements}))
    atoms = f.domain.elements
    comps = _fill(atoms, be.vcomp, second.components, first.components)
    if comps is None:
        comps = HeldCells(first.source, second.target,
                          morphism.map.assignment) \
            if HeldCells in (type(first.components),
                             type(second.components)) else {
            c: be.vcomp(second.components[fm[c]], first.components[c])
            for c in atoms}
    return _trusted(Cell2, first.source, second.target, morphism, comps)


def hcomp1(b, a, atoms=None):
    """Horizontal composite of 1-cells; label (d, c) is b(d) after a(c).
    Given atoms, just the sub-span on them (see compose_spans)."""
    return _composite(b, a, compose_spans(b.span, a.span, atoms))


def _composite(b, a, span):
    """b after a on span, their pullback composite computed elsewhere."""
    if b.src != a.tgt:
        raise SpanVError("horizontal composition boundary mismatch")
    return _pair_labeled(a.src, b.tgt, span, a.backend.comp1, b, a)


def _pair_labeled(src, tgt, span, op, b, a):
    """The 1-cell src -> tgt on span, whose atoms are pairs (d, c) of
    atoms of the checked 1-cells b and a, labeled op(b(d), a(c)): built
    without checks, as any composite of checked cells is."""
    atoms = span.apex.elements
    label = _fill(atoms, op, b.label, a.label) or {
        (d, c): op(b.label[d], a.label[c]) for (d, c) in atoms}
    return _trusted(Cell1, a.backend, src, tgt, span, label)


def hcomp2(g, f):
    """Horizontal composite of 2-cells, componentwise: the one-step chain
    _whiskered from the composite of their sources, landed in the
    composite of their targets, its span map (d, c) -> (g(d), f(c)) and
    its component there g's at d composed with f's at c."""
    return _landed(_chained(hcomp1(g.source, f.source), _whiskered(g, f)),
                   hcomp1(g.target, f.target))


def unit_cell0(backend):
    """The monoidal unit 0-cell: singleton carrier labeled by the base unit.
    Built once and kept on the backend, so that the tensor0 products made
    from it are kept too."""
    unit = vars(backend).get("_unit0")
    if unit is None:
        unit = vars(backend)["_unit0"] = Cell0(
            backend, FinSet.singleton(), {"*": backend.unit0()})
    return unit


def tensor0(a, b):
    """The product 0-cell, shared: checks on it hit is."""
    return _kept(_tensor0, a, b)


def _tensor0(a, b):
    be, carrier = a.backend, FinSet.product(a.carrier, b.carrier)
    atoms = carrier.elements
    label = _fill(atoms, be.tensor0v, a.label, b.label) or {
        (k, l): be.tensor0v(a.label[k], b.label[l]) for (k, l) in atoms}
    return _trusted(Cell0, be, carrier, label)


def tensor1(a, b, atoms=None):
    """a . b on the product 0-cells, whose carriers its span shares."""
    be = a.backend
    src, tgt = tensor0(a.src, b.src), tensor0(a.tgt, b.tgt)
    span = cartesian_product(a.span, b.span, atoms, src.carrier, tgt.carrier)
    return _pair_labeled(src, tgt, span, be.tensor1v, a, b)


def tensor2(u, v):
    """u . v, componentwise: the one-step chain _tensored from the tensor
    of their sources, landed in the tensor of their targets."""
    return _landed(_chained(tensor1(u.source, v.source), _tensored(u, v)),
                   tensor1(u.target, v.target))


def regroup_cell1(src, tgt, fn, atoms=None):
    """The 1-cell src -> tgt along fn, a map of carriers that regroups or
    projects the atoms of products: apex the source carrier (or just the
    points of it given), right leg the identity, left leg fn, and each
    label the base reshuffle of its point's label along fn."""
    be = src.backend
    apex = src.carrier if atoms is None else \
        _trusted(FinSet, tuple(dict.fromkeys(atoms)))
    left = {c: fn(c) for c in apex.elements}
    span = _trusted(Span, src.carrier, tgt.carrier, apex,
                    _trusted(FinFn, apex, tgt.carrier, left),
                    _trusted(FinFn, apex, src.carrier, {c: c for c in left}))
    return _trusted(Cell1, be, src, tgt, span, _fill(
        apex.elements, lambda x, y: be.reshape1(x, y, fn), src.label,
        tgt.label) or {c: be.reshape1(src.label[c], tgt.label[d], fn)
                       for c, d in left.items()})


def relabel_cell2(source, target, fn):
    """The coherence 2-cell with identity components along fn (see
    cell2_along).  Valid when each source label equals the label of its
    image on the nose, as for every re-bracketing or collapse over the
    strict backends."""
    return _landed(_chained(source, _relabeled(fn)), target)


def regroup(t):
    """The re-bracketing ((x, y), z) -> (x, (y, z)) of nested pairs."""
    return (t[0][0], (t[0][1], t[1]))


def ungroup(t):
    """The re-bracketing (x, (y, z)) -> ((x, y), z), inverse to regroup."""
    return ((t[0], t[1][0]), t[1][1])


def interchange_atoms(t):
    """The middle-four swap ((a, b), (c, d)) -> ((a, c), (b, d))."""
    return ((t[0][0], t[1][0]), (t[0][1], t[1][1]))


def part(atoms, i):
    """The i-th coordinates of pair atoms; None (all of them) for None."""
    return None if atoms is None else [x[i] for x in atoms]


def associator_cell2(c, b, a):
    """(c o b) o a => c o (b o a), identity components."""
    return relabel_cell2(hcomp1(hcomp1(c, b), a), hcomp1(c, hcomp1(b, a)),
                         regroup)


def left_unitor_cell2(a):
    """identity(tgt) o a => a, identity components."""
    return relabel_cell2(hcomp1(identity_cell1(a.tgt), a), a,
                         lambda t: t[1])


def right_unitor_cell2(a):
    """a o identity(src) => a, identity components."""
    return relabel_cell2(hcomp1(a, identity_cell1(a.src)), a,
                         lambda t: t[0])


def interchange_cell2(f, g, h, k, product=tensor1, source=None):
    """(f . g) o (h . k) => (f o h) . (g o k), where . is product: the
    tensor by default, or the convolution of monoidale_duoidal (see its
    duoidal_interchange).

    The span map regroups matched pairs; the component at a regrouped
    element is the base interchange mid4 and is where the braiding of a
    one-object backend enters.  Given source, the composite of the
    products on some atoms built already, it is built from that, into
    the image of its atoms.
    """
    lhs = source or hcomp1(product(f, g), product(h, k))
    onto = source and [interchange_atoms(x) for x in lhs.span.apex.elements]
    pair = hcomp1(f, h, part(onto, 0)), hcomp1(g, k, part(onto, 1))
    rhs = product(*pair) if onto is None else product(*pair, onto)
    return _landed(_chained(lhs, _interchanged(f, g, h, k)), rhs)


class _Ends:
    """The cell operations on the pairs of labels that held components
    run between (HeldCells), each seam checked as vcomp checks it."""

    id2 = staticmethod(lambda p: (p, p))

    def __init__(self, be):
        self.be = be

    def of(self, phi):
        return self.be.src2(phi), self.be.tgt2(phi)

    def vcomp(self, second, first):
        if second[0] is not first[1] and not self.be.eq1(second[0], first[1]):
            raise cb.CatError("vertical composition boundary mismatch")
        return first[0], second[1]

    def comp2(self, g, f):
        return self.be.comp1(g[0], f[0]), self.be.comp1(g[1], f[1])

    def tensor2v(self, f, g):
        return self.be.tensor1v(f[0], g[0]), self.be.tensor1v(f[1], g[1])


def _combined(be, ends, op, *parts):
    """op(be, ...) of the parts' components, each part a list of them or
    a 1-tuple, one for every atom: once when every part is one, else atom
    by atom, by ends in place of be when given (one read as its ends)."""
    if all(type(part) is tuple for part in parts):
        return op(be, *[part[0] for part in parts]),
    n = next(len(part) for part in parts if type(part) is not tuple)
    return [op(ends or be, *values) for values in zip(*[
        repeat(part[0] if ends is None else ends.of(part[0]), n)
        if type(part) is tuple else part for part in parts])]


def _at(step, xs, be, ends):
    """step read at the atoms xs: the atoms they reach and its components
    there, None for identities."""
    if type(step) is Cell1:
        label = step.label
        if type(label) is Uniform:
            return list(xs), (be.id2(label.value),)
        return list(xs), [(ends or be).id2(label[x]) for x in xs]
    if type(step) is not Cell2:
        return step(xs, be, ends)
    image, comps = step.morphism.map.assignment, step.components
    ys = [image[x] for x in xs]
    if type(comps) is Uniform:
        return ys, (comps.value,)
    src, tgt = step.source.label, step.target.label
    return ys, [comps[x] for x in xs] if ends is None else \
        [(src[x], tgt[y]) for x, y in zip(xs, ys)]


def _relabeled(fn):
    """The coherence step along the atom map fn, identity components: an
    associator or unitor, whiskered or not, or a run of them."""
    return lambda xs, be, ends: ([fn(x) for x in xs], None)


def _pairwise(op, g, f):
    """The step on pair atoms (d, c) reading g at d and f at c, each a
    1-cell, a 2-cell or a step, with op(be, g's, f's) as component."""
    def step(xs, be, ends):
        gy, gc = _at(g, [x[0] for x in xs], be, ends)
        fy, fc = _at(f, [x[1] for x in xs], be, ends)
        return list(zip(gy, fy)), _combined(be, ends, op, gc, fc)
    return step


def _whiskered(g, f):
    """g o f on the composite atoms of their sources."""
    return _pairwise(lambda be, x, y: be.comp2(x, y), g, f)


def _tensored(u, v):
    """u . v on the product atoms of their sources."""
    return _pairwise(lambda be, x, y: be.tensor2v(x, y), u, v)


def _interchanged(f, g, h, k):
    """The step (f . g) o (h . k) => (f o h) . (g o k), for the tensor
    or any product on the same atoms: the middle-four swap, each
    component the base interchange mid4 of the four labels."""
    def step(xs, be, ends):
        F, G, H, K = labels = f.label, g.label, h.label, k.label
        ys = [interchange_atoms(x) for x in xs]
        if xs and all(type(label) is Uniform for label in labels):
            return ys, (be.mid4(*[label.value for label in labels]),)
        mid4 = be.mid4 if ends is None else lambda *ps: ends.of(be.mid4(*ps))
        return ys, [mid4(F[a], G[b], H[c], K[d]) for ((a, b), (c, d)) in xs]
    return step


def _run(*steps):
    """The vertical composite of steps, the first first, as one step."""
    return lambda xs, be, ends: _composed(xs, None, steps, be, ends)


def _composed(xs, comps, steps, be, ends):
    """steps read from the atoms xs on, their components composed onto
    comps (None for identities): the atoms reached and the composite."""
    for each in steps:
        xs, more = _at(each, xs, be, ends)
        if more is not None:
            comps = more if comps is None else _combined(
                be, ends, lambda o, y, x: o.vcomp(y, x), more, comps)
    return xs, comps


def _chained(start, *steps):
    """start, a 1-cell or a chain, then steps: the chain (source, the
    atom each source atom reaches, the components there, and the _Ends
    they compose by into thin categories, else None)."""
    if type(start) is Cell1:
        ends = _Ends(start.backend) if _thin_labels(start) else None
        start = (start, *_at(start, start.span.apex.elements,
                             start.backend, ends), ends)
    source, image, comps, ends = start
    return (source, *_composed(image, comps, steps, source.backend, ends),
            ends)


def _landed(chain, target):
    """The 2-cell a chain composes, landed in target by cell2_along,
    which checks it there; into thin categories it holds the labels the
    chain reaches (HeldCells), whose existence cell2_along decides."""
    source, image, comps, ends = chain
    atoms = source.span.apex.elements
    land = dict(zip(atoms, image))
    if type(comps) is tuple:
        comps = _uniform(atoms, comps[0]) if atoms else {}
    elif ends is not None:
        comps = HeldCells(source, dict(zip(atoms, [G for _, G in comps])),
                          land)
    else:
        comps = dict(zip(atoms, comps))
    return cell2_along(source, target, land.__getitem__, comps)


@dataclass(frozen=True)
class InverseCellResult:
    inverse: Cell2 | None
    witness: object = None

    def __bool__(self):
        return self.inverse is not None


class _NotInvertible(Exception):
    """A component without an inverse; its argument is the witness."""


def invert_cell2(u):
    """Invert the span map and every component, or report what fails.
    A cell that holds its components by its 1-cells inverts to one that
    holds them too: each component is invertible when the reverse homs
    exist, decided once when the categories its labels land in are thin
    groupoids, atom by atom otherwise, and none is inverted."""
    if not u.morphism.map.is_bijection():
        img = u.morphism.map.image()
        missed = [d for d in u.target.span.apex if d not in img]
        if missed:
            return InverseCellResult(None, ("span map not surjective", missed[0]))
        seen = {}
        for c in u.source.span.apex:
            d = u.morphism.map(c)
            if d in seen:
                return InverseCellResult(
                    None, ("span map not injective", (seen[d], c)))
            seen[d] = c
    be, fn = u.backend, u.morphism.map
    image, atoms = fn.assignment, u.source.span.apex.elements

    def inverse(phi, c):
        inv, witness = be.invert2(phi)
        if inv is None:
            raise _NotInvertible(("component not invertible", c, witness))
        return inv
    held = type(u.components) is HeldCells
    if held and not _each_target(u.target, cb.is_groupoid):
        labels, ends = u.source.label, u.target.label
        for c in atoms:
            gap = cb.ThinMap.components(ends[image[c]], labels[c]).gap()
            if gap is not None:
                return InverseCellResult(
                    None, ("component not invertible", c, gap))
    elif not held:
        try:
            comps = _fill(map(image.__getitem__, atoms) if atoms else (),
                          lambda phi: inverse(phi, atoms[0]),
                          u.components) or {
                image[c]: inverse(u.components[c], c) for c in atoms}
        except _NotInvertible as failure:
            return InverseCellResult(None, failure.args[0])
    back = _trusted(FinFn, fn.codomain, fn.domain,
                    {fn(c): c for c in fn.domain})
    if held:
        comps = HeldCells(u.target, u.source, back.assignment)
    return InverseCellResult(_trusted(Cell2, u.target, u.source, _trusted(
        SpanMorphism, u.morphism.target, u.morphism.source, back), comps))


def eq2(u, v, transport=()):
    """Exact equality of 2-cells, after composing u with coherence cells.

    Each transport cell must be invertible; they are composed vertically
    onto u in the given order before the comparison.  The verdict witness
    locates the first difference: a span-map disagreement or a component
    difference with its backend-specific position, past the boundary and
    fast checks the first that differences2 finds.  When either cell
    holds its components by its 1-cells, both land in thin categories,
    where a component is fixed by its two functors: the cells are equal
    when their boundaries and span maps are, and no component is read.
    """
    for t in transport:
        if not invert_cell2(t):
            raise SpanVError("transport cell is not invertible")
        u = vcomp2(t, u)
    if u.source != v.source or u.target != v.target:
        return Verdict(False, witness="boundary mismatch")
    if (HeldCells in (type(u.components), type(v.components))
            or _agree_once(u.backend.eq2, u.components, v.components,
                           u.source.span.apex.elements)) \
            and u.morphism.map == v.morphism.map:
        return Verdict(True)
    witness = next(differences2(u, v), None)
    return Verdict(witness is None, witness=witness)


def differences2(u, v):
    """eq2's witness at each atom of the shared source where two parallel
    2-cells differ, in apex order: ("span map", c), else ("component", c,
    the backend's position), unless either holds them by its 1-cells."""
    be, mine, theirs = u.backend, u.morphism.map.assignment, \
        v.morphism.map.assignment
    held = HeldCells in (type(u.components), type(v.components))
    for c in u.source.span.apex.elements:
        if mine[c] != theirs[c]:
            yield ("span map", c)
        elif not held and not be.eq2(u.components[c], v.components[c]):
            yield ("component", c,
                   be.first_diff(u.components[c], v.components[c]))


@dataclass
class BackendFunctor:
    """Pointwise data of a base functor for transporting labeled cells.

    map0/map1/map2 push base values; comparison(p, q) is the base 2-cell
    comparing map1(p) o map1(q) with map1(p o q), recorded per composite.
    """

    source_backend: Backend
    target_backend: Backend
    map0: object
    map1: object
    map2: object
    comparison: object = None


def apply_span_F(F, cell):
    """Push a labeled cell through a base functor, leaving the span data
    unchanged.  Returns a cell over the target backend; the comparison
    cells for composites are available from F for pointwise lax checks."""
    if isinstance(cell, Cell0):
        return Cell0(F.target_backend, cell.carrier,
                     {x: F.map0(cell.label[x]) for x in cell.carrier})
    if isinstance(cell, Cell1):
        return Cell1(F.target_backend,
                     apply_span_F(F, cell.src), apply_span_F(F, cell.tgt),
                     cell.span,
                     {c: F.map1(cell.label[c]) for c in cell.span.apex})
    if isinstance(cell, Cell2):
        return cell2_along(apply_span_F(F, cell.source),
                           apply_span_F(F, cell.target), cell.morphism.map,
                           {c: F.map2(cell.components[c])
                            for c in cell.source.span.apex})
    raise SpanVError("not a labeled cell: %r" % (cell,))


def vect_as_lazy_category(q, probes):
    """Graded vector spaces as a lazy category checked on the given
    probes; its probe morphisms are the identities and the braidings of
    probe pairs."""
    if not probes:
        raise cb.CatError("probe list must not be empty")
    probe_morphisms = [vb.VMorphism.identity(x) for x in probes]
    for x in probes:
        for y in probes:
            probe_morphisms.append(vb.braiding(x, y, q))
    return cb.LazyCategory(
        name="graded vector spaces",
        src=lambda f: f.dom,
        tgt=lambda f: f.cod,
        compose=lambda g, f: g.compose(f),
        identity=vb.VMorphism.identity,
        probe_objects=list(probes),
        probe_morphisms=probe_morphisms,
    )


class VectImageBackend(_GradedCells):
    """The image of the tensoring pseudofunctor V -> Cat, as a backend.

    The single 0-cell is the lazy category of graded vector spaces.  The
    tensor is strict, so a graded object p stands for the functor
    p tensor (-) exactly, a morphism f for the transformation
    f tensor 1, and composing those functors composes the p's: the 1- and
    2-cells are the graded objects and morphisms themselves, and every
    composition comparison cell is an identity.  Backends, like their
    0-cell, are equal only to themselves.  Tensor of image cells is out
    of scope: the exported structures are checked pointwise on probes
    rather than through a product of lazy categories.
    """

    def __init__(self, q, probes):
        self.q = q
        self.category = vect_as_lazy_category(q, probes)

    def eq0(self, x, y):
        return x is y

    def src1(self, p):
        return self.category

    def tgt1(self, p):
        return self.category

    def mid4(self, p, q, r, s):
        raise SpanVError("tensor of lazy-category cells is checked pointwise")

    def evaluate1(self, p, x):
        """The functor p tensor (-) at a probe object."""
        return vb.tensor_obj(p, x)

    def evaluate2(self, f, x):
        """The component of f tensor (-) at a probe object."""
        return vb.tensor_mor(f, vb.VMorphism.identity(x))

    def unit_compat(self):
        """The unit object K and the (identity) comparison K @ K -> K."""
        k = vb.unit_object()
        assert vb.tensor_obj(k, k) == k
        return k, vb.VMorphism.identity(k)

    def product_compat_component(self, p, p2, x, y):
        """(p @ x) @ (p2 @ y) -> (p @ p2) @ (x @ y), the 1 @ c @ 1 map
        built from the braiding of x past p2, which is invertible."""
        return vb.tensor_mor(vb.VMorphism.identity(p),
                             vb.tensor_mor(vb.braiding(x, p2, self.q),
                                           vb.VMorphism.identity(y)))


def vect_to_cat_functor(q, probes):
    """The tensoring pseudofunctor as transport data for labeled cells.

    Returns the BackendFunctor together with its target backend.  It
    keeps every 1- and 2-cell label and sends the one 0-cell to the lazy
    category; the comparison at (p, p2) is the identity on their tensor
    because the word tensor is strictly associative.
    """
    image = VectImageBackend(q, probes)
    def comparison(p, p2):
        return image.id2(image.comp1(p, p2))
    return BackendFunctor(
        source_backend=VectBackend(q),
        target_backend=image,
        map0=lambda x: image.category,
        map1=lambda p: p,
        map2=lambda f: f,
        comparison=comparison,
    ), image
