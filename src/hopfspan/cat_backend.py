"""Finite categories, functors, natural transformations, lazy categories.

FinCategory stores a dense composition table keyed by composable morphism
pairs (g, f) with tgt(f) = src(g); the table value is g after f.  Category
axioms are verified at construction, and check_category collects every
violation.  The table is never changed after construction, so products
of a category are shared (spanv_core.product_category), and built without
the check from factors that passed it.  Likewise functors and natural
transformations are checked when built by their constructors, while the
identities and composites of checked ones are not; a composite still
checks the boundary it composes across.

LazyCategory is a category too big to materialize, given by procedures;
it verifies the axioms on a finite list of probe objects and morphisms
only.  This module knows nothing of graded vector spaces: their lazy
category is built next to the image backend in spanv_core.
"""

from dataclasses import dataclass, field

from .finset_span import FinSet, FinFn, _trusted
from .reporting import CheckReport, Verdict


class CatError(ValueError):
    """Raised for malformed categorical data, with a located witness."""


@dataclass(frozen=True)
class FinCategory:
    objects: FinSet
    morphisms: FinSet
    src: FinFn
    tgt: FinFn
    identities: FinFn
    composition: dict = field(compare=False)

    # composable_pairs() once computed; the table never changes.
    _pairs = None

    def __post_init__(self):
        object.__setattr__(self, "composition", dict(self.composition))
        report = check_category(self)
        if not report.ok:
            raise CatError(report.summary())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinCategory)
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.src == other.src and self.tgt == other.tgt
            and self.identities == other.identities
            and self.composition == other.composition)

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def compose(self, g, f):
        """g after f."""
        if self.tgt(f) != self.src(g):
            raise CatError("morphisms %r, %r are not composable" % (g, f))
        return self.composition[(g, f)]

    def composable_pairs(self):
        """Pairs (g, f) with tgt(f) = src(g), lexicographic in morphism
        order: a tuple, computed once, since the category never
        changes."""
        if self._pairs is None:
            into = self.morphisms_by(self.tgt)
            object.__setattr__(self, "_pairs", tuple(
                (g, f) for g in self.morphisms
                for f in into.get(self.src(g), ())))
        return self._pairs

    def morphisms_by(self, end):
        """Morphisms bucketed by end(m), each bucket in morphism order."""
        buckets = {}
        for m in self.morphisms:
            buckets.setdefault(end(m), []).append(m)
        return buckets

    def hom(self, x, y):
        return [m for m in self.morphisms
                if self.src(m) == x and self.tgt(m) == y]

    def inverse(self, m):
        """The two-sided inverse of m, or None when m has none."""
        x, y = self.src(m), self.tgt(m)
        return next((n for n in self.hom(y, x)
                     if self.composition.get((n, m)) == self.identities(x)
                     and self.composition.get((m, n)) == self.identities(y)),
                    None)

    @staticmethod
    def from_monoid(elements, mul, unit, obj="*"):
        """One-object category from a multiplication table dict (a,b) -> ab."""
        objects = FinSet([obj])
        morphisms = FinSet(elements)
        src = FinFn.constant(morphisms, objects, obj)
        tgt = FinFn.constant(morphisms, objects, obj)
        identities = FinFn(objects, morphisms, {obj: unit})
        composition = {(g, f): mul[(g, f)] for g in morphisms for f in morphisms}
        return FinCategory(objects, morphisms, src, tgt, identities, composition)

    @staticmethod
    def indiscrete(objects):
        """Exactly one morphism (x, y): x -> y between any two objects."""
        objects = FinSet(objects)
        morphisms = FinSet([(x, y) for x in objects for y in objects])
        src = FinFn(morphisms, objects, {(x, y): x for (x, y) in morphisms})
        tgt = FinFn(morphisms, objects, {(x, y): y for (x, y) in morphisms})
        identities = FinFn(objects, morphisms, {x: (x, x) for x in objects})
        composition = {((y, z), (x, y2)): (x, z)
                       for (y, z) in morphisms for (x, y2) in morphisms
                       if y2 == y}
        return FinCategory(objects, morphisms, src, tgt, identities, composition)

    @staticmethod
    def discrete(objects):
        """Identity morphisms only."""
        objects = FinSet(objects)
        morphisms = FinSet([("id", x) for x in objects])
        src = FinFn(morphisms, objects, {m: m[1] for m in morphisms})
        tgt = FinFn(morphisms, objects, {m: m[1] for m in morphisms})
        identities = FinFn(objects, morphisms, {x: ("id", x) for x in objects})
        composition = {(m, m): m for m in morphisms}
        return FinCategory(objects, morphisms, src, tgt, identities, composition)


def check_category(c):
    """Collect every violation of the category axioms in c."""
    report = CheckReport("category axioms")
    for x in c.objects:
        i = c.identities(x)
        if c.src(i) != x or c.tgt(i) != x:
            report.fail("identity endpoints", x)
    for (g, f) in c.composition:
        if c.tgt(f) != c.src(g):
            report.fail("table entry on non-composable pair", (g, f))
    for (g, f) in c.composable_pairs():
        if (g, f) not in c.composition:
            report.fail("missing composite", (g, f))
            continue
        gf = c.composition[(g, f)]
        if gf not in c.morphisms:
            report.fail("composite not a morphism", (g, f))
        elif c.src(gf) != c.src(f) or c.tgt(gf) != c.tgt(g):
            report.fail("composite endpoints", (g, f))
    if not report.ok:
        return report
    for f in c.morphisms:
        if c.composition[(c.identities(c.tgt(f)), f)] != f:
            report.fail("left identity", f)
        if c.composition[(f, c.identities(c.src(f)))] != f:
            report.fail("right identity", f)
    out_of = c.morphisms_by(c.src)
    for (g, f) in c.composable_pairs():
        for h in out_of.get(c.tgt(g), ()):
            if c.composition[(c.composition[(h, g)], f)] != \
                    c.composition[(h, c.composition[(g, f)])]:
                report.fail("associativity", (h, g, f))
    return report


# The unit of the product: one object, so that every unit label and the
# products cached on it are shared.
TERMINAL = FinCategory.discrete(["*"])

def is_groupoid(c):
    """True iff every morphism has a two-sided inverse."""
    for m in c.morphisms:
        if c.inverse(m) is None:
            return Verdict(False, witness=m)
    return Verdict(True)


@dataclass(frozen=True)
class FunctorData:
    dom: FinCategory
    cod: FinCategory
    omap: FinFn
    mmap: FinFn

    def __post_init__(self):
        for m in self.dom.morphisms:
            fm = self.mmap(m)
            if self.cod.src(fm) != self.omap(self.dom.src(m)) or \
                    self.cod.tgt(fm) != self.omap(self.dom.tgt(m)):
                raise CatError("functor breaks endpoints at %r" % (m,))
        for x in self.dom.objects:
            if self.mmap(self.dom.identities(x)) != \
                    self.cod.identities(self.omap(x)):
                raise CatError("functor breaks identity at %r" % (x,))
        mmap = self.mmap.assignment
        dom_comp, cod_comp = self.dom.composition, self.cod.composition
        for (g, f) in self.dom.composable_pairs():
            if mmap[dom_comp[(g, f)]] != cod_comp[(mmap[g], mmap[f])]:
                raise CatError("functor breaks composition at %r" % ((g, f),))

    @staticmethod
    def identity(c):
        return _trusted(FunctorData, c, c, FinFn.identity(c.objects),
                        FinFn.identity(c.morphisms))

    def then(self, other):
        """other after self."""
        if other.dom != self.cod:
            raise CatError("functors are not composable")
        return _trusted(FunctorData, self.dom, other.cod,
                        other.omap.compose(self.omap),
                        other.mmap.compose(self.mmap))


@dataclass(frozen=True)
class NatTransData:
    source: FunctorData
    target: FunctorData
    components: dict = field(compare=False)

    def __post_init__(self):
        F, G = self.source, self.target
        if F.dom != G.dom or F.cod != G.cod:
            raise CatError("natural transformation endpoints must agree")
        cod = F.cod
        for x in F.dom.objects:
            if x not in self.components:
                raise CatError("component missing at %r" % (x,))
            n = self.components[x]
            if cod.src(n) != F.omap(x) or cod.tgt(n) != G.omap(x):
                raise CatError("component endpoints at %r" % (x,))
        for m in F.dom.morphisms:
            x, y = F.dom.src(m), F.dom.tgt(m)
            left = cod.composition[(self.components[y], F.mmap(m))]
            right = cod.composition[(G.mmap(m), self.components[x])]
            if left != right:
                raise CatError("naturality fails at %r" % (m,))

    def __eq__(self, other):
        return (isinstance(other, NatTransData)
                and self.source == other.source and self.target == other.target
                and all(self.components[x] == other.components[x]
                        for x in self.source.dom.objects))

    def __hash__(self):
        return hash((self.source, self.target))

    @staticmethod
    def identity(F):
        return _trusted(NatTransData, F, F, {x: F.cod.identities(F.omap(x))
                                             for x in F.dom.objects})

    def vcomp(self, other):
        """other after self (same functor boundary chain)."""
        if self.target != other.source:
            raise CatError("vertical composition boundary mismatch")
        cod = self.source.cod
        comps = {x: cod.composition[(other.components[x], self.components[x])]
                 for x in self.source.dom.objects}
        return _trusted(NatTransData, self.source, other.target, comps)

    def hcomp(self, other):
        """Horizontal composite: self: F => G on C -> D, other: H => K on
        D -> E; result H.F => K.G with component K(self_x) after other_{F x}."""
        F, G = self.source, self.target
        H, K = other.source, other.target
        E = H.cod
        comps = {x: E.composition[(K.mmap(self.components[x]),
                                   other.components[F.omap(x)])]
                 for x in F.dom.objects}
        return _trusted(NatTransData, F.then(H), G.then(K), comps)


def nat_is_iso(n):
    """True iff every component has a two-sided inverse in the codomain."""
    cod = n.source.cod
    for x in n.source.dom.objects:
        if cod.inverse(n.components[x]) is None:
            return Verdict(False, witness=x)
    return Verdict(True)


@dataclass
class LazyCategory:
    """A category given by procedures, verified on probes only."""

    name: str
    src: object
    tgt: object
    compose: object
    identity: object
    probe_objects: list
    probe_morphisms: list

    def check_probes(self):
        report = CheckReport("lazy category probes (%s)" % self.name)
        for f in self.probe_morphisms:
            x, y = self.src(f), self.tgt(f)
            if self.compose(self.identity(y), f) != f:
                report.fail("left identity", f)
            if self.compose(f, self.identity(x)) != f:
                report.fail("right identity", f)
        for f in self.probe_morphisms:
            for g in self.probe_morphisms:
                if self.src(g) != self.tgt(f):
                    continue
                gf = self.compose(g, f)
                for h in self.probe_morphisms:
                    if self.src(h) != self.tgt(g):
                        continue
                    if self.compose(self.compose(h, g), f) != \
                            self.compose(h, gf):
                        report.fail("associativity", (h, g, f))
        return report
