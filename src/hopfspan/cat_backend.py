"""Finite categories, functors, natural transformations, lazy categories.

FinCategory's composition maps composable morphism pairs (g, f) with
tgt(f) = src(g) to g after f.  Category axioms are verified at
construction, and check_category collects every violation, reading the
unit laws from the table and deciding associativity on morphism
positions; on one object, a monoid's table, it walks the triples only
when Light's test on generators fails (light_associative).  In a thin
category (is_thin: no two
morphisms share their endpoints) every law is decided by its endpoints:
once they hold, its two sides are parallel and so equal, and
check_category, the functor check and the naturality check into a thin
category stop there; the inverse of m: x -> y is the one morphism
y -> x, if any, read without composing.  A thin category may store no
composite (the discrete and indiscrete ones do not): on a ThinTable, g
after f is the one morphism between their ends.  The composition is
never changed after construction, so products are shared
(spanv_core.product_category) and built without the check from factors
that passed it.  A product is never tabulated: its table is a
ProductTable, which composes componentwise on lookup, and the functors
out of it map on lookup too (PairMap, ComposedMap).  Every
check whose domain is a product runs on its generators (f, 1) and
(1, k): naturality on generators, functoriality on generating_pairs.
Functors and natural transformations are checked when built by their
constructors, while the identities and composites of checked ones are
not; a composite still checks the boundary it composes across.
A composite with an identity functor, or a vertical one with an
identity transformation, is the other operand, and the horizontal
composite of two identities is the identity on the composite functor.
Into a thin category there is at most one transformation F => G, so
one may be held by its two functors (NatTransData.held): its component
at a is the one morphism F a -> G a, read on lookup, and two
transformations into a thin category are equal when their functors
are.  Likewise a functor into a thin category may be held by its
object map (FunctorData.held): m goes to the one morphism between the
images of its ends, read on lookup.  Both are one view, ThinMap: key
-> the one morphism between its two ends, which exists once every hom
it reads is decided non-empty (ThinMap.gap); a composite into a thin
category is held by the ComposedMap of its operands' object maps.  A
point functor, out of
the unit category TERMINAL, is built once per object (point_functor),
and a composite of one is the point at its image, so composites of
points compare by identity.

LazyCategory is a category too big to materialize, given by procedures;
it verifies the axioms on a finite list of probe objects and morphisms
only.  This module knows nothing of graded vector spaces: their lazy
category is built next to the image backend in spanv_core.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import is_

from .finset_span import FinSet, FinFn, _kept, _owns_no_memo, _trusted
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

    # composable_pairs(), the hom buckets, a product's generators,
    # is_thin, is_groupoid and the identity functor once computed; the
    # table never changes.
    _pairs = None
    _homs = None
    _generators = None
    _thin = None
    _groupoid = None
    _identity = None

    def __post_init__(self):
        # A product's table reads its checked factors, and a thin one
        # its buckets: a copy would tabulate them.
        if type(self.composition) not in (ProductTable, ThinTable):
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
        """The morphisms x -> y in morphism order."""
        return list(self._homs_by_ends().get((x, y), ()))

    def _homs_by_ends(self):
        """The morphisms bucketed by (src, tgt), as a thin table holds
        them, once, since the category never changes."""
        if self._homs is None:
            table = self.composition
            if type(table) is not ThinTable:
                table = ThinTable(self.src, self.tgt)
            object.__setattr__(self, "_homs", table.homs)
        return self._homs

    def inverse(self, m):
        """The two-sided inverse of m, or None when m has none.  In a
        thin category that is the one morphism of hom(y, x) for m: x -> y,
        if any: both composites are then endomorphisms, so identities."""
        x, y = self.src(m), self.tgt(m)
        if is_thin(self):
            back = self._homs_by_ends().get((y, x))
            return back[0] if back else None
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
        """Exactly one morphism (x, y): x -> y between any two objects,
        on a thin table."""
        objects = FinSet(objects)
        morphisms = FinSet.product(objects, objects)
        src = FinFn(morphisms, objects, {m: m[0] for m in morphisms})
        tgt = FinFn(morphisms, objects, {m: m[1] for m in morphisms})
        identities = FinFn(objects, morphisms, {x: (x, x) for x in objects})
        return FinCategory(objects, morphisms, src, tgt, identities,
                           ThinTable(src, tgt))

    @staticmethod
    def discrete(objects):
        """Identity morphisms only, on a thin table."""
        objects = FinSet(objects)
        morphisms = FinSet([("id", x) for x in objects])
        ends = FinFn(morphisms, objects, {m: m[1] for m in morphisms})
        identities = FinFn(objects, morphisms, {x: ("id", x) for x in objects})
        return FinCategory(objects, morphisms, ends, ends, identities,
                           ThinTable(ends, ends))


def is_thin(c):
    """True when no two morphisms of c share their (src, tgt): then any
    two parallel morphisms are equal, and a law whose sides are parallel
    holds.  Computed once and kept on c; a product is thin when both
    factors are, read from them, so one with an empty factor may read
    not thin."""
    if c._thin is None:
        factors = product_factors(c)
        if factors is None:
            thin = len(c._homs_by_ends()) == len(c.morphisms)
        else:
            thin = all(map(is_thin, factors))
        object.__setattr__(c, "_thin", thin)
    return c._thin


def check_category(c):
    """Collect every violation of the category axioms in c."""
    report = CheckReport("category axioms")
    src, tgt = c.src.assignment, c.tgt.assignment
    for x in c.objects:
        i = c.identities(x)
        if src[i] != x or tgt[i] != x:
            report.fail("identity endpoints", x)
    table = c.composition
    if type(table) is ThinTable:
        return _check_thin(c, report)
    has = c.morphisms.__contains__
    for (g, f) in table:
        if not has(g) or not has(f) or tgt[f] != src[g]:
            report.fail("table entry on non-composable pair", (g, f))
    for (g, f) in c.composable_pairs():
        if (g, f) not in table:
            report.fail("missing composite", (g, f))
            continue
        gf = table[(g, f)]
        if not has(gf):
            report.fail("composite not a morphism", (g, f))
        elif src[gf] != src[f] or tgt[gf] != tgt[g]:
            report.fail("composite endpoints", (g, f))
    if not report.ok or is_thin(c):
        # Both sides of each law are parallel once the endpoints hold.
        return report
    # Every composite is a morphism.
    morphisms, ids = c.morphisms.elements, c.identities.assignment
    for f in morphisms:
        if table[(ids[tgt[f]], f)] != f:
            report.fail("left identity", f)
        if table[(f, ids[src[f]])] != f:
            report.fail("right identity", f)
    if len(c.objects) == 1 and light_associative(morphisms, table):
        # A monoid's table: its triples are walked only to name a
        # failure.
        return report
    # Decide associativity on morphism positions, where after[g][f] is
    # the position of g after f.
    pos = c.morphisms.positions()
    after = [{} for _ in morphisms]
    for (g, f), gf in table.items():
        after[pos[g]][pos[f]] = pos[gf]
    out_of = {x: [pos[h] for h in hs]
              for x, hs in c.morphisms_by(c.src).items()}
    for (g, f) in c.composable_pairs():
        i, j = pos[g], pos[f]
        gf = after[i][j]
        for k in out_of.get(tgt[g], ()):
            hk = after[k]
            if after[hk[i]][j] != hk[gf]:
                report.fail("associativity", (morphisms[k], g, f))
    return report


def light_associative(elements, mul):
    """Whether the table mul, each pair (x, y) of elements to an element,
    is associative, by Light's test (A. H. Clifford and G. B. Preston,
    The Algebraic Theory of Semigroups, vol. 1): the a with
    (x a) y = x (a y) for all x and y are closed under mul, so a set
    generating the table suffices.  It is taken greedily: each element
    the left-bracketed products of the earlier ones miss.  A two-sided
    unit passes at once, each other generator costs n^2 products.  False
    says only that some triple fails."""
    elements = list(elements)
    reached, generators = set(), []
    for g in elements:
        if g in reached:
            continue
        generators.append(g)
        grown = [g, *[mul[(x, g)] for x in reached]]
        while grown:
            e = grown.pop()
            if e not in reached:
                reached.add(e)
                grown += [mul[(e, a)] for a in generators]
    for a in generators:
        left = [mul[(x, a)] for x in elements]
        right = [mul[(a, y)] for y in elements]
        if left == right == elements:
            continue  # a unit: (x a) y = x y = x (a y)
        for x, xa in zip(elements, left):
            for y, ay in zip(elements, right):
                if mul[(xa, y)] != mul[(x, ay)]:
                    return False
    return True


def _check_thin(c, report):
    """The laws on a thin table: no two morphisms share their ends, and
    the hom relation is transitive, one set test per morphism x -> y:
    what y reaches, x reaches; none, and no reach set built, when every
    hom is non-empty.  Failing that, the composable pairs with no
    morphism between their ends are reported, as a table's would."""
    table = c.composition
    if (table.src, table.tgt) != (c.src, c.tgt):
        report.fail("table endpoints", None)
        return report
    for ms in table.homs.values():
        if len(ms) > 1:
            report.fail("parallel morphisms", tuple(ms))
    if len(table.homs) < len(c.objects) ** 2:
        reach = {}
        for (x, y) in table.homs:
            reach.setdefault(x, set()).add(y)
        if not all(reach[x].issuperset(reach.get(y, ()))
                   for (x, y) in table.homs):
            for pair in c.composable_pairs():
                if pair not in table:
                    report.fail("missing composite", pair)
    return report


class _View(Mapping):
    """A read-only table computed on lookup from the tables it reads,
    its parts.  Views of one kind on equal parts are equal; otherwise a
    view equals a mapping with the same entries, compared one entry at
    a time, never tabulated."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other or (type(other) is type(self)
                             and self.parts() == other.parts()):
            return True
        if not isinstance(other, Mapping):
            return NotImplemented
        missing = object()
        return len(other) == len(self) and all(
            other.get(key, missing) == value for key, value in self.items())

    def __repr__(self):
        # The kind and its parts, never the entries.
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(map(repr, self.parts())))


class ProductTable(_View):
    """The composition table of a x b: ((g, h), (f, k)) -> (g after f,
    h after k), read from the factors' tables.  It iterates as the
    composable pairs do: lexicographic in the product's morphism order,
    first in (g, h), then in (f, k)."""

    __slots__ = ("factors",)

    def __init__(self, a, b):
        self.factors = (a, b)

    def parts(self):
        return self.factors

    def __getitem__(self, key):
        try:
            (g, h), (f, k) = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        a, b = self.factors
        return (a.composition[(g, f)], b.composition[(h, k)])

    def __iter__(self):
        a, b = self.factors
        a_into, b_into = a.morphisms_by(a.tgt), b.morphisms_by(b.tgt)
        for g in a.morphisms.elements:
            fs = a_into.get(a.src(g), ())
            for h in b.morphisms.elements:
                ks = b_into.get(b.src(h), ())
                for f in fs:
                    for k in ks:
                        yield ((g, h), (f, k))

    def __len__(self):
        # A checked factor's table holds exactly its composable pairs.
        a, b = self.factors
        return len(a.composition) * len(b.composition)


class ThinTable(_View):
    """The composition of a thin category on its end maps: (g, f) -> the
    one morphism from src(f) to tgt(g), read from homs, the morphisms
    bucketed by (src, tgt).  It iterates as the composable pairs do."""

    __slots__ = ("src", "tgt", "homs")

    def __init__(self, src, tgt):
        self.src, self.tgt, self.homs = src, tgt, {}
        ends, into = src.assignment, tgt.assignment
        for m in src.domain.elements:
            self.homs.setdefault((ends[m], into[m]), []).append(m)

    def parts(self):
        return (self.src, self.tgt)

    def __getitem__(self, key):
        src, tgt = self.src.assignment, self.tgt.assignment
        try:
            g, f = key
            if tgt[f] == src[g]:
                return self.homs[(src[f], tgt[g])][0]
        except (TypeError, ValueError, KeyError):
            pass
        raise KeyError(key)

    def __iter__(self):
        morphisms, into = self.src.domain.elements, {}
        for f in morphisms:
            into.setdefault(self.tgt(f), []).append(f)
        for g in morphisms:
            for f in into.get(self.src(g), ()):
                yield (g, f)

    def __len__(self):
        return sum(1 for _ in self)


class _MapOn(_View):
    """A view whose keys are the atoms of a FinSet, its domain, with
    the two tables it reads."""

    __slots__ = ("domain", "left", "right")

    def __init__(self, domain, left, right):
        self.domain, self.left, self.right = domain, left, right

    def parts(self):
        return (self.domain, self.left, self.right)

    def __repr__(self):
        # The tables only: the domain lists every atom of a product.
        return "%s(%r, %r)" % (type(self).__name__, self.left, self.right)

    def __iter__(self):
        return iter(self.domain.elements)

    def __len__(self):
        return len(self.domain)

    def __contains__(self, key):
        return key in self.domain


class PairMap(_MapOn):
    """(m, n) -> (left[m], right[n]) on a product domain."""

    __slots__ = ()

    def __getitem__(self, key):
        try:
            m, n = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return (self.left[m], self.right[n])


class ComposedMap(_MapOn):
    """a -> left[right[a]]: left after right."""

    __slots__ = ()

    def __getitem__(self, key):
        return self.left[self.right[key]]


class ThinMap(_MapOn):
    """key -> the one morphism objects[left[key]] -> objects[right[key]]
    in a thin category cod, read from cod's hom buckets on lookup.  Its
    parts are what holds it: the two functors F, G of a transformation
    into cod (components: a -> the one morphism F a -> G a, objects the
    identity of cod's objects), or the domain, object map and codomain
    of a functor into cod (morphisms: m -> the one morphism
    omap(src m) -> omap(tgt m)).  NatTransData and FunctorData each take
    only a view of their own parts, and refuse one with a gap, a key
    whose hom is empty."""

    __slots__ = ("held", "cod", "objects", "homs")

    def __init__(self, held, cod, domain, objects, left, right):
        super().__init__(domain, left, right)
        self.held, self.cod, self.objects = held, cod, objects
        self.homs = cod._homs_by_ends()

    @staticmethod
    def components(F, G):
        return ThinMap((F, G), F.cod, F.dom.objects,
                       FunctorData.identity(F.cod).omap.assignment,
                       F.omap.assignment, G.omap.assignment)

    @staticmethod
    def morphisms(dom, cod, omap):
        return ThinMap((dom, omap, cod), cod, dom.morphisms, omap.assignment,
                       dom.src.assignment, dom.tgt.assignment)

    def parts(self):
        return self.held

    __repr__ = _View.__repr__

    def __getitem__(self, key):
        objects = self.objects
        return self.homs[(objects[self.left[key]],
                          objects[self.right[key]])][0]

    def gap(self):
        """The first key with no morphism between its ends, or None; no
        key is read when every hom of cod is non-empty."""
        homs, objects, left, right = (self.homs, self.objects, self.left,
                                      self.right)
        return None if is_full(self.cod) else next(
            (key for key in self.domain.elements
             if (objects[left[key]], objects[right[key]]) not in homs), None)


def product_factors(c):
    """(a, b) when c is the product a x b, else None."""
    table = c.composition
    # A type test: isinstance on a Mapping subclass goes through ABCMeta.
    return table.factors if type(table) is ProductTable else None


def generators(c):
    """Morphisms of c whose naturality squares imply all of them: every
    morphism, unless c is a product a x b.  There each (f, k) is
    (f, 1) after (1, k), and squares paste, so the generators are
    (g, 1_y) for g a generator of a and y an object of b, then (1_x, k)
    likewise: 2 |mor| |obj| squares for two factors alike."""
    factors = product_factors(c)
    if factors is None:
        return c.morphisms.elements
    if c._generators is None:
        object.__setattr__(c, "_generators", product_generators(*factors))
    return c._generators


def product_generators(a, b):
    """The generators of a x b, read from its factors, so that a
    product's generators need no product built over it."""
    return tuple(
        [(g, b.identities(y)) for g in generators(a) for y in b.objects]
        + [(a.identities(x), k) for x in a.objects for k in generators(b)])


def generating_pairs(c):
    """Composable pairs of c whose composites a functor out of c must
    preserve for it to preserve all: every pair, unless c is a product
    a x b.  There they are the generating pairs of a at each identity of
    b and of b at each identity of a (a functor in each variable), and
    for every f: x -> x' of a and k: y -> y' of b the pairs
    ((f, 1_y'), (1_x, k)) and ((1_x', k), (f, 1_y)), whose composites are
    both (f, k).  Together they give F((f', k') (f, k)) =
    F(f', k') F(f, k), for O(|mor a| |mor b|) pairs instead of every
    composable pair of the product."""
    factors = product_factors(c)
    if factors is None:
        return c.composable_pairs()
    a, b = factors
    ida, idb = a.identities.assignment, b.identities.assignment
    pairs = [((g, idb[y]), (f, idb[y])) for (g, f) in generating_pairs(a)
             for y in b.objects]
    pairs += [((ida[x], h), (ida[x], k)) for x in a.objects
              for (h, k) in generating_pairs(b)]
    for f in a.morphisms:
        x, x2 = a.src(f), a.tgt(f)
        for k in b.morphisms:
            y, y2 = b.src(k), b.tgt(k)
            pairs.append(((f, idb[y2]), (ida[x], k)))
            pairs.append(((ida[x2], k), (f, idb[y])))
    return pairs


# The unit of the product, one object: every unit label shares it.
TERMINAL = _owns_no_memo(FinCategory.discrete(["*"]), process_wide=True)

def is_full(c):
    """True when c has a morphism between any two objects, read from its
    hom buckets."""
    return len(c._homs_by_ends()) == len(c.objects) ** 2


def is_groupoid(c):
    """True iff every morphism has a two-sided inverse; else the first
    morphism without one is the witness.  Decided once and kept on c; in
    a thin c each inverse is read from the hom buckets."""
    if c._groupoid is None:
        witness = next((m for m in c.morphisms if c.inverse(m) is None),
                       None)
        object.__setattr__(c, "_groupoid",
                           Verdict(witness is None, witness=witness))
    return c._groupoid


def _identity_on(fn, atoms):
    """Whether fn is the identity of the FinSet atoms: that set at both
    ends, and every atom sent to itself, compared by identity."""
    image = fn.assignment
    return fn.domain is atoms is fn.codomain and len(image) == len(atoms) \
        and all(map(is_, image, image.values()))


@dataclass(frozen=True)
class FunctorData:
    """A functor by its object and morphism maps, checked at
    construction: every morphism's endpoints, then identities and
    composition on the generating pairs of the domain unless the
    codomain is thin.  Into a thin codomain it may be held by its object
    map (FunctorData.held), its morphism map a ThinMap view on it:
    then no morphism's image is stored or compared, and it exists when
    every hom(omap(src m), omap(tgt m)) is non-empty, decided once when
    the codomain has a morphism between any two objects, and per
    morphism otherwise.  When its maps are the identities of the
    codomain's own object and morphism sets, each morphism keeps its
    ends exactly when the two categories' src and tgt assignments agree,
    one comparison; the loop over the morphisms runs only when they do
    not, to name the first that breaks.  A functor out of the unit
    category TERMINAL, a point, composes to the point at its image,
    built once per object of the codomain (point_functor)."""

    dom: FinCategory
    cod: FinCategory
    omap: FinFn
    mmap: FinFn

    # The identity transformation on this functor, once built.
    _id2 = None

    def __post_init__(self):
        dom, cod = self.dom, self.cod
        omap, mmap = self.omap.assignment, self.mmap.assignment
        src, tgt = dom.src.assignment, dom.tgt.assignment
        if type(mmap) is ThinMap:
            if mmap.parts() != (dom, self.omap, cod) or not is_thin(cod):
                raise CatError("morphisms held by another object map "
                               "or not into a thin category")
            gap = mmap.gap()
            if gap is not None:
                raise CatError("functor breaks endpoints at %r" % (gap,))
            return
        fsrc, ftgt = cod.src.assignment, cod.tgt.assignment
        if not (_identity_on(self.omap, cod.objects)
                and _identity_on(self.mmap, cod.morphisms)
                and (src, tgt) == (fsrc, ftgt)):
            for m in dom.morphisms.elements:
                fm = mmap[m]
                if fsrc[fm] != omap[src[m]] or ftgt[fm] != omap[tgt[m]]:
                    raise CatError("functor breaks endpoints at %r" % (m,))
        if is_thin(cod):
            return
        for x in dom.objects:
            if mmap[dom.identities(x)] != cod.identities(omap[x]):
                raise CatError("functor breaks identity at %r" % (x,))
        dom_comp, cod_comp = dom.composition, cod.composition
        for (g, f) in generating_pairs(dom):
            if mmap[dom_comp[(g, f)]] != cod_comp[(mmap[g], mmap[f])]:
                raise CatError("functor breaks composition at %r" % ((g, f),))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not FunctorData:
            return NotImplemented
        return (self.dom, self.cod, self.omap, self.mmap) == \
            (other.dom, other.cod, other.omap, other.mmap)

    @staticmethod
    def identity(c):
        """The identity functor on c, built once and kept on c."""
        ident = c._identity
        if ident is None:
            ident = _owns_no_memo(_trusted(
                FunctorData, c, c, FinFn.identity(c.objects),
                FinFn.identity(c.morphisms)))
            object.__setattr__(c, "_identity", ident)
        return ident

    @staticmethod
    def held(dom, cod, omap):
        """The functor from dom into the thin category cod with object
        map omap, held by it: its morphism map is a ThinMap view.  A cod
        that is not thin is refused first, and every hom the view reads
        is decided non-empty, once, as the constructor decides them,
        before any checked FinFn reads the view; so the functor is built
        without the constructor's checks."""
        if not is_thin(cod):
            raise CatError("morphisms held by another object map "
                           "or not into a thin category")
        view = ThinMap.morphisms(dom, cod, omap)
        # The hom of an identity's ends holds an identity: with no other
        # morphism in dom (a discrete one, or a product of them) every
        # hom the view reads is non-empty.
        gap = None if len(dom.morphisms) == len(dom.objects) else view.gap()
        if gap is not None:
            raise CatError("functor breaks endpoints at %r" % (gap,))
        mmap = _trusted(FinFn, dom.morphisms, cod.morphisms, view)
        return _trusted(FunctorData, dom, cod, omap, mmap)

    def then(self, other):
        """other after self; out of a product, mapped on lookup.  A
        composite with an identity functor is the other operand, that of
        a point the point at its image, and a composite is held by its
        object map when other is, that map a ComposedMap of the two
        operands' object maps: no table is composed."""
        if other.dom is not self.cod and other.dom != self.cod:
            raise CatError("functors are not composable")
        if self is self.dom._identity:
            return other
        if other is other.dom._identity:
            return self
        if self.dom is TERMINAL:
            return point_functor(other.cod, other.omap.assignment[
                self.omap.assignment["*"]])
        return _kept(FunctorData._composite, self, other)

    def keep_then(self, other, composite):
        """Keep composite as self.then(other), unless one is kept: the
        caller decides that it has their ends and composed object map,
        as a translation's is decided by the table's associativity."""
        _kept(FunctorData._composite, self, other, made=composite)

    def _composite(self, other):
        dom, cod = self.dom, other.cod
        product = product_factors(dom) is not None
        held = type(other.mmap.assignment) is ThinMap
        if product or held:
            omap = _trusted(FinFn, dom.objects, cod.objects, ComposedMap(
                dom.objects, other.omap.assignment, self.omap.assignment))
        else:
            omap = other.omap.compose(self.omap)
        if held:
            mmap = _trusted(FinFn, dom.morphisms, cod.morphisms,
                            ThinMap.morphisms(dom, cod, omap))
        elif product:
            mmap = _trusted(FinFn, dom.morphisms, cod.morphisms, ComposedMap(
                dom.morphisms, other.mmap.assignment, self.mmap.assignment))
        else:
            mmap = other.mmap.compose(self.mmap)
        return _trusted(FunctorData, dom, cod, omap, mmap)


def point_functor(c, x):
    """The functor from TERMINAL picking the object x of c, built once
    per object and kept on c, keyed by x as c.objects holds it.  The
    point of TERMINAL is its identity functor, so nothing is kept on
    TERMINAL."""
    if c is TERMINAL:
        return FunctorData.identity(c)
    index = c.objects.positions().get(x)
    if index is not None:
        x = c.objects.elements[index]
    return _kept(_point_functor, c, x)


def _point_functor(c, x):
    return FunctorData(TERMINAL, c, FinFn(TERMINAL.objects, c.objects,
                                          {"*": x}),
                       FinFn(TERMINAL.morphisms, c.morphisms,
                             {("id", "*"): c.identities(x)}))


@dataclass(frozen=True)
class NatTransData:
    """A natural transformation source => target, by its components: a
    dict, or a view read on lookup.  Checked at construction: every
    component's endpoints, then naturality on the generators of the
    domain unless the codomain is thin.  Into a thin codomain it may be
    held by its functors (NatTransData.held), its components a ThinMap
    view on them: then no component is stored or checked, and it exists
    when every hom(source a, target a) is non-empty, decided once when
    the codomain has a morphism between any two objects, and per object
    otherwise."""

    source: FunctorData
    target: FunctorData
    components: dict = field(compare=False)

    def __post_init__(self):
        F, G = self.source, self.target
        if F.dom != G.dom or F.cod != G.cod:
            raise CatError("natural transformation endpoints must agree")
        cod = F.cod
        if type(self.components) is ThinMap:
            held = self.components
            if held.parts() != (F, G) or not is_thin(cod):
                raise CatError("components held by other functors "
                               "or not into a thin category")
            gap = held.gap()
            if gap is not None:
                raise CatError("component missing at %r" % (gap,))
            return
        for x in F.dom.objects:
            if x not in self.components:
                raise CatError("component missing at %r" % (x,))
            n = self.components[x]
            if cod.src(n) != F.omap(x) or cod.tgt(n) != G.omap(x):
                raise CatError("component endpoints at %r" % (x,))
        if is_thin(cod):
            return
        src, tgt = F.dom.src.assignment, F.dom.tgt.assignment
        comps, comp = self.components, cod.composition
        fm, gm = F.mmap.assignment, G.mmap.assignment
        for m in generators(F.dom):
            if comp[(comps[tgt[m]], fm[m])] != comp[(gm[m], comps[src[m]])]:
                raise CatError("naturality fails at %r" % (m,))

    def __eq__(self, other):
        # Into a thin category there is at most one transformation
        # between two functors.
        return self is other or (
            isinstance(other, NatTransData)
            and self.source == other.source and self.target == other.target
            and (is_thin(self.source.cod)
                 or all(self.components[x] == other.components[x]
                        for x in self.source.dom.objects)))

    def __hash__(self):
        return hash((self.source, self.target))

    @staticmethod
    def held(F, G):
        """The one transformation F => G into a thin category, held by
        its two functors: its components are a ThinMap view on them."""
        return NatTransData(F, G, ThinMap.components(F, G))

    @staticmethod
    def identity(F):
        """The identity transformation on F, built once and kept on F."""
        ident = F._id2
        if ident is None:
            ident = _trusted(NatTransData, F, F, {
                x: F.cod.identities(F.omap(x)) for x in F.dom.objects})
            object.__setattr__(F, "_id2", ident)
        return ident

    def vcomp(self, other):
        """other after self (same functor boundary chain).  An identity
        on either side gives the other operand."""
        if self.target != other.source:
            raise CatError("vertical composition boundary mismatch")
        if self is self.source._id2:
            return other
        if other is other.source._id2:
            return self
        cod = self.source.cod
        comps = {x: cod.composition[(other.components[x], self.components[x])]
                 for x in self.source.dom.objects}
        return _trusted(NatTransData, self.source, other.target, comps)

    def hcomp(self, other):
        """Horizontal composite: self: F => G on C -> D, other: H => K on
        D -> E; result H.F => K.G with component K(self_x) after other_{F x}.
        Of two identities it is the identity on H.F."""
        F, G = self.source, self.target
        H, K = other.source, other.target
        if self is F._id2 and other is H._id2:
            return NatTransData.identity(F.then(H))
        E = H.cod
        comps = {x: E.composition[(K.mmap(self.components[x]),
                                   other.components[F.omap(x)])]
                 for x in F.dom.objects}
        return _trusted(NatTransData, F.then(H), G.then(K), comps)


def nat_is_iso(n):
    """True iff every component has a two-sided inverse in the codomain,
    else the first object whose component has none."""
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
