"""Laws in a thin category, decided by their endpoints, against the scans.

A category is thin (``cat_backend.is_thin``) when no two of its
morphisms share their (src, tgt).  There two parallel morphisms are
equal, so ``check_category``, the functor and naturality checks into a
thin category, ``MonoidalCatData`` on a thin category and
``PolyadOpmonoidalStructure`` on thin fibers stop once the endpoints
hold, and the inverse of m: x -> y is the one morphism y -> x, if any.  The oracles below are the checks with every equation scanned
whatever the category; on generated thin and non-thin categories, whole
and with one endpoint, composite or component corrupted, each check
must report or raise exactly as its oracle does.
"""

import collections
import itertools
import random
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfspan import cat_backend as cb
from hopfspan import hopf_structures as hs
from hopfspan.cat_backend import (
    CatError, FinCategory, FunctorData, NatTransData, check_category,
    generating_pairs, generators, is_thin,
)
from hopfspan.finset_span import FinFn, FinSet, _trusted
from hopfspan import spanv_core as sc
from hopfspan.spanv_core import SpanVError, product_category, product_functor
from fusion_oracle import composed_fusion
from test_cat_backend import scanned_check_category


def total_order(n):
    """0 < 1 < ... < n - 1, one morphism (i, j) for each i <= j."""
    objects = FinSet(range(n))
    morphisms = FinSet([(i, j) for i in range(n) for j in range(i, n)])
    return FinCategory(
        objects, morphisms,
        FinFn(morphisms, objects, {m: m[0] for m in morphisms}),
        FinFn(morphisms, objects, {m: m[1] for m in morphisms}),
        FinFn(objects, morphisms, {i: (i, i) for i in objects}),
        {((j, k), (i, j)): (i, k) for (i, j) in morphisms
         for k in range(j, n)})


def monoid(n, op):
    return FinCategory.from_monoid(
        range(n), {(g, f): op(g, f) for g in range(n) for f in range(n)}, 0)


def cyclic(n):
    return monoid(n, lambda g, f: (g + f) % n)


def left_zero(n):
    """The unit 0 and left zeros 1, ..., n - 1: g f = g unless g is 0."""
    return monoid(n, lambda g, f: g or f)


THIN = [FinCategory.discrete(range(1)), FinCategory.discrete(range(3)),
        FinCategory.indiscrete(range(2)), FinCategory.indiscrete(range(3)),
        total_order(2), total_order(3), cyclic(1)]
NOT_THIN = [cyclic(2), cyclic(3), left_zero(3),
            monoid(2, max)]
LEAVES = THIN + NOT_THIN
PRODUCTS = [product_category(a, b) for a, b in [
    (THIN[2], THIN[4]), (THIN[5], THIN[1]), (THIN[3], THIN[0]),
    (NOT_THIN[0], THIN[2]), (THIN[4], NOT_THIN[2]),
    (NOT_THIN[0], NOT_THIN[1])]]
CATEGORIES = LEAVES + PRODUCTS


def scanned_thin(c):
    """No two morphisms of c with the same endpoints, by every pair."""
    return not any(c.src(m) == c.src(n) and c.tgt(m) == c.tgt(n)
                   for m, n in itertools.combinations(c.morphisms, 2))


def raised(build):
    """The message build raises as a checked constructor, or None."""
    try:
        build()
    except (CatError, SpanVError) as err:
        return str(err)
    return None


def kind(c):
    return "thin" if scanned_thin(c) else "not thin"


def test_is_thin_never_reads_thin_where_two_morphisms_are_parallel():
    empty = FinCategory.discrete([])
    nested = [product_category(p, c) for p in PRODUCTS[:3]
              for c in (THIN[2], NOT_THIN[0])]
    for c in CATEGORIES + nested:
        assert is_thin(c) == scanned_thin(c), c
        assert vars(c)["_thin"] is is_thin(c)
    # A product is read from its factors: with an empty factor it has
    # no morphisms and reads thin only when both factors do.
    for c in NOT_THIN:
        for p in (product_category(empty, c), product_category(c, empty)):
            assert not p.morphisms and not is_thin(p)
    assert is_thin(product_category(empty, THIN[3]))


def corrupted_categories(c, rng):
    """The src, tgt, identities and table of c with one composite, one
    endpoint or one identity moved; a composite to a morphism with its
    endpoints, or to any."""
    objects, morphisms = c.objects.elements, c.morphisms.elements
    table = dict(c.composition)
    g, f = pair = rng.choice(c.composable_pairs())
    for pool in (c.hom(c.src(f), c.tgt(g)), morphisms):
        yield c.src, c.tgt, c.identities, {**table, pair: rng.choice(pool)}
    m = rng.choice(morphisms)
    for end in ("src", "tgt"):
        moved = FinFn(c.morphisms, c.objects, {
            **getattr(c, end).assignment, m: rng.choice(objects)})
        ends = {"src": c.src, "tgt": c.tgt, end: moved}
        yield ends["src"], ends["tgt"], c.identities, table
    x = rng.choice(objects)
    ids = FinFn(c.objects, c.morphisms,
                {**c.identities.assignment, x: rng.choice(morphisms)})
    yield c.src, c.tgt, ids, table


def test_check_category_reports_as_the_scan_thin_or_not():
    rng = random.Random(0)
    seen = collections.Counter()
    for c in CATEGORIES:
        assert check_category(c).ok and scanned_check_category(c).ok
        for _ in range(6):
            for broken in corrupted_categories(c, rng):
                b = _trusted(FinCategory, c.objects, c.morphisms, *broken)
                report = check_category(b)
                assert report.failures == scanned_check_category(b).failures
                laws = {law for law, _ in report.failures} or {"ok"}
                seen.update((kind(b), law) for law in laws)
    # Both kinds pass, fail the gate and, when not thin, fail the laws.
    assert {("thin", "ok"), ("thin", "composite endpoints"),
            ("not thin", "ok"), ("not thin", "associativity"),
            ("not thin", "left identity"),
            ("thin", "identity endpoints")} <= set(seen)


# ---------------------------------------------------------------------------
# Functors and natural transformations into thin categories.


def scanned_functor(dom, cod, omap, mmap):
    """The functor check with every equation scanned."""
    for m in dom.morphisms:
        fm = mmap(m)
        if cod.src(fm) != omap(dom.src(m)) or cod.tgt(fm) != omap(dom.tgt(m)):
            raise CatError("functor breaks endpoints at %r" % (m,))
    for x in dom.objects:
        if mmap(dom.identities(x)) != cod.identities(omap(x)):
            raise CatError("functor breaks identity at %r" % (x,))
    for (g, f) in generating_pairs(dom):
        if mmap(dom.composition[(g, f)]) != \
                cod.composition[(mmap(g), mmap(f))]:
            raise CatError("functor breaks composition at %r" % ((g, f),))


def endpoint_map(dom, cod, rng):
    """An object map at random, and each morphism sent to a morphism
    with the endpoints it asks for, or anywhere when there is none."""
    omap = {x: rng.choice(cod.objects.elements) for x in dom.objects}
    mmap = {m: rng.choice(cod.hom(omap[dom.src(m)], omap[dom.tgt(m)])
                          or cod.morphisms.elements)
            for m in dom.morphisms}
    return omap, mmap


def functor_inputs(rng):
    """Maps between the generated categories, whole or with one entry of
    the identity functor or of a random map moved."""
    for dom in CATEGORIES:
        for cod in [dom] + rng.sample(CATEGORIES, 3):
            for _ in range(2):
                omap, mmap = endpoint_map(dom, cod, rng) if cod is not dom \
                    else (dict(FinFn.identity(dom.objects).assignment),
                          dict(FinFn.identity(dom.morphisms).assignment))
                yield dom, cod, omap, mmap
                m = rng.choice(dom.morphisms.elements)
                yield dom, cod, omap, {**mmap, m: rng.choice(
                    cod.morphisms.elements)}
                x = rng.choice(dom.objects.elements)
                yield dom, cod, {**omap, x: rng.choice(
                    cod.objects.elements)}, mmap


def test_functors_are_checked_as_the_scan_thin_or_not():
    rng = random.Random(1)
    seen = collections.Counter()
    for dom, cod, omap, mmap in functor_inputs(rng):
        maps = (FinFn(dom.objects, cod.objects, omap),
                FinFn(dom.morphisms, cod.morphisms, mmap))
        message = raised(lambda: FunctorData(dom, cod, *maps))
        assert message == raised(lambda: scanned_functor(dom, cod, *maps))
        seen[(kind(cod), message and message.split(" at ")[0])] += 1
    assert {("thin", None), ("thin", "functor breaks endpoints"),
            ("not thin", None), ("not thin", "functor breaks endpoints"),
            ("not thin", "functor breaks identity"),
            ("not thin", "functor breaks composition")} <= set(seen)


def scanned_nat(F, G, comps):
    """The naturality check with every square scanned."""
    if F.dom != G.dom or F.cod != G.cod:
        raise CatError("natural transformation endpoints must agree")
    cod = F.cod
    for x in F.dom.objects:
        if x not in comps:
            raise CatError("component missing at %r" % (x,))
        if cod.src(comps[x]) != F.omap(x) or cod.tgt(comps[x]) != G.omap(x):
            raise CatError("component endpoints at %r" % (x,))
    for m in generators(F.dom):
        if cod.composition[(comps[F.dom.tgt(m)], F.mmap(m))] != \
                cod.composition[(G.mmap(m), comps[F.dom.src(m)])]:
            raise CatError("naturality fails at %r" % (m,))


def functors_into(c, rng):
    """Endofunctors of c: the identity, constants, and random maps that
    pass the functor check."""
    found = [FunctorData.identity(c)]
    for x in c.objects:
        found.append(FunctorData(
            c, c, FinFn.constant(c.objects, c.objects, x),
            FinFn.constant(c.morphisms, c.morphisms, c.identities(x))))
    for _ in range(6):
        omap, mmap = endpoint_map(c, c, rng)
        maps = (FinFn(c.objects, c.objects, omap),
                FinFn(c.morphisms, c.morphisms, mmap))
        if raised(lambda: scanned_functor(c, c, *maps)) is None:
            found.append(FunctorData(c, c, *maps))
    return found


def test_transformations_are_checked_as_the_scan_thin_or_not():
    rng = random.Random(2)
    seen = collections.Counter()
    for c in CATEGORIES:
        functors = functors_into(c, rng)
        for _ in range(8):
            F, G = rng.choice(functors), rng.choice(functors)
            comps = {x: rng.choice(c.hom(F.omap(x), G.omap(x))
                                   or c.morphisms.elements)
                     for x in c.objects}
            x = rng.choice(c.objects.elements)
            for family in (comps,
                           {**comps, x: rng.choice(c.morphisms.elements)},
                           {y: n for y, n in comps.items() if y != x}):
                message = raised(lambda: NatTransData(F, G, family))
                assert message == raised(lambda: scanned_nat(F, G, family))
                seen[(kind(c), message and message.split(" at ")[0])] += 1
    assert {("thin", None), ("thin", "component endpoints"),
            ("thin", "component missing"), ("not thin", None),
            ("not thin", "naturality fails"),
            ("not thin", "component endpoints")} <= set(seen)


def searched_inverse(c, m):
    """The two-sided inverse of m, by composing m with every morphism."""
    x, y = c.src(m), c.tgt(m)
    return next((n for n in c.morphisms
                 if c.src(n) == y and c.tgt(n) == x
                 and c.composition[(n, m)] == c.identities(x)
                 and c.composition[(m, n)] == c.identities(y)), None)


class UnreadTable(dict):
    """A composition table that fails the test when it is read."""

    def __getitem__(self, key):
        raise AssertionError("composed %r" % (key,))

    get = __getitem__


def test_inverses_are_the_searched_ones_thin_or_not():
    rng = random.Random(3)
    seen = collections.Counter()
    for c in CATEGORIES:
        for m in c.morphisms:
            back = searched_inverse(c, m)
            assert c.inverse(m) == back, (c, m)
            seen[(kind(c), back is not None)] += 1
        groupoid = cb.is_groupoid(c)
        assert bool(groupoid) == all(searched_inverse(c, m) is not None
                                     for m in c.morphisms)
        assert groupoid or searched_inverse(c, groupoid.witness) is None
        functors = functors_into(c, rng)
        for _ in range(8):
            F, G = rng.choice(functors), rng.choice(functors)
            comps = {x: c.hom(F.omap(x), G.omap(x)) for x in c.objects}
            if not all(comps.values()):
                continue
            family = {x: rng.choice(hom) for x, hom in comps.items()}
            if raised(lambda: scanned_nat(F, G, family)) is not None:
                continue
            n = NatTransData(F, G, family)
            iso = cb.nat_is_iso(n)
            assert bool(iso) == all(
                searched_inverse(c, n.components[x]) is not None
                for x in c.objects)
            seen[(kind(c), "natural iso", bool(iso))] += 1
    assert {("thin", True), ("thin", False), ("not thin", True),
            ("not thin", False), ("thin", "natural iso", True),
            ("thin", "natural iso", False), ("not thin", "natural iso", True),
            ("not thin", "natural iso", False)} <= set(seen)


def test_a_thin_inverse_composes_nothing():
    for c in (FinCategory.indiscrete(range(3)), total_order(3),
              FinCategory.discrete(range(2))):
        unread = _trusted(FinCategory, c.objects, c.morphisms, c.src, c.tgt,
                          c.identities, UnreadTable(c.composition))
        assert [unread.inverse(m) for m in c.morphisms] == \
            [searched_inverse(c, m) for m in c.morphisms]


def test_a_polyad_fusion_checks_no_naturality_square_in_a_thin_fiber(
        monkeypatch):
    z3 = hs.cyclic_group(3)
    thin = hs.translation_opmonoidal(*z3, hs.indiscrete_monoidal_group(*z3))
    not_thin = hs.identity_polyad(*z3, one_object_fiber(3))
    pairs = len(not_thin.monad.shape.composable_pairs())
    assert is_thin(thin.fibers["*"].cat) and \
        not is_thin(not_thin.fibers["*"].cat)
    squares = []

    def counted(c, _generators=cb.generators):
        found = _generators(c)
        squares.append(len(found))
        return found
    monkeypatch.setattr(cb, "generators", counted)
    for side in ("left", "right"):
        assert len(hs.polyad_fusion(thin, side)) == 9
    assert squares == []
    for side in ("left", "right"):
        assert len(hs.polyad_fusion(not_thin, side)) == pairs
    assert len(squares) == 2 * pairs
    assert all(count > 0 for count in squares)


# ---------------------------------------------------------------------------
# Strict monoidal fibers and the opmonoidal structure of a polyad.


def one_object_fiber(n):
    """The cyclic group of order n as a one-object category, tensored by
    its multiplication: a strict monoidal category that is not thin."""
    names, mul, unit = hs.cyclic_group(n)
    c = FinCategory.from_monoid(names, mul, unit)
    p = product_category(c, c)
    return hs.MonoidalCatData(c, FunctorData(
        p, c, FinFn(p.objects, c.objects, {("*", "*"): "*"}),
        FinFn(p.morphisms, c.morphisms, {pair: mul[pair]
                                         for pair in p.morphisms})), "*")


def scanned_monoidal(c, t, unit):
    """MonoidalCatData's check with every equation scanned."""
    if t.dom != product_category(c, c) or t.cod != c:
        raise SpanVError("tensor must be a functor from the product "
                         "category back to the category")
    if unit not in c.objects:
        raise SpanVError("unit object %r not present" % (unit,))
    e = c.identities(unit)
    for x in c.objects:
        if t.omap((unit, x)) != x or t.omap((x, unit)) != x:
            raise SpanVError("unit law fails at %r" % (x,))
    for m in c.morphisms:
        if t.mmap((e, m)) != m or t.mmap((m, e)) != m:
            raise SpanVError("unit law fails at morphism %r" % (m,))
    for x, y, z in itertools.product(c.objects, repeat=3):
        if t.omap((t.omap((x, y)), z)) != t.omap((x, t.omap((y, z)))):
            raise SpanVError("tensor not associative at %r" % ((x, y, z),))
    tm = t.mmap.assignment
    for ((a, b), o) in cb.product_generators(t.dom, c):
        if tm[(tm[(a, b)], o)] != tm[(a, tm[(b, o)])]:
            raise SpanVError("tensor not associative at %r" % ((a, b, o),))


def tensors_on(c, rng):
    """Functors c x c -> c: both projections, and for a thin c the ones
    random tables of objects unital at a random object determine."""
    p = product_category(c, c)
    found = [FunctorData(p, c, FinFn(p.objects, c.objects,
                                     {o: o[side] for o in p.objects}),
                         FinFn(p.morphisms, c.morphisms,
                               {m: m[side] for m in p.morphisms}))
             for side in (0, 1)]
    for _ in range(4 if is_thin(c) else 0):
        u = rng.choice(c.objects.elements)
        table = {(x, y): y if x == u else x if y == u
                 else rng.choice(c.objects.elements) for (x, y) in p.objects}
        mmap = {m: c.hom(table[p.src(m)], table[p.tgt(m)])[0]
                for m in p.morphisms}
        found.append(FunctorData(p, c, FinFn(p.objects, c.objects, table),
                                 FinFn(p.morphisms, c.morphisms, mmap)))
    return found


def monoidal_fibers(n):
    names, mul, unit = hs.cyclic_group(n)
    return [hs.discrete_monoidal_group(names, mul, unit),
            hs.indiscrete_monoidal_group(names, mul, unit),
            one_object_fiber(n)]


def test_monoidal_fibers_are_checked_as_the_scan_thin_or_not():
    rng = random.Random(3)
    seen = collections.Counter()
    for fiber in monoidal_fibers(2) + monoidal_fibers(3):
        c = fiber.cat
        for tensor in [fiber.tensor] + tensors_on(c, rng):
            for unit in c.objects:
                message = raised(lambda: hs.MonoidalCatData(c, tensor, unit))
                assert message == raised(
                    lambda: scanned_monoidal(c, tensor, unit))
                seen[(kind(c), message and message.split(" at ")[0])] += 1
    assert {("thin", None), ("thin", "unit law fails"),
            ("thin", "tensor not associative"), ("not thin", None),
            ("not thin", "unit law fails")} <= set(seen)


def scanned_opmonoidal(monad, fibers, d2, d0):
    """PolyadOpmonoidalStructure's check with every equation scanned."""
    p, d = monad, monad.shape
    for h in d.morphisms:
        fs, ft = fibers[d.src(h)], fibers[d.tgt(h)]
        f = p.mor_label[h]
        if d2[h].source != fs.tensor.then(f) or \
                d2[h].target != product_functor(f, f).then(ft.tensor):
            raise SpanVError("binary structure boundary at %r" % (h,))
        cod, z, comps = ft.cat, d0[h], d2[h].components
        if cod.src(z) != f.omap(fs.unit) or cod.tgt(z) != ft.unit:
            raise SpanVError("nullary structure boundary at %r" % (h,))
        for a, b, c0 in itertools.product(fs.cat.objects, repeat=3):
            left = cod.compose(ft.mor_tensor(
                comps[(a, b)], cod.identities(f.omap(c0))),
                comps[(fs.obj_tensor(a, b), c0)])
            right = cod.compose(ft.mor_tensor(
                cod.identities(f.omap(a)), comps[(b, c0)]),
                comps[(a, fs.obj_tensor(b, c0))])
            if left != right:
                raise SpanVError("binary structure not coassociative at %r"
                                 % ((h, a, b, c0),))
        for a in fs.cat.objects:
            one = cod.identities(f.omap(a))
            if cod.compose(ft.mor_tensor(one, z), comps[(a, fs.unit)]) \
                    != one or cod.compose(ft.mor_tensor(z, one),
                                          comps[(fs.unit, a)]) != one:
                raise SpanVError("nullary structure not counital at %r"
                                 % ((h, a),))
    for (h, k) in d.composable_pairs():
        fs, ft = fibers[d.src(k)], fibers[d.tgt(h)]
        fh, hk = p.mor_label[h], d.compose(h, k)
        fk, mu, cod = p.mor_label[k], p.mu[(h, k)].components, ft.cat
        for a, b in itertools.product(fs.cat.objects, repeat=2):
            lhs = cod.compose(d2[hk].components[(a, b)],
                              mu[fs.obj_tensor(a, b)])
            rhs = cod.compose(ft.mor_tensor(mu[a], mu[b]), cod.compose(
                d2[h].components[(fk.omap(a), fk.omap(b))],
                fh.mmap(d2[k].components[(a, b)])))
            if lhs != rhs:
                raise SpanVError("multiplication not compatible with binary "
                                 "structure at %r" % ((h, k, a, b),))
        if cod.compose(d0[hk], mu[fs.unit]) != \
                cod.compose(d0[h], fh.mmap(d0[k])):
            raise SpanVError("multiplication not compatible with nullary "
                             "structure at %r" % ((h, k),))
    for x in d.objects:
        fx, e = fibers[x], d.identities(x)
        eta, cod = p.eta[x].components, fibers[x].cat
        for a, b in itertools.product(fx.cat.objects, repeat=2):
            if cod.compose(d2[e].components[(a, b)],
                           eta[fx.obj_tensor(a, b)]) != \
                    fx.mor_tensor(eta[a], eta[b]):
                raise SpanVError("unit not compatible with binary "
                                 "structure at %r" % ((x, a, b),))
        if cod.compose(d0[e], eta[fx.unit]) != cod.identities(fx.unit):
            raise SpanVError("unit not compatible with nullary structure "
                             "at %r" % (x,))


def opmonoidal_polyads(n):
    names, mul, unit = hs.cyclic_group(n)
    for fiber in monoidal_fibers(n):
        yield hs.identity_polyad(names, mul, unit, fiber)
    yield hs.translation_opmonoidal(
        names, mul, unit, hs.indiscrete_monoidal_group(names, mul, unit))


def twisted(nat, rng):
    """nat with one component moved to another morphism, checked, or
    None when the family is not natural."""
    cod = nat.source.cod
    x = rng.choice(nat.source.dom.objects.elements)
    comps = {**nat.components, x: rng.choice(cod.morphisms.elements)}
    try:
        return NatTransData(nat.source, nat.target, comps)
    except CatError:
        return None


def corrupted_structures(opstr, rng):
    """The structure's data whole, with one d0 or d2 entry moved, and
    with one component of mu or eta moved in a rebuilt monad."""
    p, d = opstr.monad, opstr.monad.shape
    d2, d0 = dict(opstr.d2), dict(opstr.d0)
    yield p, d2, d0
    h, k = rng.choice(d.morphisms.elements), rng.choice(d.morphisms.elements)
    cat = opstr.fibers[d.tgt(h)].cat
    yield p, d2, {**d0, h: rng.choice(cat.morphisms.elements)}
    yield p, {**d2, h: d2[k]}, d0
    moved = twisted(d2[h], rng)
    if moved is not None:
        yield p, {**d2, h: moved}, d0
    pair = rng.choice(d.composable_pairs())
    x = rng.choice(d.objects.elements)
    for mu, eta in (({**p.mu, pair: twisted(p.mu[pair], rng)}, p.eta),
                    (p.mu, {**p.eta, x: twisted(p.eta[x], rng)})):
        if None not in mu.values() and None not in eta.values():
            yield hs.MonadPresentation(p.backend, d, p.base_label,
                                       p.mor_label, mu, eta), d2, d0


def test_opmonoidal_structures_are_checked_as_the_scan_thin_or_not():
    rng = random.Random(4)
    seen = collections.Counter()
    for n in (2, 3):
        for opstr in opmonoidal_polyads(n):
            fibers, fiber_kind = opstr.fibers, kind(opstr.fibers["*"].cat)
            for _ in range(4):
                for monad, d2, d0 in corrupted_structures(opstr, rng):
                    message = raised(lambda: hs.PolyadOpmonoidalStructure(
                        monad, fibers, d2, d0))
                    assert message == raised(
                        lambda: scanned_opmonoidal(monad, fibers, d2, d0))
                    seen[(fiber_kind,
                          message and message.split(" at ")[0])] += 1
    assert {("thin", None), ("thin", "binary structure boundary"),
            ("thin", "nullary structure boundary"), ("not thin", None),
            ("not thin", "nullary structure not counital"),
            ("not thin", "multiplication not compatible with binary "
                         "structure"),
            ("not thin", "unit not compatible with binary structure")} \
        <= set(seen)


# ---------------------------------------------------------------------------
# A thin category held by its hom relation (cb.ThinTable) against the
# same category with its composition tabulated.


@st.composite
def relations(draw):
    """A hom relation on up to four objects, drawn in any order, with
    its morphisms in any order: a preorder, or one that lacks the loop
    at an object, or one that lacks x -> z though x -> y -> z."""
    kind = draw(st.sampled_from(["preorder", "no loop", "not transitive"]))
    n = draw(st.integers(3 if kind == "not transitive" else 1, 4))
    objects = draw(st.permutations(range(n)))
    x, y, z = objects[:3] if n >= 3 else (None, None, None)
    pairs = set(draw(st.lists(st.sampled_from(
        [(u, v) for u in range(n) for v in range(n)]))))
    pairs |= {(u, u) for u in range(n)}
    if kind == "not transitive":
        pairs |= {(x, y), (y, z)}
    closed = set(pairs)
    while True:
        more = {(u, w) for (u, v) in closed for (v2, w) in closed if v == v2}
        if more <= closed:
            break
        closed |= more
    if kind == "no loop":
        closed.discard((objects[0], objects[0]))
    elif kind == "not transitive":
        closed.discard((x, z))
    assume(closed)
    return kind, objects, draw(st.permutations(sorted(closed)))


def ends_of(objects, edges):
    """The objects, morphisms, end maps and identities of a relation:
    each pair (x, y) a morphism x -> y, and an object without a loop
    given the first morphism as its identity."""
    objects = FinSet(objects)
    morphisms = FinSet([("m",) + e for e in edges])
    src = FinFn(morphisms, objects, {m: m[1] for m in morphisms})
    tgt = FinFn(morphisms, objects, {m: m[2] for m in morphisms})
    ids = FinFn(objects, morphisms, {
        x: ("m", x, x) if ("m", x, x) in morphisms else morphisms.elements[0]
        for x in objects})
    return objects, morphisms, src, tgt, ids


def tabulated(objects, morphisms, src, tgt, ids):
    """The composites of a relation written out: each composable pair to
    the one morphism between its ends, where there is one."""
    ends = {(src(m), tgt(m)): m for m in morphisms}
    return {(g, f): ends[(src(f), tgt(g))] for g in morphisms
            for f in morphisms
            if tgt(f) == src(g) and (src(f), tgt(g)) in ends}


def assert_same_category(thin, table):
    assert thin == table and table == thin
    assert thin.composition == table.composition
    assert table.composition == thin.composition
    assert list(thin.composition) == list(table.composition)
    assert len(thin.composition) == len(table.composition)
    assert thin.composable_pairs() == table.composable_pairs()
    assert is_thin(thin) == is_thin(table)
    for (g, f) in table.composable_pairs():
        assert thin.compose(g, f) == table.compose(g, f)
    for x in table.objects:
        assert thin.identities(x) == table.identities(x)
        for y in table.objects:
            assert thin.hom(x, y) == table.hom(x, y)
    for m in table.morphisms:
        assert thin.inverse(m) == table.inverse(m)
    assert cb.is_groupoid(thin) == cb.is_groupoid(table)
    assert check_category(thin).failures == check_category(table).failures


@settings(max_examples=150, deadline=None, derandomize=True)
@given(relations(), st.sampled_from(range(len(LEAVES))))
def test_thin_table_reads_as_the_tabulated_category(relation, other):
    kind, objects, edges = relation
    parts = ends_of(objects, edges)
    src, tgt = parts[2], parts[3]
    thin = raised(lambda: FinCategory(*parts, cb.ThinTable(src, tgt)))
    table = raised(lambda: FinCategory(*parts, tabulated(*parts)))
    assert thin == table
    assert (thin is None) == (kind == "preorder")
    if thin is not None:
        law = "identity endpoints" if kind == "no loop" \
            else "missing composite"
        assert "first %s at" % law in thin
        return
    thin = FinCategory(*parts, cb.ThinTable(src, tgt))
    table = FinCategory(*parts, tabulated(*parts))
    assert is_thin(thin)
    assert_same_category(thin, table)
    # Products with thin and non-thin factors, on either side.
    leaf = LEAVES[other]
    assert_same_category(product_category(thin, leaf),
                         product_category(table, leaf))
    assert_same_category(product_category(leaf, thin),
                         product_category(leaf, table))


@pytest.mark.parametrize("c", NOT_THIN + [PRODUCTS[3], PRODUCTS[5]],
                         ids=repr)
def test_a_thin_table_refuses_parallel_morphisms(c):
    # The non-thin controls: their tables are accepted, while their
    # ends on a thin table are refused, two morphisms sharing them.
    assert not is_thin(c) and check_category(c).ok
    thin = _trusted(FinCategory, c.objects, c.morphisms, c.src, c.tgt,
                    c.identities, cb.ThinTable(c.src, c.tgt))
    assert thin != c and c != thin
    assert not is_thin(thin)
    assert "parallel morphisms" in {law for law, _ in
                                    check_category(thin).failures}
    with pytest.raises(CatError, match="parallel morphisms"):
        FinCategory(c.objects, c.morphisms, c.src, c.tgt, c.identities,
                    cb.ThinTable(c.src, c.tgt))


def test_a_thin_table_on_other_ends_is_refused():
    c = FinCategory.indiscrete(range(2))
    flipped = cb.ThinTable(c.tgt, c.src)
    with pytest.raises(CatError, match="table endpoints"):
        FinCategory(c.objects, c.morphisms, c.src, c.tgt, c.identities,
                    flipped)


def test_a_thin_table_raises_key_error_off_its_composable_pairs():
    table = FinCategory.indiscrete(range(2)).composition
    assert table[((0, 1), (1, 0))] == (1, 1)
    for key in [((0, 1), (0, 1)), ((0, 1), (5, 5)), "x", ("x",), [1, 2]]:
        with pytest.raises(KeyError):
            table[key]
        assert table.get(key) is None


# ---------------------------------------------------------------------------
# Transformations into a thin category held by their two functors
# (NatTransData.held, a cb.ThinMap view) against the same families with
# their components composed, or listed, and checked one by one.


def held_by(F, G):
    return NatTransData.held(F, G)


def fusion_polyads(n):
    """The identity polyad over the discrete and the indiscrete fiber of
    Z_n, the translation polyad over the indiscrete one, and the
    identity polyad over the one-object fiber, which is not thin."""
    names, mul, unit = hs.cyclic_group(n)
    discrete = hs.discrete_monoidal_group(names, mul, unit)
    indiscrete = hs.indiscrete_monoidal_group(names, mul, unit)
    return [("identity", "discrete",
             hs.identity_polyad(names, mul, unit, discrete)),
            ("identity", "indiscrete",
             hs.identity_polyad(names, mul, unit, indiscrete)),
            ("translation", "indiscrete",
             hs.translation_opmonoidal(names, mul, unit, indiscrete)),
            ("identity", "one object",
             hs.identity_polyad(names, mul, unit, one_object_fiber(n)))]


@pytest.mark.parametrize("n", range(2, 9))
def test_fusion_families_match_the_composed_oracle(n):
    for _, fiber, opstr in fusion_polyads(n):
        thin = fiber != "one object"
        assert is_thin(opstr.fibers["*"].cat) == thin
        for side in ("left", "right"):
            families = hs.polyad_fusion(opstr, side)
            oracle = composed_fusion(opstr, side)
            assert list(families) == list(oracle)
            for pair, nat in families.items():
                other = oracle[pair]
                assert nat.source is other.source
                assert nat.target is other.target
                assert (type(nat.components) is cb.ThinMap) == thin
                objects = nat.source.dom.objects
                assert list(nat.components) == list(objects)
                assert len(nat.components) == len(objects)
                for x in objects:
                    assert x in nat.components
                    assert nat.components[x] == other.components[x]
                assert nat == other and other == nat
                assert dict(nat.components) == other.components
                assert cb.nat_is_iso(nat) == cb.nat_is_iso(other)


def max_order_fiber():
    """The total order 0 < 1 < 2 tensored by max, unit 0: thin and not a
    groupoid."""
    d = total_order(3)
    return hs.MonoidalCatData(d, FunctorData.held(
        product_category(d, d), d, FinFn(
            product_category(d, d).objects, d.objects,
            {(x, y): max(x, y) for x in range(3) for y in range(3)})), 0)


def hopf_by_families(opstr):
    """polyad_is_hopf by its definition: the shape a groupoid, then every
    component of both fusion families invertible, each component read
    and its inverse looked up, the left and right families side by
    side, the first failure its witness."""
    shape = cb.is_groupoid(opstr.monad.shape)
    if not shape:
        return False, ("shape not a groupoid", shape.witness)
    for side in ("left", "right"):
        for pair, nat in hs.polyad_fusion(opstr, side).items():
            iso = cb.nat_is_iso(nat)
            if not iso:
                return False, (side, pair, iso.witness)
    return True, None


def hopf_polyads():
    """The identity polyad of Z_2 over max_order_fiber, thin and not a
    groupoid, and that of the idempotent monoid, not a groupoid."""
    z2 = hs.cyclic_group(2)
    idempotent = (["e", "z"], {("e", "e"): "e", ("e", "z"): "z",
                               ("z", "e"): "z", ("z", "z"): "z"}, "e")
    return [("total order", hs.identity_polyad(*z2, max_order_fiber())),
            ("idempotent", hs.identity_polyad(
                *idempotent, hs.discrete_monoidal_group(*idempotent)))]


@pytest.mark.parametrize("n", range(2, 9))
def test_hopf_decisions_match_the_family_reference(n):
    for _, _, opstr in fusion_polyads(n):
        verdict = hs.polyad_is_hopf(opstr)
        assert (bool(verdict), verdict.witness) == hopf_by_families(opstr)


def test_hopf_decisions_off_thin_groupoids_match_the_family_reference():
    decided = {}
    for name, opstr in hopf_polyads():
        verdict = hs.polyad_is_hopf(opstr)
        decided[name] = (bool(verdict), verdict.witness)
        assert decided[name] == hopf_by_families(opstr)
    assert decided == {"total order": (True, None),
                       "idempotent": (False, ("shape not a groupoid", "z"))}


def idempotent_end_fiber():
    """Objects 0 < 1 with no morphism between them, End(0) = {i0} and
    End(1) = {i1, z} with z o z = z, tensored by max on objects and by
    multiplication in End(1): strict monoidal, unit 0, not a groupoid."""
    objects = FinSet([0, 1])
    morphisms = FinSet(["i0", "i1", "z"])
    ends = {"i0": 0, "i1": 1, "z": 1}
    ends_fn = FinFn(morphisms, objects, ends)
    times = {("i1", "i1"): "i1", ("i1", "z"): "z", ("z", "i1"): "z",
             ("z", "z"): "z"}
    c = FinCategory(objects, morphisms, ends_fn, ends_fn,
                    FinFn(objects, morphisms, {0: "i0", 1: "i1"}),
                    {**times, ("i0", "i0"): "i0"})
    p = product_category(c, c)
    return hs.MonoidalCatData(c, FunctorData(
        p, c, FinFn(p.objects, c.objects,
                    {(x, y): max(x, y) for (x, y) in p.objects}),
        FinFn(p.morphisms, c.morphisms, {
            (f, g): f if g == "i0" else g if f == "i0" else times[(f, g)]
            for (f, g) in p.morphisms})), 0)


def twisted_polyad(n):
    """The identity polyad of Z_n over idempotent_end_fiber, with mu_{u,v}
    z at object 1 when neither u nor v is the unit and the identity
    otherwise; d2 and d0 identities.  Its fusion families fail to be
    invertible exactly when n >= 2."""
    names, mul, unit = hs.cyclic_group(n)
    fiber = idempotent_end_fiber()
    shape = FinCategory.from_monoid(list(names), mul, unit)
    ident = FunctorData.identity(fiber.cat)
    one = cb.NatTransData.identity(ident)
    twist = cb.NatTransData(ident, ident, {0: "i0", 1: "z"})
    p = hs.MonadPresentation(
        sc.CatBackend(), shape, {"*": fiber.cat},
        {h: ident for h in shape.morphisms},
        {(u, v): twist if unit not in (u, v) else one
         for (u, v) in shape.composable_pairs()}, {"*": one})
    return hs.PolyadOpmonoidalStructure(
        p, {"*": fiber},
        {h: cb.NatTransData.identity(fiber.tensor) for h in shape.morphisms},
        {h: fiber.cat.identities(fiber.unit) for h in shape.morphisms})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_polyad_failing_at_a_fusion_component_matches_the_reference(n):
    # The first committed polyads whose Hopf check fails at a fusion
    # component and not at the shape: a z is not invertible, and the
    # fusion families reach one exactly when Z_n has a non-unit element.
    opstr = twisted_polyad(n)
    verdict = hs.polyad_is_hopf(opstr)
    assert (bool(verdict), verdict.witness) == hopf_by_families(opstr)
    assert bool(verdict) == (n < 2)
    if n >= 2:
        assert verdict.witness[0] == "left"


def test_a_hopf_check_builds_families_only_off_thin_groupoids(monkeypatch):
    calls = []

    def counted(opstr, side="left", _fusion=hs.polyad_fusion):
        calls.append(side)
        return _fusion(opstr, side)
    monkeypatch.setattr(hs, "polyad_fusion", counted)
    built = [(fiber, opstr) for _, fiber, opstr in fusion_polyads(3)] + \
        hopf_polyads()
    for fiber, opstr in built:
        calls.clear()
        hs.polyad_is_hopf(opstr)
        assert calls == (["left", "right"]
                         if fiber == "total order" else [])


def test_a_hopf_check_over_a_thin_groupoid_reads_no_component(
        monkeypatch, request):
    # The checked constructors read every component they check, so in
    # checking mode the polyads are built before the readers are
    # patched, and only the Hopf check runs under the patch.  Outside
    # it, building the thin polyads and their fusion families reads no
    # component either.
    checking = request.config.getoption("--checking")

    def thin_polyads():
        return [opstr for _, fiber, opstr in fusion_polyads(4)
                if fiber != "one object"]
    polyads = thin_polyads() if checking else None

    def unread(*args):
        raise AssertionError("read %r" % (args[1:],))
    monkeypatch.setattr(cb.ThinMap, "__getitem__", unread)
    monkeypatch.setattr(cb.ThinTable, "__getitem__", unread)
    if not checking:
        polyads = thin_polyads()
        for opstr in polyads:
            for side in ("left", "right"):
                assert hs.polyad_fusion(opstr, side)
    for opstr in polyads:
        assert hs.polyad_is_hopf(opstr)


def first_without(objects, found):
    """The first object at which found(x) is false, or None."""
    return next((x for x in objects if not found(x)), None)


def test_transformations_held_by_their_functors_read_as_listed_ones():
    rng = random.Random(5)
    seen = collections.Counter()
    for c in THIN + [total_order(4), FinCategory.indiscrete(range(4))]:
        functors = functors_into(c, rng)
        for F, G in itertools.product(functors, repeat=2):
            homs = {x: c.hom(F.omap(x), G.omap(x)) for x in c.objects}
            missing = first_without(c.objects, homs.get)
            message = raised(lambda: held_by(F, G))
            assert message == raised(lambda: NatTransData(
                F, G, {x: hom[0] for x, hom in homs.items() if hom}))
            if missing is not None:
                assert message == "component missing at %r" % (missing,)
                seen["missing"] += 1
                continue
            held = held_by(F, G)
            listed = NatTransData(F, G, {x: hom[0]
                                         for x, hom in homs.items()})
            assert [held.components[x] for x in c.objects] == \
                [listed.components[x] for x in c.objects]
            assert held == listed and listed == held
            assert (held == NatTransData.identity(F)) == (F == G)
            iso = cb.nat_is_iso(held)
            witness = first_without(c.objects, lambda x: searched_inverse(
                c, held.components[x]) is not None)
            assert iso == cb.nat_is_iso(listed)
            assert bool(iso) == (witness is None)
            assert iso.witness == witness
            seen[(bool(cb.is_groupoid(c)), bool(iso))] += 1
    # The total orders are thin but not groupoids: there a family is
    # an isomorphism only where each component is an identity.
    assert {"missing", (True, True), (False, True), (False, False)} \
        <= set(seen)


def test_transformations_between_two_functors_differ_only_outside_thin():
    # Every element of an abelian group is a natural endotransformation
    # of its identity functor, each one different; into a thin category
    # the only one is the identity.
    c = cyclic(3)
    ident = FunctorData.identity(c)
    family = [NatTransData(ident, ident, {"*": g}) for g in c.morphisms]
    assert [[n == m for m in family] for n in family] == \
        [[n is m for m in family] for n in family]
    d = total_order(3)
    ident = FunctorData.identity(d)
    assert held_by(ident, ident) == NatTransData.identity(ident)


def test_a_transformation_is_held_by_its_functors_only_into_a_thin_category():
    c = cyclic(2)
    ident = FunctorData.identity(c)
    with pytest.raises(CatError, match="not into a thin category"):
        held_by(ident, ident)
    d = total_order(2)
    F = FunctorData.identity(d)
    G = FunctorData(d, d, FinFn.constant(d.objects, d.objects, 1),
                    FinFn.constant(d.morphisms, d.morphisms, (1, 1)))
    with pytest.raises(CatError, match="held by other functors"):
        NatTransData(F, F, cb.ThinMap.components(F, G))
    # A functor's morphism map is held by its object map, not by two
    # functors: handed to a transformation it is refused.
    with pytest.raises(CatError, match="held by other functors"):
        NatTransData(F, F, FunctorData.held(d, d, F.omap).mmap.assignment)
    with pytest.raises(CatError, match="component missing at 0"):
        held_by(G, F)
    assert repr(held_by(F, G).components) == \
        "ThinMap(%r, %r)" % (F, G)


def corrupted(nat, x):
    """nat's components with the one at x moved to a morphism with other
    endpoints."""
    cod, n = nat.source.cod, nat.components[x]
    other = next(m for m in cod.morphisms
                 if (cod.src(m), cod.tgt(m)) != (cod.src(n), cod.tgt(n)))
    return {**nat.components, x: other}


@pytest.mark.parametrize("fiber", ["discrete", "indiscrete"])
def test_a_d2_or_mu_corrupted_at_one_component_is_refused_when_built(fiber):
    # The fusion families over a thin fiber read no component of mu or
    # d2, so a corrupted one must not get that far: it is refused by the
    # NatTransData constructor, before the polyad is built.
    rng = random.Random(6)
    for n in (2, 3):
        for polyad, kind_, opstr in fusion_polyads(n):
            if kind_ != fiber:
                continue
            p, d = opstr.monad, opstr.monad.shape
            for _ in range(3):
                h = rng.choice(d.morphisms.elements)
                pair = rng.choice(d.composable_pairs())
                a = rng.choice(opstr.d2[h].source.dom.objects.elements)
                x = rng.choice(opstr.fibers["*"].cat.objects.elements)
                nat = opstr.d2[h]
                message = raised(lambda: hs.PolyadOpmonoidalStructure(
                    p, opstr.fibers, {**opstr.d2, h: NatTransData(
                        nat.source, nat.target, corrupted(nat, a))},
                    opstr.d0))
                assert message == "component endpoints at %r" % (a,)
                nat = p.mu[pair]
                message = raised(lambda: hs.MonadPresentation(
                    p.backend, d, p.base_label, p.mor_label,
                    {**p.mu, pair: NatTransData(nat.source, nat.target,
                                                corrupted(nat, x))},
                    p.eta))
                assert message == "component endpoints at %r" % (x,)


# ---------------------------------------------------------------------------
# Functors into a thin category held by their object maps
# (FunctorData.held, a cb.ThinMap view), and point functors built
# once per object, against the same functors with their morphism maps
# listed, or composed by FunctorData._composite.


def listed(dom, cod, omap):
    """The functor with object map omap, each morphism sent to the first
    morphism with the endpoints it asks for, or anywhere when there is
    none, built by the checked constructor."""
    mmap = {m: (cod.hom(omap(dom.src(m)), omap(dom.tgt(m)))
                or cod.morphisms.elements)[0] for m in dom.morphisms}
    return FunctorData(dom, cod, omap, FinFn(dom.morphisms, cod.morphisms,
                                             mmap))


def assert_same_functor(held, other):
    assert type(held.mmap.assignment) is cb.ThinMap
    assert held == other and other == held
    assert held.omap == other.omap
    assert [held.mmap(m) for m in held.dom.morphisms] == \
        [other.mmap(m) for m in other.dom.morphisms]
    assert list(held.mmap.assignment) == list(held.dom.morphisms)
    assert len(held.mmap.assignment) == len(held.dom.morphisms)


@pytest.mark.parametrize("n", range(2, 9))
def test_held_tensors_read_as_the_listed_ones(n):
    names, mul, unit = hs.cyclic_group(n)
    for build in (hs.discrete_monoidal_group, hs.indiscrete_monoidal_group):
        fiber = build(names, mul, unit)
        t = fiber.tensor
        assert_same_functor(t, listed(t.dom, t.cod, t.omap))
        assert t.mmap.assignment.parts()[0] is product_category(fiber.cat,
                                                                fiber.cat)


def listed_translation(names, mul, unit, fiber):
    """translation_polyad's labels, mu and eta, each morphism and
    component looked up in the fiber and listed."""
    c = fiber.cat
    labels = {}
    for u in names:
        omap = FinFn(c.objects, c.objects, {a: mul[(u, a)] for a in c.objects})
        labels[u] = FunctorData(c, c, omap, FinFn(c.morphisms, c.morphisms, {
            m: c.hom(omap(c.src(m)), omap(c.tgt(m)))[0]
            for m in c.morphisms}))
    mu = {(u, v): NatTransData(labels[v].then(labels[u]),
                               labels[mul[(u, v)]],
                               {a: c.identities(mul[(u, mul[(v, a)])])
                                for a in c.objects})
          for u in names for v in names}
    eta = NatTransData(FunctorData.identity(c), labels[unit],
                       {a: c.identities(a) for a in c.objects})
    return labels, mu, eta


@pytest.mark.parametrize("n", range(2, 9))
def test_held_translation_labels_read_as_the_listed_ones(n):
    names, mul, unit = hs.cyclic_group(n)
    for build in (hs.discrete_monoidal_group, hs.indiscrete_monoidal_group):
        fiber = build(names, mul, unit)
        p = hs.translation_polyad(names, mul, unit, fiber)
        labels, mu, eta = listed_translation(names, mul, unit, fiber)
        assert list(p.mor_label) == list(labels)
        for u, label in p.mor_label.items():
            assert_same_functor(label, labels[u])
        for held, other in [(p.eta["*"], eta)] + [
                (p.mu[pair], mu[pair]) for pair in p.shape.composable_pairs()]:
            assert type(held.components) is cb.ThinMap
            assert held == other and other == held
            assert dict(held.components) == other.components
            assert type(held.source.mmap.assignment) is cb.ThinMap \
                or held.source is FunctorData.identity(fiber.cat)


def test_held_functors_are_checked_as_the_listed_ones():
    # Into a thin category a functor is fixed by its object map, and
    # exists when every hom it reads is non-empty: decided once into an
    # indiscrete category, and at each morphism, in order, otherwise.
    rng = random.Random(7)
    seen = collections.Counter()
    for cod in THIN + [total_order(4), FinCategory.indiscrete(range(4))]:
        for dom in [cod] + rng.sample(CATEGORIES, 3):
            for _ in range(6):
                omap = FinFn(dom.objects, cod.objects, {
                    x: rng.choice(cod.objects.elements) for x in dom.objects})
                message = raised(lambda: FunctorData.held(dom, cod, omap))
                assert message == raised(lambda: listed(dom, cod, omap))
                if message is None:
                    assert_same_functor(FunctorData.held(dom, cod, omap),
                                        listed(dom, cod, omap))
                seen[message and message.split(" at ")[0]] += 1
    assert {None, "functor breaks endpoints"} <= set(seen)


def test_a_held_functor_that_misses_a_hom_is_refused():
    d = total_order(3)
    backwards = FinFn(d.objects, d.objects, {0: 2, 1: 1, 2: 0})
    message = "functor breaks endpoints at (0, 1)"
    assert raised(lambda: FunctorData.held(d, d, backwards)) == message
    assert raised(lambda: listed(d, d, backwards)) == message
    ident = FunctorData.identity(d)
    with pytest.raises(CatError, match="held by another object map"):
        FunctorData(d, d, ident.omap, _trusted(
            FinFn, d.morphisms, d.morphisms,
            cb.ThinMap.morphisms(d, d, FinFn.constant(d.objects, d.objects,
                                                      2))))
    # A transformation's components are held by two functors, not by an
    # object map: handed to a functor as its morphism map they are
    # refused.
    with pytest.raises(CatError, match="held by another object map"):
        FunctorData(d, d, ident.omap, _trusted(
            FinFn, d.morphisms, d.morphisms,
            NatTransData.held(ident, ident).components))
    held = FunctorData.held(d, d, FinFn(d.objects, d.objects,
                                        {0: 0, 1: 1, 2: 2}))
    assert held == ident and ident == held
    c = cyclic(2)
    with pytest.raises(CatError, match="not into a thin category"):
        FunctorData.held(c, c, FinFn.identity(c.objects))


def test_a_translation_that_misses_a_hom_is_not_determined():
    # The total order 0 < 1 < 2, tensored by max, on the elements of
    # Z_3: translation by 1 sends (0, 2) to 1 -> 0, which is not there,
    # so the label is refused with the listing's error, not the held
    # functor's.
    fiber = max_order_fiber()
    mul = {(u, a): (u + a) % 3 for u in range(3) for a in range(3)}
    with pytest.raises(SpanVError) as err:
        hs.translation_polyad(range(3), mul, 0, fiber)
    assert str(err.value) == "translation by 1 is not determined at (0, 2)"


def indiscrete_by_bz2_fiber(n):
    """I_n x BZ_2 tensored by addition: objects Z_n, each hom Z_2, a
    morphism (x, y, g), composed by adding the g.  Strict monoidal and
    not thin."""
    objects = FinSet(range(n))
    morphisms = FinSet([(x, y, g) for x in range(n) for y in range(n)
                        for g in range(2)])
    c = FinCategory(
        objects, morphisms,
        FinFn(morphisms, objects, {m: m[0] for m in morphisms}),
        FinFn(morphisms, objects, {m: m[1] for m in morphisms}),
        FinFn(objects, morphisms, {x: (x, x, 0) for x in objects}),
        {((y, z, h), (x, y, g)): (x, z, (g + h) % 2)
         for (x, y, g) in morphisms for z in range(n) for h in range(2)})
    p = product_category(c, c)
    return hs.MonoidalCatData(c, FunctorData(
        p, c, FinFn(p.objects, c.objects,
                    {(x, y): (x + y) % n for (x, y) in p.objects}),
        FinFn(p.morphisms, c.morphisms, {
            (m, k): ((m[0] + k[0]) % n, (m[1] + k[1]) % n, (m[2] + k[2]) % 2)
            for (m, k) in p.morphisms})), 0)


def idempotent_and_arrow_fiber():
    """Objects e and b, an idempotent z on e beside its identity, and one
    arrow m: e -> b; not thin.  Translation reads only a fiber's
    category, and this one has no tensor for Z_2 on its objects (b b = e
    would send (m, idb) into the empty hom(b, e)), so it stands alone."""
    objects = FinSet(["e", "b"])
    ends = {"ide": ("e", "e"), "z": ("e", "e"), "idb": ("b", "b"),
            "m": ("e", "b")}
    morphisms = FinSet(ends)
    c = FinCategory(
        objects, morphisms,
        FinFn(morphisms, objects, {m: ends[m][0] for m in morphisms}),
        FinFn(morphisms, objects, {m: ends[m][1] for m in morphisms}),
        FinFn(objects, morphisms, {"e": "ide", "b": "idb"}),
        {("ide", "ide"): "ide", ("z", "ide"): "z", ("ide", "z"): "z",
         ("z", "z"): "z", ("idb", "idb"): "idb", ("m", "ide"): "m",
         ("m", "z"): "m", ("idb", "m"): "m"})
    return types.SimpleNamespace(cat=c)


def undetermined_translation(n):
    """The elements, table, unit and fiber of a translation over a fiber
    that is not thin, and the message that refuses it: Z_n over
    I_n x BZ_2, or Z_2 listed as b, e over idempotent_and_arrow_fiber,
    where translation by b sends idb into hom(e, e), which holds ide and
    z."""
    if n == "idempotent":
        elements = ["b", "e"]
        return (elements, {(u, a): "e" if u == a else "b"
                           for u in elements for a in elements}, "e",
                idempotent_and_arrow_fiber(),
                "translation by 'b' is not determined at 'idb'")
    # Translation by the unit fixes every object, so it would send
    # (0, 0, 0) into hom(0, 0), which holds two morphisms.
    return (range(n), {(u, a): (u + a) % n for u in range(n)
                       for a in range(n)}, 0, indiscrete_by_bz2_fiber(n),
            "translation by 0 is not determined at (0, 0, 0)")


@pytest.mark.parametrize("mode", ["trusted", "checking"])
@pytest.mark.parametrize("n", [2, 3, "idempotent"])
def test_a_translation_over_a_fiber_that_is_not_thin_is_not_determined(
        n, mode, monkeypatch):
    # No fiber but a thin one holds a translation, and both builders, in
    # both modes, name the first hom that is not one morphism.
    if mode == "checking":
        from test_trusted import enter_checking_mode
        enter_checking_mode(monkeypatch)
    elements, mul, unit, fiber, message = undetermined_translation(n)
    assert not is_thin(fiber.cat)
    for build in (hs.translation_polyad, hs.translation_opmonoidal):
        with pytest.raises(SpanVError) as err:
            build(elements, mul, unit, fiber)
        assert str(err.value) == message


def point_fibers():
    """The discrete and indiscrete fibers of Z_3 and the one-object
    fiber of endomorphisms of the idempotent monoid {e, z}, which is not
    thin, each with endofunctors to compose points with."""
    rng = random.Random(8)
    names, mul, unit = hs.cyclic_group(3)
    found = []
    for build in (hs.discrete_monoidal_group, hs.indiscrete_monoidal_group):
        c = build(names, mul, unit).cat
        p = hs.translation_polyad(names, mul, unit, build(names, mul, unit))
        found.append((c, functors_into(c, rng)))
        found.append((p.base_label["*"], list(p.mor_label.values())))
    endo = monoid(2, max)
    found.append((endo, functors_into(endo, rng)))
    return found


def test_point_composites_are_the_points_at_their_images():
    for c, functors in point_fibers():
        for x in c.objects:
            point = cb.point_functor(c, x)
            assert point is cb.point_functor(c, x)
            assert point.dom is cb.TERMINAL and point.omap("*") == x
            for k in functors:
                composite = point.then(k)
                assert composite is cb.point_functor(c, k.omap(x))
                # The composed functor, as then built it before.
                oracle = point._composite(k)
                assert composite == oracle and oracle == composite
                assert composite.mmap(("id", "*")) == \
                    oracle.mmap(("id", "*"))
                for h in functors:
                    assert point.then(k.then(h)) is point.then(k).then(h)
                    assert point.then(k.then(h)) == \
                        point._composite(k)._composite(h)


def test_the_point_of_the_unit_category_is_its_identity():
    unit = cb.TERMINAL
    assert cb.point_functor(unit, "*") is FunctorData.identity(unit)
    assert not unit._memo


# ---------------------------------------------------------------------------
# 2-cells into thin categories held by their 1-cells (spanv_core.HeldCells)
# against the same cells with every component composed, built again with
# the view switched off.  The cells are generated over the thin
# categories above, a total order on four objects (thin, not a groupoid)
# and the indiscrete ones, with labels held endofunctors.

THIN_FIBERS = THIN + [total_order(4)]


def held_endofunctors(c, rng, count=4):
    """The identity of c and endofunctors of c held by random object
    maps that keep every hom, as many as count where c has them."""
    found = [FunctorData.identity(c)]
    objects = c.objects.elements
    for _ in range(60):
        if len(found) == count:
            break
        omap = {x: rng.choice(objects) for x in objects}
        if all(c.hom(omap[c.src(m)], omap[c.tgt(m)]) for m in c.morphisms):
            found.append(FunctorData.held(
                c, c, FinFn(c.objects, c.objects, omap)))
    return found


def listed_from(F, G):
    """The transformation F => G with its components listed."""
    c = F.cod
    return NatTransData(F, G, {x: c.hom(F.omap(x), G.omap(x))[0]
                               for x in F.dom.objects})


class ThinCells:
    """Cells over the Cat base whose 0-cells are labeled by the thin
    category c, built from a seeded rng: each build names its atoms
    alike, so that two builds can be compared atom by atom."""

    def __init__(self, c, seed):
        self.c, self.rng = c, random.Random(seed)
        self.be = sc.CatBackend()
        self.functors = held_endofunctors(c, self.rng)
        self.count = itertools.count()

    def cell0(self, size=2):
        carrier = FinSet(["p%d" % next(self.count) for _ in range(size)])
        return sc.Cell0(self.be, carrier, {x: self.c for x in carrier})

    def cell1(self, src, tgt, ends, labels, name="c"):
        """The 1-cell with one apex atom per (left, right) of ends,
        labeled in order."""
        apex = FinSet(["%s%d" % (name, next(self.count)) for _ in ends])
        return sc.Cell1(self.be, src, tgt, sc.Span(
            src.carrier, tgt.carrier, apex,
            FinFn(apex, tgt.carrier, dict(zip(apex, [e[0] for e in ends]))),
            FinFn(apex, src.carrier, dict(zip(apex, [e[1] for e in ends])))),
            dict(zip(apex, labels)))

    def mixed(self, src, tgt, size=3):
        """A 1-cell on random legs whose labels cycle through the
        functors."""
        rng = self.rng
        return self.cell1(src, tgt, [
            (rng.choice(tgt.carrier.elements), rng.choice(src.carrier.elements))
            for _ in range(size)],
            [self.functors[i % len(self.functors)] for i in range(size)])

    def onto(self, target, order=None):
        """A 2-cell into target along a bijection of apexes (shuffled, or
        the given order of target atoms), each source label one with a
        transformation into its image's label, each component listed."""
        span, rng = target.span, self.rng
        atoms = order or rng.sample(span.apex.elements, len(span.apex))
        source = self.cell1(
            target.src, target.tgt, [(span.left(d), span.right(d))
                                     for d in atoms],
            [rng.choice([F for F in self.functors
                         if cb.ThinMap.components(
                             F, target.label[d]).gap() is None])
             for d in atoms], "s")
        images = dict(zip(source.span.apex, atoms))
        return sc.cell2_along(source, target, images.__getitem__, {
            s: listed_from(source.label[s], target.label[d])
            for s, d in images.items()})


def whiskered(cell, g, f, into):
    """cell, then g o f, as one chain landed in into."""
    return sc._landed(sc._chained(cell.source, cell, sc._whiskered(g, f)),
                      into)


def relabeled(cell, fn, into):
    """cell, then the relabeling along fn, as one chain landed in into."""
    return sc._landed(sc._chained(cell.source, cell, sc._relabeled(fn)),
                      into)


def thin_builds(c, seed):
    """Every builder of 2-cells on cells over c: identities, vertical and
    horizontal composites, whiskers, relabelings and inverses, and the
    verdicts of eq2 on equal cells and on two that differ in their span
    maps alone."""
    g = ThinCells(c, seed)
    x, y, z = g.cell0(), g.cell0(), g.cell0()
    a, b = g.mixed(x, y), g.mixed(y, z)
    u, v = g.onto(a), g.onto(b)
    below = g.onto(u.source)
    composite = sc.hcomp1(v.source, u.source)
    whisker = sc._landed(sc._chained(composite, sc._whiskered(v, u)),
                         sc.hcomp1(v.target, u.target))
    # Two atoms on the same legs with the same label, so that two span
    # maps run between one pair of 1-cells.
    first = g.functors[-1]
    twin = g.cell1(x, y, [(y.carrier.elements[0], x.carrier.elements[0])]
                   * 3, [first, first, g.functors[0]])
    atoms = twin.span.apex.elements
    straight = g.onto(twin, list(atoms))
    images = dict(zip(straight.source.span.apex,
                      [atoms[1], atoms[0], atoms[2]]))
    crossed = sc.cell2_along(straight.source, twin, images.__getitem__,
                             dict(straight.components))
    vertical = sc.vcomp2(u, below)
    cells = [sc.identity_cell2(a), vertical, sc.hcomp2(v, u), whisker,
             relabeled(u, lambda d: d, a),
             sc.relabel_cell2(u.source, u.source, lambda s: s),
             straight, crossed]
    inverses = [sc.invert_cell2(cell) for cell in cells[:-2] + [u]]
    verdicts = [sc.eq2(u, u), sc.eq2(vertical, sc.vcomp2(u, below)),
                sc.eq2(straight, crossed), sc.eq2(crossed, straight),
                sc.eq2(whisker, whisker)]
    return cells, inverses, verdicts


def dict_path(monkeypatch):
    """Switch the view off: no 1-cell's labels read as thin, so every
    cell lists its components and every builder composes them."""
    monkeypatch.setattr(sc, "_thin_labels", lambda a: False)


def listed_components(cell):
    """Each source atom's image and the morphisms of its component, in
    apex order (an inverse's dict is keyed in the order of the atoms it
    inverts)."""
    comps = cell.components
    assert set(comps) == set(cell.source.span.apex)
    return [(c, cell.morphism.map(c), [comps[c].components[x]
                                       for x in comps[c].source.dom.objects])
            for c in cell.source.span.apex]


def assert_same_cells(held, listed):
    assert listed_components(held) == listed_components(listed)
    for c in listed.source.span.apex:
        assert held.components[c] == listed.components[c]
        assert listed.components[c] == held.components[c]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("c", THIN_FIBERS, ids=kind)
def test_held_cells_read_as_the_composed_ones(c, seed, monkeypatch):
    cells, inverses, verdicts = thin_builds(c, seed)
    dict_path(monkeypatch)
    plain_cells, plain_inverses, plain_verdicts = thin_builds(c, seed)
    several = len(held_endofunctors(c, random.Random(seed))) > 1
    kinds = {type(cell.components) for cell in cells}
    assert kinds <= {sc.HeldCells, sc.Uniform}
    assert (sc.HeldCells in kinds) == several
    for held, listed in zip(cells, plain_cells):
        assert type(listed.components) is not sc.HeldCells
        assert_same_cells(held, listed)
        assert held == listed and listed == held
    assert [(bool(r), r.witness) for r in inverses] == \
        [(bool(r), r.witness) for r in plain_inverses]
    for held, listed in zip(inverses, plain_inverses):
        if held:
            assert_same_cells(held.inverse, listed.inverse)
    assert [(bool(r), r.witness) for r in verdicts] == \
        [(bool(r), r.witness) for r in plain_verdicts]
    assert [bool(r) for r in verdicts] == [True, True, False, False, True]
    assert verdicts[2].witness[0] == "span map"


@pytest.mark.parametrize("c", THIN_FIBERS, ids=kind)
def test_the_atom_walk_names_every_swapped_atom(c, monkeypatch):
    # straight and crossed differ in their span maps at the two atoms
    # they swap alone: held or listed, the walk names both, in apex
    # order, and the first is eq2's witness.
    for listed in (False, True):
        if listed:
            dict_path(monkeypatch)
        cells, _, verdicts = thin_builds(c, 0)
        straight, crossed = cells[-2:]
        assert (type(straight.components) is sc.HeldCells) != listed
        first, second = straight.source.span.apex.elements[:2]
        walk = list(sc.differences2(straight, crossed))
        assert walk == [("span map", first), ("span map", second)]
        assert verdicts[2].witness == walk[0]


def test_a_held_inverse_into_an_order_names_the_first_missing_hom():
    # In a total order a transformation between different functors has
    # a component with no inverse; the witness is the dict path's.
    cells, inverses, _ = thin_builds(total_order(4), 0)
    witnesses = [r.witness for r in inverses if not r]
    assert witnesses
    assert all(w[0] == "component not invertible" for w in witnesses)


def wrong_landings(c, seed):
    """The ways a chain over c lands wrong: a relabeling and a whisker
    into a 1-cell with one label changed, and a whisker whose cell does
    not end where the whiskered cells start.  The message each raises."""
    g = ThinCells(c, seed)
    x, y, z = g.cell0(), g.cell0(), g.cell0()
    a, b = g.mixed(x, y), g.mixed(y, z)
    u, v = g.onto(a), g.onto(b)

    def changed(cell):
        # cell with its first label changed to a functor not equal to it
        atom = cell.span.apex.elements[0]
        other = next(F for F in g.functors if F != cell.label[atom])
        return sc.Cell1(g.be, cell.src, cell.tgt, cell.span,
                        {**cell.label, atom: other})
    source = sc.hcomp1(v.source, u.source)
    found = []
    for build in (lambda: relabeled(u, lambda d: d, changed(a)),
                  lambda: sc._landed(sc._chained(
                      source, sc._whiskered(v, u)), changed(sc.hcomp1(b, a))),
                  lambda: sc._landed(sc._chained(
                      changed(source), sc._whiskered(v, u)), sc.hcomp1(b, a))):
        found.append(raised(build))
    return found


@pytest.mark.parametrize("c", [THIN[2], THIN[3], total_order(4)], ids=kind)
def test_a_chain_landing_in_a_wrong_target_is_refused(c, monkeypatch):
    held = wrong_landings(c, 1)
    dict_path(monkeypatch)
    assert held == wrong_landings(c, 1)
    assert held[0].startswith("component codomain mismatch at")
    assert held[1].startswith("component codomain mismatch at")
    assert held[2] == "vertical composition boundary mismatch"


# ---------------------------------------------------------------------------
# 1-cells out of the unit 0-cell whose labels are points: composites,
# the cells built on them against their components listed atom by atom,
# and the errors of a wrong landing or a missing hom.


@pytest.mark.parametrize("c", THIN_FIBERS + NOT_THIN, ids=kind)
def test_the_points_of_a_category_are_its_point_functors(c):
    # One point functor per object, built once and kept on c, picking
    # that object; a point followed by an endofunctor is the point at
    # the object's image.
    functors = held_endofunctors(c, random.Random(0)) if is_thin(c) \
        else [FunctorData.identity(c)]
    points = [cb.point_functor(c, x) for x in c.objects]
    assert len({id(point) for point in points}) == len(c.objects)
    for x, point in zip(c.objects, points):
        assert point is cb.point_functor(c, x)
        assert (point.dom, point.cod, point.omap("*")) == (cb.TERMINAL, c, x)
        assert point.mmap(("id", "*")) == c.identities(x)
        for F in functors:
            assert point.then(F) is cb.point_functor(c, F.omap(x))


class PointCells(ThinCells):
    """ThinCells with a 1-cell q from the unit 0-cell into a 0-cell x
    over c, its labels the points at random objects, and a 1-cell b
    from x on top of it."""

    def __init__(self, c, seed):
        super().__init__(c, seed)
        self.x, self.y = self.cell0(), self.cell0()
        unit = sc.unit_cell0(self.be)
        apex = FinSet(["q%d" % k for k in range(3)])
        objects = {a: self.rng.choice(c.objects.elements) for a in apex}
        span = sc.Span(unit.carrier, self.x.carrier, apex,
                       FinFn(apex, self.x.carrier, {
                           a: self.rng.choice(self.x.carrier.elements)
                           for a in apex}),
                       FinFn.constant(apex, unit.carrier, "*"))
        self.q = sc.Cell1(self.be, unit, self.x, span, {
            a: cb.point_functor(c, x) for a, x in objects.items()})
        self.b = self.mixed(self.x, self.y)
        self.span = sc.compose_spans(self.b.span, self.q.span)


def point_builds(c, seed):
    """The composite b o q; the identities on q and on b o q, a
    relabeling of b o q onto itself and its vertical square, and the
    whisker of a 2-cell into b along q; and eq2 on two of them."""
    g = PointCells(c, seed)
    composite = sc._composite(g.b, g.q, g.span)
    u = g.onto(g.b)
    below = sc._composite(u.source, g.q, sc.compose_spans(u.source.span,
                                                          g.q.span))
    whisker = sc._landed(sc._chained(below, sc._whiskered(u, g.q)),
                         sc.hcomp1(u.target, g.q))
    onto = relabeled(sc.identity_cell2(composite), lambda d: d, composite)
    cells = [sc.identity_cell2(g.q), sc.identity_cell2(composite),
             onto, whisker, sc.vcomp2(onto, onto)]
    return g, composite, cells, sc.eq2(onto, cells[1])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("c", THIN_FIBERS, ids=kind)
def test_point_labels_compose_and_land_as_the_listed_ones(c, seed):
    # b o q labels each atom (d, a) by the point at the image of q's
    # point under b's label at d; each cell built on them is held or
    # uniform, and equals the cell with its components listed, which the
    # constructor checks atom by atom.
    g, composite, cells, verdict = point_builds(c, seed)
    assert type(composite.label) in (dict, sc.Uniform)
    assert sc._composite(g.b, g.q, g.span) == composite
    for d, a in composite.span.apex:
        assert composite.label[(d, a)] is cb.point_functor(
            c, g.b.label[d].omap(g.q.label[a].omap("*")))
    kinds = {type(cell.components) for cell in cells}
    assert sc.HeldCells in kinds and kinds <= {sc.HeldCells, sc.Uniform}
    for held in cells:
        listed = sc.Cell2(held.source, held.target, held.morphism, {
            a: held.components[a] for a in held.source.span.apex})
        assert_same_cells(held, listed)
        assert held == listed and listed == held
    assert (bool(verdict), verdict.witness) == (True, None)


def point_gaps(c, seed):
    """The messages of a relabeling of b o q into the same 1-cell with
    one point moved, and of the identity span map from q to a 1-cell
    with one point moved, its components held."""
    g = PointCells(c, seed)
    composite = sc._composite(g.b, g.q, g.span)
    found = []
    for cell in (composite, g.q):
        atom = cell.span.apex.elements[0]
        x = cell.label[atom].omap("*")
        moved = next(y for y in c.objects if y != x)
        labels = {a: cell.label[a] for a in cell.span.apex}
        labels[atom] = cb.point_functor(c, moved)
        other = sc.Cell1(g.be, cell.src, cell.tgt, cell.span, labels)
        found.append(raised(lambda: relabeled(
            sc.identity_cell2(cell), lambda d: d, other)))
        morphism = sc.SpanMorphism.identity(cell.span)
        found.append(raised(lambda: sc.Cell2(
            cell, other, morphism, sc.HeldCells(
                cell, other, morphism.map.assignment))))
    return found


@pytest.mark.parametrize("c", [c for c in THIN_FIBERS if len(c.objects) > 1],
                         ids=kind)
def test_a_point_landing_wrong_or_on_no_hom_is_refused_as_listed(c):
    for seed in range(3):
        found = point_gaps(c, seed)
        assert found[0].startswith("component codomain mismatch at")
        assert found[2].startswith("component codomain mismatch at")
        # A held cell into moved points exists where every hom does.
        gaps = [m for m in found[1::2] if m is not None]
        assert all(m.startswith("component missing at") for m in gaps)
        if len(c._homs_by_ends()) == len(c.objects) ** 2:
            assert not gaps


def test_a_point_on_an_empty_hom_is_refused_in_an_order():
    d = total_order(3)
    found = [m for seed in range(6) for m in point_gaps(d, seed)[1::2]]
    assert any(m and m.startswith("component missing at") for m in found)


def test_a_product_lists_its_morphisms_only_when_read():
    # The product category of a fiber with itself, n^4 morphisms of the
    # indiscrete fiber on n objects, is never listed by a modules or a
    # Hopf check of the translation polyad.
    names, mul, unit = hs.cyclic_group(3)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    prod = product_category(fiber.cat, fiber.cat)
    assert hs.em_algebras_restricted(
        hs.translation_polyad(names, mul, unit, fiber)).report.ok
    assert hs.polyad_is_hopf(hs.translation_opmonoidal(names, mul, unit,
                                                       fiber))
    morphisms = prod.morphisms
    assert "elements" not in vars(morphisms)
    listed = FinSet.product(fiber.cat.morphisms, fiber.cat.morphisms)
    assert all(m in morphisms for m in listed)
    assert ("x", "y") not in morphisms and "ab" not in morphisms
    assert "elements" not in vars(morphisms)
    assert morphisms == listed and listed == morphisms
    assert morphisms.elements == listed.elements and len(morphisms) == 81
    assert hash(morphisms) == hash(listed)
