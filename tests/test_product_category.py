"""The lazy product category against the tabulated oracle, and the checks
that run on a product's generators against full scans.

``spanv_core.product_category`` composes componentwise on lookup: its
table is a ``cat_backend.ProductTable``, and the functors out of it map
on lookup too.  ``tabulated_product`` below builds the same category
with a dense table over every composable pair, through the checked
constructor.  The lazy product must read as that table does, in the
same order, and compare equal to it both ways.  Functoriality,
naturality and the associativity of a tensor are checked on the
product's generators (f, 1) and (1, k) only; on generated mutants they
must decide as the scan over every composable pair, morphism or triple
does, and name a witness the scan also finds.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfspan import hopf_structures as hs
from hopfspan.cat_backend import (
    CatError, FinCategory, FunctorData, NatTransData, PairMap, ProductTable,
    check_category, generating_pairs, generators, is_groupoid,
    product_factors, product_generators,
)
from hopfspan.finset_span import FinFn, FinSet, _trusted
from hopfspan.spanv_core import SpanVError, product_category, product_functor
from test_cat_backend import categories, leaf_categories, s3_category


def tabulated_product(a, b):
    """a x b with its composition tabulated over every composable pair,
    in the lazy product's order, through the checked constructor."""
    objects = FinSet.product(a.objects, b.objects)
    morphisms = FinSet.product(a.morphisms, b.morphisms)
    src = FinFn(morphisms, objects,
                {(m, n): (a.src(m), b.src(n)) for (m, n) in morphisms})
    tgt = FinFn(morphisms, objects,
                {(m, n): (a.tgt(m), b.tgt(n)) for (m, n) in morphisms})
    identities = FinFn(objects, morphisms,
                       {(x, y): (a.identities(x), b.identities(y))
                        for (x, y) in objects})
    a_into, b_into = a.morphisms_by(a.tgt), b.morphisms_by(b.tgt)
    composition = {}
    for (g, h) in morphisms:
        ks = b_into.get(b.src(h), ())
        for f in a_into.get(a.src(g), ()):
            gf = a.composition[(g, f)]
            for k in ks:
                composition[((g, h), (f, k))] = (gf, b.composition[(h, k)])
    return FinCategory(objects, morphisms, src, tgt, identities, composition)


def tabulated(c):
    """The twin of c with every product in it tabulated."""
    factors = product_factors(c)
    if factors is None:
        return c
    return tabulated_product(*map(tabulated, factors))


def scanned_hom(c, x, y):
    return [m for m in c.morphisms if c.src(m) == x and c.tgt(m) == y]


@settings(max_examples=100, deadline=None)
@given(categories, leaf_categories(), st.randoms(use_true_random=False))
def test_lazy_product_reads_as_the_tabulated_oracle(a, b, rng):
    p = product_category(a, b)
    assert product_category(a, b) is p
    assert isinstance(p.composition, ProductTable)
    t = tabulated(p)
    assert not isinstance(t.composition, ProductTable)
    assert list(p.composition) == list(t.composition)
    assert [p.composition[key] for key in t.composition] == \
        list(t.composition.values())
    assert len(p.composition) == len(t.composition)
    assert p.composable_pairs() == t.composable_pairs()
    assert (p.objects, p.morphisms, p.src, p.tgt, p.identities) == \
        (t.objects, t.morphisms, t.src, t.tgt, t.identities)
    assert p.composition == t.composition and t.composition == p.composition
    assert p == t and t == p and hash(p) == hash(t)
    assert check_category(p).ok
    for _ in range(4):
        g, f = rng.choice(p.morphisms.elements), \
            rng.choice(p.morphisms.elements)
        assert ((g, f) in p.composition) == ((g, f) in t.composition)
        assert p.composition.get((g, f)) == t.composition.get((g, f))
    assert "no pair" not in p.composition
    for x in p.objects:
        for y in p.objects:
            assert p.hom(x, y) == t.hom(x, y) == scanned_hom(p, x, y)
    for m in p.morphisms:
        assert p.inverse(m) == t.inverse(m)
    assert bool(is_groupoid(p)) == bool(is_groupoid(t))
    # One entry off: the lazy table tells the twin apart, both ways.
    key = rng.choice(list(t.composition))
    other = [m for m in t.morphisms if m != t.composition[key]]
    assume(other)
    off = _trusted(FinCategory, t.objects, t.morphisms, t.src, t.tgt,
                   t.identities,
                   {**t.composition, key: rng.choice(other)})
    assert p.composition != off.composition and \
        off.composition != p.composition
    assert p != off and off != p


def test_product_keeps_its_table_lazy_when_checked():
    a = FinCategory.indiscrete(["x", "y"])
    b = FinCategory.from_monoid(
        ["e", "z"], {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z",
                     ("z", "z"): "e"}, "e")
    p = product_category(a, b)
    checked = FinCategory(p.objects, p.morphisms, p.src, p.tgt,
                          p.identities, ProductTable(a, b))
    assert isinstance(checked.composition, ProductTable)
    assert checked == p == tabulated(p)
    # The same sets, composed in another factor: the tables differ.
    z = FinCategory.from_monoid(
        ["e", "z"], {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z",
                     ("z", "z"): "z"}, "e")
    other = FinCategory(p.objects, p.morphisms, p.src, p.tgt, p.identities,
                        ProductTable(a, z))
    assert other != p and p != other and other == tabulated(other)


@pytest.mark.parametrize("make", [
    lambda: FinCategory.from_monoid(
        ["1", "z"], {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z",
                     ("z", "z"): "z"}, "1"),
    s3_category,
    lambda: FinCategory.indiscrete(["x", "y", "w"]),
    lambda: FinCategory.discrete(["x", "y"]),
    lambda: product_category(FinCategory.indiscrete(["x", "y"]),
                             FinCategory.discrete(["u", "v"])),
    lambda: product_category(s3_category(), FinCategory.indiscrete("xy")),
])
def test_hom_matches_the_scan(make):
    c = make()
    for x in c.objects:
        for y in c.objects:
            hom = c.hom(x, y)
            assert hom == scanned_hom(c, x, y)
            hom.append("changed by the caller")
            assert c.hom(x, y) == scanned_hom(c, x, y)


def identity_apart(c):
    """The identity functor on c built through the checked constructor:
    equal to FunctorData.identity(c) but not it, so that products of it
    are built and kept as those of any other functor."""
    return FunctorData(c, c, FinFn.identity(c.objects),
                       FinFn.identity(c.morphisms))


@settings(max_examples=60, deadline=None)
@given(leaf_categories(), leaf_categories())
def test_product_functors_read_as_tabulated_maps(a, b):
    p = product_category(a, b)
    f = product_functor(identity_apart(a), identity_apart(b))
    assert isinstance(f.mmap.assignment, PairMap)
    identity = FunctorData.identity(p)
    assert f is not identity
    assert f == identity and identity == f and hash(f) == hash(identity)
    twice = f.then(f)
    assert twice == identity and identity == twice
    assert list(twice.mmap.assignment) == list(p.morphisms)
    assert dict(twice.mmap.assignment) == identity.mmap.assignment
    assert twice.mmap == FinFn(p.morphisms, p.morphisms,
                               dict(twice.mmap.assignment))


@settings(max_examples=60, deadline=None)
@given(leaf_categories(), leaf_categories())
def test_the_product_of_identities_is_the_identity_of_the_product(a, b):
    ida, idb = FunctorData.identity(a), FunctorData.identity(b)
    f = product_functor(ida, idb)
    assert product_functor(ida, idb) is f
    p = product_category(a, b)
    assert FunctorData.identity(p) is f
    assert isinstance(f.omap.assignment, PairMap)
    assert isinstance(f.mmap.assignment, PairMap)
    tabulated = FunctorData(p, p, FinFn.identity(p.objects),
                            FinFn.identity(p.morphisms))
    assert f == tabulated and tabulated == f
    assert dict(f.omap.assignment) == tabulated.omap.assignment
    assert dict(f.mmap.assignment) == tabulated.mmap.assignment
    assert f.then(f) is f


@pytest.mark.parametrize("build", [hs.discrete_monoidal_group,
                                   hs.indiscrete_monoidal_group])
def test_identity_polyad_fusion_runs_from_its_target(build):
    # Every label is the identity, so each family's source and target
    # are the fiber's tensor after the identity of its square.
    names, mul, unit = hs.cyclic_group(3)
    fiber = build(names, mul, unit)
    opstr = hs.identity_polyad(names, mul, unit, fiber)
    for side in ("left", "right"):
        families = hs.polyad_fusion(opstr, side)
        assert len(families) == 9
        for nat in families.values():
            assert nat.source is nat.target is fiber.tensor


def test_views_show_their_kind_and_parts_not_their_entries():
    a = FinCategory.indiscrete(["x", "y"])
    p = product_category(a, a)
    assert repr(p.composition) == "ProductTable(%r, %r)" % (a, a)
    ida = identity_apart(a)
    f = product_functor(ida, ida)
    assert repr(f.mmap.assignment) == "PairMap(%r, %r)" % (
        ida.mmap.assignment, ida.mmap.assignment)
    # The same on a twin built apart: no address in it.
    b = FinCategory.indiscrete(["x", "y"])
    idb = identity_apart(b)
    twin = product_functor(idb, idb)
    assert repr(f.then(f)) == repr(twin.then(twin))
    assert repr(product_category(a, p)) == \
        repr(product_category(b, product_category(b, b)))


def morphisms_like(c, m):
    """The morphisms of c other than m with m's endpoints."""
    return [n for n in c.hom(c.src(m), c.tgt(m)) if n != m]


def is_generator(c, m):
    a, b = product_factors(c)
    return m[0] in a.identities.image() or m[1] in b.identities.image()


@settings(max_examples=150, deadline=None)
@given(leaf_categories(), leaf_categories(), st.randoms(use_true_random=False))
def test_functoriality_on_generating_pairs_decides_as_every_pair(a, b, rng):
    # The identity of a x b with the value at one morphism other than an
    # identity moved to a morphism with the same endpoints.
    p = product_category(a, b)
    moved = [m for m in p.morphisms if m not in p.identities.image()]
    assume(moved)
    m = rng.choice(moved)
    others = morphisms_like(p, m)
    assume(others)
    mmap = {**FinFn.identity(p.morphisms).assignment, m: rng.choice(others)}
    broken = [(g, f) for (g, f) in p.composable_pairs()
              if mmap[p.compose(g, f)] != p.compose(mmap[g], mmap[f])]
    assert set(generating_pairs(p)) <= set(p.composable_pairs())
    omap = FinFn.identity(p.objects)
    if not broken:
        FunctorData(p, p, omap, FinFn(p.morphisms, p.morphisms, mmap))
        return
    with pytest.raises(CatError, match="breaks composition") as err:
        FunctorData(p, p, omap, FinFn(p.morphisms, p.morphisms, mmap))
    assert str(err.value) == "functor breaks composition at %r" % (
        next(pair for pair in generating_pairs(p) if pair in broken),)


def cyclic3():
    return FinCategory.from_monoid(
        range(3), {(g, h): (g + h) % 3 for g in range(3) for h in range(3)},
        0)


def test_a_functor_broken_off_the_generators_is_caught():
    # Addition Z_3 x Z_3 -> Z_3 with its value moved at (1, 1), which is
    # neither (f, 1) nor (1, k): every pair of generators whose
    # composite is a generator is still preserved.
    c = cyclic3()
    p = product_category(c, c)
    mmap = {(g, h): (g + h) % 3 for (g, h) in p.morphisms}
    omap = FinFn(p.objects, c.objects, {("*", "*"): "*"})
    FunctorData(p, c, omap, FinFn(p.morphisms, c.morphisms, mmap))
    mmap[(1, 1)] = 0
    assert not is_generator(p, (1, 1))
    assert all(mmap[p.compose(g, f)] == c.compose(mmap[g], mmap[f])
               for (g, f) in p.composable_pairs()
               if all(is_generator(p, m) for m in (g, f, p.compose(g, f))))
    with pytest.raises(CatError) as err:
        FunctorData(p, c, omap, FinFn(p.morphisms, c.morphisms, mmap))
    assert str(err.value) == "functor breaks composition at %r" % (
        ((1, 0), (0, 1)),)


def test_a_functor_whose_variables_do_not_commute_is_caught():
    # Z_2 x Z_2 -> S_3 sending the two generators to transpositions x and
    # y that do not commute, and (b, b) to x y: a functor in each
    # variable, with (b, b) = (b, 1) after (1, b), yet (1, b) after
    # (b, 1) goes to y x.
    z2 = FinCategory.from_monoid(
        ["e", "b"], {("e", "e"): "e", ("e", "b"): "b", ("b", "e"): "b",
                     ("b", "b"): "e"}, "e")
    s3 = s3_category()
    p = product_category(z2, z2)
    x, y = (1, 0, 2), (0, 2, 1)
    mmap = {("e", "e"): (0, 1, 2), ("b", "e"): x, ("e", "b"): y,
            ("b", "b"): s3.compose(x, y)}
    assert s3.compose(x, y) != s3.compose(y, x)
    with pytest.raises(CatError) as err:
        FunctorData(p, s3, FinFn(p.objects, s3.objects, {("*", "*"): "*"}),
                    FinFn(p.morphisms, s3.morphisms, mmap))
    assert str(err.value) == "functor breaks composition at %r" % (
        (("e", "b"), ("b", "e")),)


@settings(max_examples=150, deadline=None)
@given(leaf_categories(), leaf_categories(), st.randoms(use_true_random=False))
def test_naturality_on_generators_decides_as_every_morphism(a, b, rng):
    # The identity transformation of the identity of a x b, read through
    # the lazy product functor, with one component moved to another
    # endomorphism of its object.
    p = product_category(a, b)
    f = product_functor(FunctorData.identity(a), FunctorData.identity(b))
    x = rng.choice(p.objects.elements)
    others = morphisms_like(p, p.identities(x))
    assume(others)
    comps = {y: p.identities(y) for y in p.objects}
    comps[x] = rng.choice(others)
    broken = [m for m in p.morphisms
              if p.compose(comps[p.tgt(m)], m) != p.compose(m, comps[p.src(m)])]
    assert set(generators(p)) <= set(p.morphisms)
    assert generators(p) == product_generators(a, b)
    if not broken:
        NatTransData(f, f, comps)
        return
    with pytest.raises(CatError) as err:
        NatTransData(f, f, comps)
    witness = next(m for m in generators(p) if m in broken)
    assert str(err.value) == "naturality fails at %r" % (witness,)
    assert is_generator(p, witness)


def test_a_family_with_one_wrong_component_is_caught():
    # On the torsor I_2 x Z_2, the identity family with the Z_2 part of
    # one component flipped commutes with every morphism but those that
    # move between the two objects.
    z2 = FinCategory.from_monoid(
        ["e", "b"], {("e", "e"): "e", ("e", "b"): "b", ("b", "e"): "b",
                     ("b", "b"): "e"}, "e")
    i2 = FinCategory.indiscrete(["x", "y"])
    p = product_category(i2, z2)
    f = product_functor(FunctorData.identity(i2), FunctorData.identity(z2))
    comps = {o: p.identities(o) for o in p.objects}
    NatTransData(f, f, comps)
    comps[("x", "*")] = (("x", "x"), "b")
    with pytest.raises(CatError) as err:
        NatTransData(f, f, comps)
    assert str(err.value) == "naturality fails at %r" % ((("x", "y"), "e"),)


def test_a_tensor_off_the_generators_is_caught():
    # Addition on Z_3 with its value moved at (1, 1): every generator
    # triple (m, 1, 1), (1, m, 1), (1, 1, m) still associates, some other
    # triple does not, and the checked tensor is refused with the pair
    # whose composite it breaks.
    c = cyclic3()
    p = product_category(c, c)
    omap = FinFn(p.objects, c.objects, {("*", "*"): "*"})
    mmap = {(g, h): (g + h) % 3 for (g, h) in p.morphisms}
    hs.MonoidalCatData(c, FunctorData(p, c, omap, FinFn(p.morphisms,
                                                        c.morphisms, mmap)),
                       "*")
    mmap[(1, 1)] = 0

    def associates(m, n, o):
        return mmap[(mmap[(m, n)], o)] == mmap[(m, mmap[(n, o)])]
    triples = [(m, n, o) for m in range(3) for n in range(3)
               for o in range(3)]
    assert all(associates(*t) for t in triples if list(t).count(0) >= 2)
    assert not all(associates(*t) for t in triples)
    with pytest.raises(CatError) as err:
        hs.MonoidalCatData(c, FunctorData(
            p, c, omap, FinFn(p.morphisms, c.morphisms, mmap)), "*")
    assert str(err.value) == "functor breaks composition at %r" % (
        ((1, 0), (0, 1)),)


def test_a_tensor_failing_only_on_the_last_generator_family_is_caught():
    # Objects u (the unit) and x = x (x) x, with End(x) = Z_3 and
    # s (x) t = s - t there: a functor, unital, and associative on every
    # triple (m, 1, 1) and (1, m, 1), but 1 (x) (1 (x) m) = m while
    # (1 (x) 1) (x) m = -m.
    c = FinCategory(
        FinSet(["u", "x"]), FinSet(["1u", 0, 1, 2]),
        FinFn(FinSet(["1u", 0, 1, 2]), FinSet(["u", "x"]),
              {"1u": "u", 0: "x", 1: "x", 2: "x"}),
        FinFn(FinSet(["1u", 0, 1, 2]), FinSet(["u", "x"]),
              {"1u": "u", 0: "x", 1: "x", 2: "x"}),
        FinFn(FinSet(["u", "x"]), FinSet(["1u", 0, 1, 2]),
              {"u": "1u", "x": 0}),
        {("1u", "1u"): "1u",
         **{(g, h): (g + h) % 3 for g in range(3) for h in range(3)}})
    p = product_category(c, c)
    omap = {(a, b): "u" if a == b == "u" else "x" for (a, b) in p.objects}
    mmap = {(m, n): (m - n) % 3 if "1u" not in (m, n)
            else n if m == "1u" else m for (m, n) in p.morphisms}
    tensor = FunctorData(p, c, FinFn(p.objects, c.objects, omap),
                         FinFn(p.morphisms, c.morphisms, mmap))

    def associates(m, n, o):
        return mmap[(mmap[(m, n)], o)] == mmap[(m, mmap[(n, o)])]
    ids = ["1u", 0]
    assert all(associates(m, i, j) and associates(i, m, j)
               for m in c.morphisms for i in ids for j in ids)
    with pytest.raises(SpanVError) as err:
        hs.MonoidalCatData(c, tensor, "u")
    assert str(err.value) == "tensor not associative at %r" % ((0, 0, 1),)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monoidal_groups_match_the_full_scans(n):
    names, mul, unit = hs.cyclic_group(n)
    for build in (hs.discrete_monoidal_group, hs.indiscrete_monoidal_group):
        fiber = build(names, mul, unit)
        c, t = fiber.cat, fiber.tensor
        p = t.dom
        assert isinstance(p.composition, ProductTable)
        tm = t.mmap.assignment
        assert all(tm[p.compose(g, f)] == c.compose(tm[g], tm[f])
                   for (g, f) in p.composable_pairs())
        assert all(tm[(tm[(m, k)], o)] == tm[(m, tm[(k, o)])]
                   for m in c.morphisms for k in c.morphisms
                   for o in c.morphisms)
