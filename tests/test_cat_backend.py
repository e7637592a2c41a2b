import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfspan.finset_span import FinSet, FinFn, _trusted
from hopfspan.cat_backend import (
    TERMINAL, ComposedMap, FinCategory, FunctorData, NatTransData, CatError,
    check_category, is_groupoid, nat_is_iso,
)
from hopfspan.reporting import CheckReport
from hopfspan.spanv_core import (
    VectImageBackend, product_category, product_functor, product_nat,
    vect_as_lazy_category,
)
from hopfspan.vect_backend import (
    VObject, VMorphism, BraidParam, braiding, invert, tensor_obj, unit_object,
)


def z2_category():
    mul = {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z", ("z", "z"): "e"}
    return FinCategory.from_monoid(["e", "z"], mul, "e")


def idempotent_monoid_category():
    # {1, z | z.z = z}
    mul = {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("z", "z"): "z"}
    return FinCategory.from_monoid(["1", "z"], mul, "1")


def s3_category():
    """Symmetric group on 3 letters as permutation tuples."""
    perms = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if {a, b, c} == {0, 1, 2}:
                    perms.append((a, b, c))
    mul = {}
    for g in perms:
        for f in perms:
            mul[(g, f)] = tuple(g[f[i]] for i in range(3))
    return FinCategory.from_monoid(perms, mul, (0, 1, 2))


def test_check_category_passes_on_monoid():
    assert check_category(idempotent_monoid_category()).ok
    assert check_category(z2_category()).ok


def test_check_category_missing_composite():
    objects = FinSet(["*"])
    morphisms = FinSet(["1", "z"])
    src = FinFn.constant(morphisms, objects, "*")
    tgt = FinFn.constant(morphisms, objects, "*")
    identities = FinFn(objects, morphisms, {"*": "1"})
    table = {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z"}
    broken = _trusted(FinCategory, objects, morphisms, src, tgt, identities,
                      table)
    report = check_category(broken)
    assert not report.ok
    assert ("missing composite", ("z", "z")) in report.failures
    with pytest.raises(CatError):
        FinCategory(objects, morphisms, src, tgt, identities, table)


def test_table_entry_on_an_atom_outside_the_morphisms():
    # An entry on an atom that is not a morphism is a violation with the
    # pair as witness, not a KeyError from reading the atom's endpoints.
    objects = FinSet(["*"])
    morphisms = FinSet(["1"])
    src = FinFn.constant(morphisms, objects, "*")
    tgt = FinFn.constant(morphisms, objects, "*")
    identities = FinFn(objects, morphisms, {"*": "1"})
    for stray in (("x", "1"), ("1", "x")):
        table = {("1", "1"): "1", stray: "1"}
        broken = _trusted(FinCategory, objects, morphisms, src, tgt,
                          identities, table)
        report = check_category(broken)
        assert report.failures == [
            ("table entry on non-composable pair", stray)]
        with pytest.raises(CatError, match="non-composable pair"):
            FinCategory(objects, morphisms, src, tgt, identities, table)


def test_indiscrete_category_and_groupoid():
    c = FinCategory.indiscrete(["x", "y"])
    assert len(c.morphisms) == 4
    assert check_category(c).ok
    assert is_groupoid(c)


@pytest.mark.parametrize("n", range(1, 7))
def test_indiscrete_equals_the_checked_construction(n):
    # indiscrete is held by its hom relation on a thin table; the
    # checked constructor, given the table written out by hand, must
    # accept it and build the same category, table included.
    objects = FinSet(["o%d" % i for i in range(n)])
    morphisms = FinSet([(x, y) for x in objects for y in objects])
    checked = FinCategory(
        objects, morphisms,
        FinFn(morphisms, objects, {(x, y): x for (x, y) in morphisms}),
        FinFn(morphisms, objects, {(x, y): y for (x, y) in morphisms}),
        FinFn(objects, morphisms, {x: (x, x) for x in objects}),
        {(g, f): (f[0], g[1]) for g in morphisms for f in morphisms
         if f[1] == g[0]})
    built = FinCategory.indiscrete(objects.elements)
    assert built == checked
    assert built.morphisms.elements == checked.morphisms.elements
    assert built.composition == checked.composition
    assert check_category(built).ok


def test_groupoid_detection():
    assert is_groupoid(z2_category())
    verdict = is_groupoid(idempotent_monoid_category())
    assert not verdict
    assert verdict.witness == "z"


def brute_inverse(c, m):
    """Every morphism of c scanned for a two-sided inverse of m."""
    found = [n for n in c.morphisms
             if c.composition.get((n, m)) == c.identities(c.src(m))
             and c.composition.get((m, n)) == c.identities(c.tgt(m))]
    assert len(found) <= 1
    return found[0] if found else None


def test_inverse_matches_a_brute_force_scan():
    # {1, g, z}: g is invertible, the absorbing z is not.
    elements = ["1", "g", "z"]
    mul = {(a, b): "z" if "z" in (a, b) else ("1" if a == b else "g")
           for a in elements for b in elements}
    mixed = FinCategory.from_monoid(elements, mul, "1")
    small = [z2_category(), idempotent_monoid_category(), mixed,
             FinCategory.indiscrete(["x", "y"]),
             FinCategory.discrete(["x", "y"])]
    cats = small + [s3_category(), FinCategory.indiscrete(["x", "y", "w"])]
    cats += [product_category(a, b) for a in small for b in small]
    for c in cats:
        for m in c.morphisms:
            assert c.inverse(m) == brute_inverse(c, m)
        assert bool(is_groupoid(c)) == \
            all(c.inverse(m) is not None for m in c.morphisms)
    assert mixed.inverse("g") == "g" and mixed.inverse("z") is None


def test_functor_validation():
    z2 = z2_category()
    flip = FunctorData(z2, z2, FinFn.identity(z2.objects),
                       FinFn.identity(z2.morphisms))
    assert flip.then(flip).omap == flip.omap
    bad_mmap = FinFn(z2.morphisms, z2.morphisms, {"e": "z", "z": "z"})
    with pytest.raises(CatError):
        FunctorData(z2, z2, FinFn.identity(z2.objects), bad_mmap)


def test_nat_trans_identity_is_iso():
    z2 = z2_category()
    f = FunctorData.identity(z2)
    n = NatTransData.identity(f)
    assert nat_is_iso(n)


def test_nat_trans_non_iso_witness():
    c = idempotent_monoid_category()
    f = FunctorData.identity(c)
    # z is a valid component for id => id since the monoid is commutative,
    # but it has no inverse
    n = NatTransData(f, f, {"*": "z"})
    verdict = nat_is_iso(n)
    assert not verdict
    assert verdict.witness == "*"


def s3_endofunctors(c):
    """All monoid endomorphisms of the one-object category c."""
    out = []
    unit = c.identities("*")
    morphisms = list(c.morphisms)
    def extend(assignment, remaining):
        if not remaining:
            out.append(dict(assignment))
            return
        m = remaining[0]
        for img in morphisms:
            assignment[m] = img
            if all(c.composition[(assignment[a], assignment[b])]
                   == assignment.get(c.composition[(a, b)], None)
                   for a in assignment for b in assignment
                   if c.composition[(a, b)] in assignment):
                extend(assignment, remaining[1:])
            del assignment[m]
    extend({unit: unit}, [m for m in morphisms if m != unit])
    fns = []
    for table in out:
        fns.append(FunctorData(c, c, FinFn.identity(c.objects),
                               FinFn(c.morphisms, c.morphisms, table)))
    return fns


def all_nats(c, functors):
    nats = []
    for F in functors:
        for G in functors:
            for a in c.morphisms:
                if all(c.composition[(a, F.mmap(m))] ==
                       c.composition[(G.mmap(m), a)] for m in c.morphisms):
                    nats.append(NatTransData(F, G, {"*": a}))
    return nats


def test_interchange_on_s3():
    c = s3_category()
    functors = s3_endofunctors(c)
    nats = all_nats(c, functors)
    rng = random.Random(7)
    by_source = {}
    for n in nats:
        by_source.setdefault(n.source, []).append(n)
    checked = 0
    while checked < 60:
        alpha = rng.choice(nats)
        beta = rng.choice(by_source.get(alpha.target, []))
        gamma = rng.choice(nats)
        delta = rng.choice(by_source.get(gamma.target, []))
        lhs = alpha.vcomp(beta).hcomp(gamma.vcomp(delta))
        rhs = alpha.hcomp(gamma).vcomp(beta.hcomp(delta))
        assert lhs == rhs
        checked += 1


def constant_functor(c, x):
    """The functor from the terminal category picking the object x."""
    return FunctorData(TERMINAL, c, FinFn(TERMINAL.objects, c.objects,
                                          {"*": x}),
                       FinFn(TERMINAL.morphisms, c.morphisms,
                             {("id", "*"): c.identities(x)}))


def test_vertical_composite_checks_its_boundary():
    c = FinCategory.indiscrete(["a", "b"])
    a, b = constant_functor(c, "a"), constant_functor(c, "b")
    n1 = NatTransData(a, b, {"*": ("a", "b")})
    n2 = NatTransData(a, b, {"*": ("a", "b")})
    with pytest.raises(CatError, match="boundary"):
        n1.vcomp(n2)
    back = NatTransData(b, a, {"*": ("b", "a")})
    assert n1.vcomp(back) == NatTransData.identity(a)


def test_lazy_category_probe_checks():
    q = BraidParam(2)
    k = unit_object()
    a = VObject([("x", 1), ("y", 0)])
    cat = vect_as_lazy_category(q, [k, a])
    assert cat.check_probes().ok


def test_pseudofunctor_unit_and_obj_action():
    q = BraidParam(1)
    k = unit_object()
    a = VObject.ungraded(["0", "1"])
    image = VectImageBackend(q, [k, a])
    # K tensor (-) acts as the identity on probes
    assert image.evaluate1(k, a) == a and image.evaluate1(k, k) == k
    # a 2-dim object doubles dimension
    assert image.evaluate1(a, a).dim == 4
    unit_obj, unit_iso = image.unit_compat()
    assert unit_obj == k
    assert unit_iso == VMorphism.identity(k)


def test_pseudofunctor_product_compat_invertible():
    q = BraidParam(2)
    p = VObject([("p", 1)])
    p2 = VObject([("r", 1), ("s", 0)])
    x = VObject([("x", 1)])
    y = VObject([("y", 2)])
    image = VectImageBackend(q, [x, y])
    comp = image.product_compat_component(p, p2, x, y)
    assert comp.dom == tensor_obj(tensor_obj(p, x), tensor_obj(p2, y))
    assert comp.cod == tensor_obj(tensor_obj(p, p2), tensor_obj(x, y))
    assert invert(comp)
    # the nontrivial block is the braiding of x past p2
    c = braiding(x, p2, q)
    assert comp[0, 0] == c[0, 0]


def test_empty_probe_list_rejected():
    with pytest.raises(CatError):
        vect_as_lazy_category(BraidParam(1), [])


# ---------------------------------------------------------------------------
# The bucketed joins against the nested scans they replace.


def unital_tables(n):
    """Every multiplication table on range(n) with unit 0, associative or
    not."""
    free = [(g, f) for g in range(1, n) for f in range(1, n)]
    for values in itertools.product(range(n), repeat=len(free)):
        mul = {(g, f): g or f for g in range(n) for f in range(n)}
        mul.update(zip(free, values))
        yield mul


def is_associative(mul, n):
    return all(mul[(mul[(h, g)], f)] == mul[(h, mul[(g, f)])]
               for h in range(n) for g in range(n) for f in range(n))


MONOID_TABLES = [(n, mul) for n in (1, 2, 3) for mul in unital_tables(n)
                 if is_associative(mul, n)]


@st.composite
def leaf_categories(draw):
    kind = draw(st.sampled_from(["table", "cyclic", "idempotent", "max",
                                 "indiscrete", "discrete"]))
    if kind == "indiscrete":
        return FinCategory.indiscrete(range(draw(st.integers(1, 2))))
    if kind == "discrete":
        return FinCategory.discrete(range(draw(st.integers(1, 3))))
    if kind == "table":
        n, mul = draw(st.sampled_from(MONOID_TABLES))
    else:
        n = draw(st.integers(1, 3))
        op = {"cyclic": lambda g, f: (g + f) % n,
              "idempotent": lambda g, f: g or f if 0 in (g, f) else g,
              "max": max}[kind]
        mul = {(g, f): op(g, f) for g in range(n) for f in range(n)}
    elements = draw(st.permutations(range(n)))
    return FinCategory.from_monoid(elements, mul, 0)


categories = st.one_of(leaf_categories(), st.builds(
    product_category, leaf_categories(), leaf_categories()))


def scanned_pairs(c):
    return [(g, f) for g in c.morphisms for f in c.morphisms
            if c.tgt(f) == c.src(g)]


def scanned_product_table(a, b):
    morphisms = FinSet.product(a.morphisms, b.morphisms)
    return {((g, h), (f, k)): (a.composition[(g, f)], b.composition[(h, k)])
            for (g, h) in morphisms for (f, k) in morphisms
            if a.tgt(f) == a.src(g) and b.tgt(k) == b.src(h)}


@settings(max_examples=100, deadline=None)
@given(categories, leaf_categories())
def test_category_joins_match_nested_scans(a, b):
    pairs = a.composable_pairs()
    assert pairs == tuple(scanned_pairs(a))
    assert a.composable_pairs() is pairs
    product = product_category(a, b)
    table = scanned_product_table(a, b)
    assert product.composition == table
    assert list(product.composition) == list(table)
    assert product.composable_pairs() == tuple(scanned_pairs(product))
    assert product.composable_pairs() is product.composable_pairs()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(n, mul) for n in (2, 3) for mul in unital_tables(n)]),
       st.data())
def test_associativity_failures_keep_the_nested_scan_order(table, data):
    n, mul = table
    elements = FinSet(data.draw(st.permutations(range(n))))
    one = FinSet(["*"])
    c = _trusted(FinCategory, one, elements,
                 FinFn.constant(elements, one, "*"),
                 FinFn.constant(elements, one, "*"),
                 FinFn(one, elements, {"*": 0}), mul)
    expected = [("associativity", (h, g, f)) for (g, f) in scanned_pairs(c)
                for h in c.morphisms if c.tgt(g) == c.src(h)
                and mul[(mul[(h, g)], f)] != mul[(h, mul[(g, f)])]]
    assert check_category(c).failures == expected


# ---------------------------------------------------------------------------
# check_category on morphism positions against the scan on morphisms.


def scanned_check_category(c):
    """The category axioms decided on the morphisms themselves, every
    lookup rehashing them: the oracle for check_category's positions."""
    report = CheckReport("category axioms")
    for x in c.objects:
        i = c.identities(x)
        if c.src(i) != x or c.tgt(i) != x:
            report.fail("identity endpoints", x)
    for (g, f) in c.composition:
        if g not in c.morphisms or f not in c.morphisms \
                or c.tgt(f) != c.src(g):
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


@settings(max_examples=150, deadline=None)
@given(categories, st.data())
def test_check_category_reports_as_the_scan_on_one_corrupted_composite(
        c, data):
    assert check_category(c).ok and scanned_check_category(c).ok
    table = dict(c.composition)
    pair = data.draw(st.sampled_from(c.composable_pairs()))
    # A morphism with the composite's endpoints, so that the laws are
    # decided, or any morphism, so that the gate may fail first.
    keep_endpoints = data.draw(st.booleans())
    pool = c.hom(c.src(pair[1]), c.tgt(pair[0])) if keep_endpoints \
        else c.morphisms.elements
    table[pair] = data.draw(st.sampled_from(pool))
    broken = _trusted(FinCategory, c.objects, c.morphisms, c.src, c.tgt,
                      c.identities, table)
    assert check_category(broken).failures == \
        scanned_check_category(broken).failures


# ---------------------------------------------------------------------------
# Functor composites, identities and products, built once per pair.


def kept(owner):
    """The entries of owner's memo (finset_span._kept), under every
    site: the other operands each one holds, and its result."""
    return [entry for site in (getattr(owner, "_memo", None) or {}).values()
            for entry in site.values()]


def fresh_composite(f, g):
    """g after f, tabulated through the checked constructor."""
    return FunctorData(
        f.dom, g.cod,
        FinFn(f.dom.objects, g.cod.objects,
              {x: g.omap(f.omap(x)) for x in f.dom.objects}),
        FinFn(f.dom.morphisms, g.cod.morphisms,
              {m: g.mmap(f.mmap(m)) for m in f.dom.morphisms}))


def test_composites_are_built_once_and_equal_a_fresh_build():
    c = s3_category()
    functors = s3_endofunctors(c)
    for f in functors:
        for g in functors:
            composite = f.then(g)
            assert f.then(g) is composite
            assert composite == fresh_composite(f, g)
    assert len(kept(functors[1])) == len(functors)


def test_composites_out_of_a_product_are_built_once_and_read_on_lookup():
    c = s3_category()
    functors = s3_endofunctors(c)
    rng = random.Random(3)
    for _ in range(12):
        p = product_functor(rng.choice(functors), rng.choice(functors))
        q = product_functor(rng.choice(functors), rng.choice(functors))
        composite = p.then(q)
        assert p.then(q) is composite
        assert isinstance(composite.mmap.assignment, ComposedMap)
        assert composite == fresh_composite(p, q)
        assert fresh_composite(p, q) == composite


def test_a_composite_with_an_identity_is_the_other_operand():
    c = s3_category()
    ident = FunctorData.identity(c)
    assert FunctorData.identity(c) is ident
    for g in s3_endofunctors(c):
        assert ident.then(g) is g and g.then(ident) is g
    assert not kept(ident)


def test_composing_after_the_unit_identity_keeps_no_memo_on_it():
    # The unit category lives as long as the process, and so does the
    # identity kept on it: a memo there would only grow.
    c = FinCategory.indiscrete(["a", "b"])
    ident = FunctorData.identity(TERMINAL)
    assert FunctorData.identity(TERMINAL) is ident
    for x in c.objects:
        point = constant_functor(c, x)
        assert ident.then(point) is point
        assert product_functor(ident, point) is product_functor(ident, point)
        assert product_functor(point, ident) is product_functor(point, ident)
    assert not kept(ident) and not kept(TERMINAL)


def test_a_product_after_an_identity_is_kept_on_the_other_operand():
    c = s3_category()
    functors = [g for g in s3_endofunctors(c)
                if g is not FunctorData.identity(c)]
    for ident in (FunctorData.identity(c), FunctorData.identity(TERMINAL)):
        for g in functors:
            product = product_functor(ident, g)
            assert product_functor(ident, g) is product
            assert ((ident,), product) in kept(g)
            apart = FunctorData(ident.dom, ident.dom, ident.omap, ident.mmap)
            assert product == product_functor(apart, g)
        assert not kept(ident)


def test_products_of_functors_are_shared_per_pair():
    functors = s3_endofunctors(s3_category())
    for p in functors:
        for q in functors:
            assert product_functor(p, q) is product_functor(p, q)
    # Keyed by the operand itself: an equal twin has a product of its own.
    p, q = functors[0], functors[-1]
    twin = FunctorData(q.dom, q.cod, q.omap, q.mmap)
    assert product_functor(p, twin) == product_functor(p, q)
    assert product_functor(p, twin) is not product_functor(p, q)


def componentwise_vcomp(first, second):
    """second after first, composed component by component and built
    through the checked constructor."""
    cod = first.source.cod
    return NatTransData(first.source, second.target, {
        x: cod.compose(second.components[x], first.components[x])
        for x in first.source.dom.objects})


def componentwise_hcomp(inner, outer):
    """outer o inner, composed component by component and built through
    the checked constructor."""
    F, G, H, K = inner.source, inner.target, outer.source, outer.target
    return NatTransData(fresh_composite(F, H), fresh_composite(G, K), {
        x: H.cod.compose(K.mmap(inner.components[x]),
                         outer.components[F.omap(x)])
        for x in F.dom.objects})


def same_components(n, m):
    objects = n.source.dom.objects
    return [n.components[x] for x in objects] == \
        [m.components[x] for x in objects]


def discrete_case():
    c = FinCategory.discrete(["a", "b"])
    swap = FunctorData(
        c, c, FinFn(c.objects, c.objects, {"a": "b", "b": "a"}),
        FinFn(c.morphisms, c.morphisms,
              {("id", "a"): ("id", "b"), ("id", "b"): ("id", "a")}))
    return [FunctorData.identity(c), swap], [
        NatTransData(swap, swap, {x: ("id", swap.omap(x)) for x in "ab"})]


def indiscrete_case():
    c = FinCategory.indiscrete(["a", "b", "c"])
    maps = [dict(zip("abc", images))
            for images in itertools.product("abc", repeat=3)][::4]
    functors = [FunctorData(
        c, c, FinFn(c.objects, c.objects, f),
        FinFn(c.morphisms, c.morphisms,
              {(x, y): (f[x], f[y]) for (x, y) in c.morphisms}))
        for f in maps]
    return functors, [NatTransData(f, g, {x: (f.omap(x), g.omap(x))
                                          for x in "abc"})
                      for f in functors for g in functors]


def monoid_functors(c):
    """The identity first, then every other endomorphism of c."""
    ident = FunctorData.identity(c)
    return [ident] + [f for f in s3_endofunctors(c) if f != ident]


def monoid_case():
    c = idempotent_monoid_category()
    functors = monoid_functors(c)
    return functors, all_nats(c, functors)


def product_case():
    a, b = idempotent_monoid_category(), s3_category()
    left, right = monoid_functors(a), monoid_functors(b)[:3]
    return ([product_functor(f, g) for f in left for g in right],
            [product_nat(n, m) for n in all_nats(a, left)
             for m in all_nats(b, right)[::7]])


# Endofunctors and transformations between them, with the identity
# transformation on each functor added; the monoid and the product are
# not thin, and carry non-identity endo-transformations.
SHORTCUT_CASES = {"discrete": discrete_case, "indiscrete": indiscrete_case,
                  "monoid": monoid_case, "product": product_case}


@pytest.mark.parametrize("case", sorted(SHORTCUT_CASES))
def test_identity_shortcuts_match_componentwise_composites(case):
    functors, nats = SHORTCUT_CASES[case]()
    nats += [NatTransData.identity(f) for f in functors]
    if case in ("monoid", "product"):
        assert any(n.source == n.target and not same_components(
            n, NatTransData.identity(n.source)) for n in nats)
    for F in functors:
        assert NatTransData.identity(F) is NatTransData.identity(F)
    for n in nats:
        before = NatTransData.identity(n.source)
        after = NatTransData.identity(n.target)
        assert before.vcomp(n) is n and n.vcomp(after) is n
        assert same_components(before.vcomp(n),
                               componentwise_vcomp(before, n))
        assert same_components(n.vcomp(after), componentwise_vcomp(n, after))
        for m in nats:
            if m.source == n.target:
                composite = n.vcomp(m)
                assert (composite.source, composite.target) == \
                    (n.source, m.target)
                assert same_components(composite, componentwise_vcomp(n, m))
            composite, fresh = n.hcomp(m), componentwise_hcomp(n, m)
            assert (composite.source, composite.target) == \
                (fresh.source, fresh.target)
            assert same_components(composite, fresh)
    for F in functors:
        for H in functors:
            both = NatTransData.identity(F).hcomp(NatTransData.identity(H))
            assert both is NatTransData.identity(F.then(H))
            assert same_components(both, componentwise_hcomp(
                NatTransData.identity(F), NatTransData.identity(H)))


def test_identity_shortcuts_keep_nothing_on_the_unit_identity():
    # Only the unit identity's own identity transformation is kept on
    # it, beside the mark of a value that owns no memo: composing with
    # it keeps no memo there.
    c = FinCategory.indiscrete(["a", "b"])
    ident = FunctorData.identity(TERMINAL)
    one = NatTransData.identity(ident)
    for x in c.objects:
        point = constant_functor(c, x)
        at = NatTransData.identity(point)
        assert one.hcomp(at) is at
        to = NatTransData(point, constant_functor(c, "b"),
                          {"*": (x, "b")})
        assert one.hcomp(to).components == to.components
        assert to.vcomp(NatTransData.identity(to.target)) is to
    assert set(vars(ident)) == {"dom", "cod", "omap", "mmap", "_id2",
                                "_memo"}
    assert not kept(ident)
    assert set(vars(one)) == {"source", "target", "components"}


def test_functor_and_transformation_equality_start_with_identity():
    c = s3_category()
    f = s3_endofunctors(c)[1]
    twin = FunctorData(f.dom, f.cod, f.omap, f.mmap)
    assert f == f and f == twin and twin == f and hash(twin) == hash(f)
    assert f != FunctorData.identity(c) and f != "f"
    n = NatTransData.identity(f)
    assert n == n and n == NatTransData(f, f, dict(n.components))
