import random

import pytest

from hopfspan import finset_span as fs
from hopfspan import spanv_core as sc
from hopfspan.finset_span import FinSet, FinFn, Span, SpanError, SpanMorphism
from hopfspan.vect_backend import (
    VObject, VMorphism, BraidParam, tensor_obj, tensor_mor, unit_object,
)
from hopfspan.cat_backend import (
    FinCategory, FunctorData, NatTransData, check_category,
)
from hopfspan.spanv_core import (
    SpanVError, VectBackend, CatBackend, Cell0, Cell1, Cell2,
    identity_cell1, identity_cell2, vcomp2, hcomp1, hcomp2,
    unit_cell0, tensor0, tensor1, tensor2,
    relabel_cell2, regroup, associator_cell2, left_unitor_cell2,
    right_unitor_cell2, interchange_cell2, invert_cell2, eq2,
    product_category, product_functor, product_nat,
    BackendFunctor, apply_span_F, vect_to_cat_functor,
)
from rand import (
    random_vect_cell0, random_vect_cell1, random_vect_cell2_from,
    random_composable_vect_cell1s, seeded,
)

V1 = VectBackend(BraidParam(1))
V2 = VectBackend(BraidParam(2))


def singleton_cell0(backend):
    return unit_cell0(backend)


def group_algebra_cell1(backend, labels, x=None):
    """A 1-cell over the singleton carrier (the unit 0-cell unless x is
    given) with one apex point per label."""
    x = singleton_cell0(backend) if x is None else x
    apex = FinSet(list(labels))
    span = Span(x.carrier, x.carrier, apex,
                FinFn.constant(apex, x.carrier, "*"),
                FinFn.constant(apex, x.carrier, "*"))
    return Cell1(backend, x, x, span, dict(labels))


def test_cell1_rejects_bad_boundary():
    be = CatBackend()
    z2 = FinCategory.indiscrete(["x", "y"])
    one = FinCategory.discrete(["*"])
    carrier = FinSet(["p"])
    x = Cell0(be, carrier, {"p": z2})
    apex = FinSet(["c"])
    span = Span(carrier, carrier, apex,
                FinFn.constant(apex, carrier, "p"),
                FinFn.constant(apex, carrier, "p"))
    wrong = FunctorData.identity(one)
    with pytest.raises(SpanVError) as err:
        Cell1(be, x, x, span, {"c": wrong})
    assert "'c'" in str(err.value)


def test_cell2_rejects_a_morphism_between_other_spans():
    one = VObject.ungraded(["e"])
    a = group_algebra_cell1(V1, {"g": one})
    b = group_algebra_cell1(V1, {"h": one})
    with pytest.raises(SpanVError,
                       match="span morphism endpoints do not match labels"):
        Cell2(a, a, SpanMorphism.identity(b.span),
              {"g": VMorphism.identity(one)})


def test_cell_equality_is_by_value():
    """Equal but distinct 0- and 1-cells compare equal, one changed label
    makes them unequal, and a cell equals itself."""
    be = CatBackend()
    z2 = FinCategory.indiscrete(["x", "y"])
    one = FinCategory.discrete(["*"])
    carrier = FinSet(["p", "q"])
    x = Cell0(be, carrier, {"p": z2, "q": one})
    twin = Cell0(be, carrier, {"p": FinCategory.indiscrete(["x", "y"]),
                               "q": one})
    assert x == x and x == twin and twin == x
    assert x != Cell0(be, carrier, {"p": z2, "q": z2})
    apex = FinSet(["c"])
    span = Span(carrier, carrier, apex, FinFn.constant(apex, carrier, "p"),
                FinFn.constant(apex, carrier, "p"))
    f = Cell1(be, x, x, span, {"c": FunctorData.identity(z2)})
    g = Cell1(be, twin, twin, span, {"c": FunctorData.identity(z2)})
    assert f == f and f == g and g == f
    flip = {"x": "y", "y": "x"}
    swap = FunctorData(z2, z2, FinFn(z2.objects, z2.objects, flip),
                       FinFn(z2.morphisms, z2.morphisms,
                             {(s, t): (flip[s], flip[t])
                              for (s, t) in z2.morphisms}))
    assert f != Cell1(be, x, x, span, {"c": swap})
    # The unit 0-cell is one per backend: equal 0-cells built apart.
    a, b = (group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])},
                                Cell0(V1, FinSet.singleton(), {"*": "*"}))
            for _ in range(2))
    assert a is not b and a == b and a.src is not b.src and a.src == b.src
    assert a != group_algebra_cell1(V1, {"g": VObject.ungraded(["e"])})


def test_vcomp2_pointwise_and_identity():
    rng = seeded(3)
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    u = random_vect_cell2_from(rng, a)
    ident = identity_cell2(a)
    assert eq2(vcomp2(ident, u), u)
    v = random_vect_cell2_from(rng, u.source)
    w = vcomp2(u, v)
    for c in v.source.span.apex:
        expected = u.components[v.morphism.map(c)].compose(v.components[c])
        assert w.components[c] == expected


def test_vcomp2_with_inverse_gives_identity():
    x = singleton_cell0(V1)
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    flip = VMorphism(a.label["g"], a.label["g"], [[0, 1], [1, 0]])
    u = Cell2(a, a, SpanMorphism.identity(a.span), {"g": flip})
    res = invert_cell2(u)
    assert res
    assert eq2(vcomp2(res.inverse, u), identity_cell2(a))


def test_invert_cell2_names_two_atoms_a_relabeling_merges():
    one = VObject.ungraded(["e"])
    two = group_algebra_cell1(V1, {"g": one, "h": one})
    merged = group_algebra_cell1(V1, {"k": one})
    res = invert_cell2(relabel_cell2(two, merged, lambda c: "k"))
    assert not res and res.inverse is None
    assert res.witness == ("span map not injective", ("g", "h"))


def test_hcomp1_labels_tensor_dimensions():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    b = group_algebra_cell1(V1, {"h": VObject.ungraded(["0", "1", "2"])})
    c = hcomp1(b, a)
    assert len(c.span.apex) == 1
    assert c.label[("h", "g")].dim == 6


def test_hcomp1_identity_up_to_unitor():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    lu = left_unitor_cell2(a)
    ru = right_unitor_cell2(a)
    assert invert_cell2(lu) and invert_cell2(ru)
    assert lu.target == a and ru.target == a


def test_hcomp2_kronecker_oracle():
    rng = seeded(5)
    a = group_algebra_cell1(V2, {"g": VObject([("x", 1), ("y", 0)])})
    b = group_algebra_cell1(V2, {"h": VObject([("u", 2)])})
    f = random_vect_cell2_from(rng, a)
    g = random_vect_cell2_from(rng, b)
    gf = hcomp2(g, f)
    for (d, c) in gf.source.span.apex:
        assert gf.components[(d, c)] == tensor_mor(g.components[d],
                                                   f.components[c])


def test_tensor_cells_and_unit():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e"])})
    u = unit_cell0(V1)
    t = tensor0(a.src, u)
    assert len(t.carrier) == 1
    ta = tensor1(a, identity_cell1(u))
    assert ta.label[("g", "*")] == a.label["g"]
    id2 = tensor2(identity_cell2(a), identity_cell2(identity_cell1(u)))
    assert all(m.is_permutation() for m in id2.components.values())


def test_eq2_perturbed_entry_witness():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    u = identity_cell2(a)
    bad_mat = VMorphism(a.label["g"], a.label["g"], [[1, 1], [0, 1]])
    v = Cell2(a, a, SpanMorphism.identity(a.span), {"g": bad_mat})
    verdict = eq2(u, v)
    assert not verdict
    kind, apex_elem, pos = verdict.witness
    assert kind == "component" and apex_elem == "g" and pos == (0, 1)


def perturbed(u, atoms):
    """u with the (0, 0) entry of its component at each of atoms moved
    by one."""
    comps = dict(u.components)
    for c in atoms:
        rows = [list(row) for row in comps[c].entries]
        rows[0][0] += 1
        comps[c] = VMorphism(comps[c].dom, comps[c].cod, rows)
    return Cell2(u.source, u.target, u.morphism, comps)


def eq2_cases(seed):
    """Parallel 2-cells that eq2 decides: a random cell against itself,
    against a copy, and perturbed at its first atom and at every atom;
    a cell perturbed at one entry; and two cells whose span maps
    differ."""
    rng = seeded(seed)
    (a,) = random_composable_vect_cell1s(rng, V2, 1)
    u = random_vect_cell2_from(rng, a)
    atoms = u.source.span.apex.elements
    cases = [(u, u), (u, Cell2(u.source, u.target, u.morphism,
                               dict(u.components)))]
    if atoms:
        cases += [(u, perturbed(u, atoms[:1])), (u, perturbed(u, atoms))]
    g = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    cases.append((identity_cell2(g), perturbed(identity_cell2(g), ["g"])))
    x = VObject.ungraded(["e"])
    twin, one = (group_algebra_cell1(V1, labels)
                 for labels in ({"g": x, "h": x}, {"s": x}))
    apexes = one.span.apex, twin.span.apex
    cases.append(tuple(Cell2(one, twin, SpanMorphism(
        one.span, twin.span, FinFn(*apexes, {"s": image})),
        {"s": VMorphism.identity(x)}) for image in "gh"))
    return cases


@pytest.mark.parametrize("seed", range(8))
def test_the_atom_walk_starts_at_the_eq2_witness(seed):
    for u, v in eq2_cases(seed):
        walk = list(sc.differences2(u, v))
        verdict = eq2(u, v)
        assert bool(verdict) == (walk == [])
        assert walk[:1] == ([] if verdict else [verdict.witness])


def test_the_atom_walk_lists_every_differing_atom():
    labels = {k: VObject.ungraded(["e", "z", "w"][:n])
              for n, k in enumerate("ghkl", 1)}
    u = identity_cell2(group_algebra_cell1(V1, labels))
    v = perturbed(u, ["g", "k", "l"])
    walk = list(sc.differences2(u, v))
    assert [w[:2] for w in walk] == [("component", c) for c in "gkl"]
    assert [w[2] for w in walk] == [(0, 0)] * 3
    assert eq2(u, v).witness == walk[0]
    assert list(sc.differences2(u, u)) == []


def test_eq2_requires_invertible_transport():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    collapse = VMorphism(a.label["g"], a.label["g"], [[1, 1], [0, 0]])
    t = Cell2(a, a, SpanMorphism.identity(a.span), {"g": collapse})
    with pytest.raises(SpanVError):
        eq2(identity_cell2(a), identity_cell2(a), transport=[t])


def test_associator_and_transport_random():
    rng = seeded(11)
    for _ in range(25):
        c, b, a = random_composable_vect_cell1s(rng, V2, 3)
        al = associator_cell2(c, b, a)
        assert invert_cell2(al)
        lhs = hcomp1(hcomp1(c, b), a)
        rhs = hcomp1(c, hcomp1(b, a))
        moved = vcomp2(al, identity_cell2(lhs))
        assert eq2(moved, relabel_cell2(lhs, rhs, al.morphism.map))


def test_relabel_cell2_validates_its_map():
    carrier = FinSet(["p", "q"])
    x = Cell0(V1, carrier, {"p": "*", "q": "*"})

    def cell(at, labels):
        apex = FinSet(list(labels))
        span = Span(carrier, carrier, apex, FinFn.constant(apex, carrier, at),
                    FinFn.constant(apex, carrier, at))
        return Cell1(V1, x, x, span, labels)

    one, two = VObject.ungraded(["e"]), VObject.ungraded(["e", "z"])
    a = cell("p", {"g": one})
    assert relabel_cell2(a, cell("p", {"h": one}), {"g": "h"}.get)
    with pytest.raises(SpanError):
        relabel_cell2(a, cell("p", {"h": one}), lambda c: "nowhere")
    with pytest.raises(SpanError):
        relabel_cell2(a, cell("q", {"h": one}), lambda c: "h")
    with pytest.raises(SpanVError):
        relabel_cell2(a, cell("p", {"h": two}), lambda c: "h")


def test_a_horizontal_composite_read_through_a_rebracketing():
    # hcomp2 from (s o b) o a, each atom read as a pair through regroup,
    # is g o f after the associator (s o b) o a => s o (b o a), both
    # into the image of their atoms.
    rng, built = seeded(29), 0
    while built < 10:
        c, b, a = random_composable_vect_cell1s(rng, V2, 3)
        g, f = random_vect_cell2_from(rng, c), identity_cell2(hcomp1(b, a))
        al = associator_cell2(g.source, b, a)
        read = hcomp2(g, f, source=al.source, via=regroup)
        assert read.source is al.source
        assert eq2(read, vcomp2(hcomp2(g, f, source=al.target), al))
        built += len(al.source.span.apex) > 0


def test_associator_cell_builds_four_pullbacks(monkeypatch):
    # The cell sits on its own two composites: two pullbacks each.
    calls = []
    for module in (fs, sc):
        def counted(b, a, pairs=None, _original=module.compose_spans):
            calls.append((b, a))
            return _original(b, a, pairs)
        monkeypatch.setattr(module, "compose_spans", counted)
    c, b, a = random_composable_vect_cell1s(seeded(23), V1, 3)
    associator_cell2(c, b, a)
    assert len(calls) == 4


def test_interchange_law_of_compositions():
    rng = seeded(13)
    for _ in range(20):
        b, a = random_composable_vect_cell1s(rng, V2, 2)
        f1 = random_vect_cell2_from(rng, a)
        g1 = random_vect_cell2_from(rng, b)
        f2 = random_vect_cell2_from(rng, f1.source)
        g2 = random_vect_cell2_from(rng, g1.source)
        lhs = vcomp2(hcomp2(g1, f1), hcomp2(g2, f2))
        rhs = hcomp2(vcomp2(g1, g2), vcomp2(f1, f2))
        assert eq2(lhs, rhs)


def test_interchange_cell_invertible_and_braided():
    rng = seeded(17)
    x = singleton_cell0(V2)
    f = group_algebra_cell1(V2, {"f": VObject([("a", 1)])})
    g = group_algebra_cell1(V2, {"g": VObject([("b", 1)])})
    h = group_algebra_cell1(V2, {"h": VObject([("c", 1)])})
    k = group_algebra_cell1(V2, {"k": VObject([("d", 0)])})
    xi = interchange_cell2(f, g, h, k)
    assert invert_cell2(xi)
    comp = next(iter(xi.components.values()))
    # the braiding of grade-1 against grade-1 contributes a factor of 2
    assert any(e == 2 for row in comp.entries for e in row)


def reindex_cell1(a, new_src, new_tgt, src_iso, tgt_iso):
    """Transport a 1-cell along carrier bijections of its boundary 0-cells.

    src_iso: new_src.carrier -> a.src.carrier and likewise for tgt_iso;
    labels must match along the bijections.  The apex and its labels are
    untouched, only the legs are re-aimed.
    """
    be = a.backend
    for x in new_src.carrier:
        if not be.eq0(new_src.label[x], a.src.label[src_iso(x)]):
            raise SpanVError("source labels differ along reindexing at %r" % (x,))
    for y in new_tgt.carrier:
        if not be.eq0(new_tgt.label[y], a.tgt.label[tgt_iso(y)]):
            raise SpanVError("target labels differ along reindexing at %r" % (y,))
    left = tgt_iso.inverse().compose(a.span.left)
    right = src_iso.inverse().compose(a.span.right)
    span = Span(new_src.carrier, new_tgt.carrier, a.span.apex, left, right)
    return Cell1(be, new_src, new_tgt, span, dict(a.label))


def tensor_associator_cell2(a, b, c):
    """(a . b) . c => a . (b . c), identity components.

    The boundary carriers (X x Y) x Z and X x (Y x Z) differ as sets, so
    the left side is first moved along the evident regrouping bijections;
    the resulting cell is then a pure apex relabeling.
    """
    lhs = tensor1(tensor1(a, b), c)
    rhs = tensor1(a, tensor1(b, c))

    def ungroup(new, old):
        return FinFn(new, old, {(x, (y, z)): ((x, y), z)
                                for (x, (y, z)) in new})

    moved = reindex_cell1(lhs, rhs.src, rhs.tgt,
                          ungroup(rhs.src.carrier, lhs.src.carrier),
                          ungroup(rhs.tgt.carrier, lhs.tgt.carrier))
    return relabel_cell2(moved, rhs, regroup)


def identity_functor(backend):
    """The identity base functor, with identity comparison cells."""
    return BackendFunctor(backend, backend,
                          map0=lambda x: x, map1=lambda p: p,
                          map2=lambda f: f,
                          comparison=lambda p, q: backend.id2(
                              backend.comp1(p, q)))


def test_tensor_associator_identity_components():
    rng = seeded(19)
    x0 = random_vect_cell0(rng, V1)
    y0 = random_vect_cell0(rng, V1)
    a = random_vect_cell1(rng, V1, x0, y0)
    b = random_vect_cell1(rng, V1, x0, y0)
    c = random_vect_cell1(rng, V1, x0, y0)
    al = tensor_associator_cell2(a, b, c)
    assert invert_cell2(al)
    for comp in al.components.values():
        assert comp.is_permutation()


def test_reindex_cell1_round_trip():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e"])})
    renamed = FinSet(["pt"])
    new0 = Cell0(V1, renamed, {"pt": "*"})
    iso = FinFn(renamed, a.src.carrier, {"pt": "*"})
    moved = reindex_cell1(a, new0, new0, iso, iso)
    assert moved.span.left("g") == "pt"
    back = reindex_cell1(moved, a.src, a.tgt, iso.inverse(), iso.inverse())
    assert back == a


def test_product_category_is_valid():
    z2 = FinCategory.indiscrete(["x", "y"])
    p = product_category(z2, z2)
    assert check_category(p).ok
    assert len(p.objects) == 4 and len(p.morphisms) == 16


def test_product_category_is_built_once_per_pair():
    a = FinCategory.indiscrete(["x", "y"])
    b = FinCategory.discrete(["u", "v"])
    twin = FinCategory.discrete(["u", "v"])
    p = product_category(a, b)
    assert product_category(a, b) is p
    # A separately built left operand has an empty cache: a fresh build.
    fresh = product_category(FinCategory.indiscrete(["x", "y"]), twin)
    assert fresh is not p
    assert product_category(a, twin) == fresh
    assert list(product_category(a, twin).composition) == \
        list(fresh.composition)
    ida, idb = FunctorData.identity(a), FunctorData.identity(b)
    f = product_functor(ida, idb)
    assert f.dom is p and f.cod is p
    assert f == FunctorData.identity(fresh)
    flip = {"x": "y", "y": "x"}
    swap = FunctorData(a, a, FinFn(a.objects, a.objects, flip),
                       FinFn(a.morphisms, a.morphisms,
                             {(s, t): (flip[s], flip[t])
                              for (s, t) in a.morphisms}))
    assert product_functor(swap, idb) != f
    n = product_nat(NatTransData.identity(ida), NatTransData.identity(idb))
    assert n == NatTransData.identity(FunctorData.identity(fresh))
    to_swap = NatTransData(ida, swap, {x: (x, flip[x]) for x in a.objects})
    assert product_nat(to_swap, NatTransData.identity(idb)) != n


def test_cat_backend_cells_compose():
    be = CatBackend()
    z2 = FinCategory.indiscrete(["x", "y"])
    carrier = FinSet(["p"])
    x = Cell0(be, carrier, {"p": z2})
    apex = FinSet(["c"])
    span = Span(carrier, carrier, apex,
                FinFn.constant(apex, carrier, "p"),
                FinFn.constant(apex, carrier, "p"))
    f = Cell1(be, x, x, span, {"c": FunctorData.identity(z2)})
    ff = hcomp1(f, f)
    assert ff.label[("c", "c")] == FunctorData.identity(z2)


def test_apply_span_identity_functor():
    a = group_algebra_cell1(V1, {"g": VObject.ungraded(["e", "z"])})
    F = identity_functor(V1)
    assert apply_span_F(F, a) == a


def test_apply_span_vect_to_cat():
    q = BraidParam(1)
    probes = [unit_object(), VObject.ungraded(["0", "1"])]
    F, image = vect_to_cat_functor(q, probes)
    p = VObject.ungraded(["u", "v"])
    a = group_algebra_cell1(VectBackend(q), {"g": p})
    moved = apply_span_F(F, a)
    assert moved.label["g"] == p
    # pointwise action on a probe doubles the dimension
    evaluated = image.evaluate1(moved.label["g"], probes[1])
    assert evaluated.dim == 4
    # composing the functors composes their objects
    composed = image.comp1(moved.label["g"], moved.label["g"])
    assert composed == tensor_obj(p, p)
    # the comparison cell is an identity and hence invertible
    comparison = F.comparison(moved.label["g"], moved.label["g"])
    inv, _ = image.invert2(comparison)
    assert inv is not None
