import dataclasses
from fractions import Fraction

import pytest

from hopfspan import monoidale_duoidal as md
from hopfspan import spanv_core as sc
from hopfspan.finset_span import FinSet, FinFn, Span, SpanMorphism
from hopfspan.vect_backend import (
    BraidParam, VObject, VMorphism, grouplike, invert, tensor_obj,
    unit_object,
)
from hopfspan.cat_backend import FinCategory, FunctorData
from hopfspan.spanv_core import (
    SpanVError, VectBackend, CatBackend, Cell0, Cell1, Cell2,
    identity_cell1, identity_cell2, vcomp2, hcomp1, hcomp2, tensor1, tensor2,
    relabel_cell2, left_unitor_cell2, right_unitor_cell2, invert_cell2, eq2,
)
from hopfspan.monoidale_duoidal import (
    MonoidaleData, induced_monoidale, check_monoidale,
    unique_relabel_cell2,
    opmap_adjunctions, check_adjunction_triangles,
    frobenius_comparison_cells, check_frobenius,
    star1, star2, complete_unit_cell1, star_associator_cell2,
    star_left_unitor_cell2, star_right_unitor_cell2,
    duoidal_units, duoidal_interchange, check_duoidal,
    ComonoidLabeledCell, check_comonoid, comonoid_cells,
    grouplike_comonoid,
    zunino_braiding, zunino_check,
)
import frobenius_oracle
from rand import (
    seeded, random_span, random_vect_cell1, random_vect_cell2_from,
    random_vobject,
)

V1 = VectBackend(BraidParam(1))
V2 = VectBackend(BraidParam(2))
C = CatBackend()


def carrier(n):
    return FinSet(["x%d" % k for k in range(n)])


def vect_base(be, X):
    return Cell0(be, X, {x: "*" for x in X})


def complete_cell1(be, base, dims):
    """An endo 1-cell on the complete span with ungraded labels of the
    given dimensions, one per apex pair in order."""
    span = Span.complete(base.carrier, base.carrier)
    label = {c: VObject.ungraded(["b%d_%d" % (k, i) for i in range(d)])
             for k, (c, d) in enumerate(zip(span.apex, dims))}
    return Cell1(be, base, base, span, label)


def graded_endo_cell2(rng, cell):
    """A random endo 2-cell whose components only mix equal grades."""
    comps = {}
    for h in cell.span.apex:
        p = cell.label[h]
        comps[h] = VMorphism(p, p, [
            [Fraction(rng.randint(-2, 2))
             if p.basis[r][1] == p.basis[c][1] else Fraction(0)
             for c in range(p.dim)]
            for r in range(p.dim)])
    return Cell2(cell, cell, SpanMorphism.identity(cell.span), comps)


# ---------------------------------------------------------------------------
# The induced monoid object and its coherence.


def test_induced_monoidale_spans():
    X = carrier(2)
    mon = induced_monoidale(X, V1)
    assert mon.m.span.apex == X
    for x in X:
        assert mon.m.span.left(x) == x
        assert mon.m.span.right(x) == (x, x)
    assert mon.u.span.apex == X
    for x in X:
        assert mon.u.span.left(x) == x
        assert mon.u.span.right(x) == "*"


def test_monoidale_coherence_small_carriers():
    for n in range(4):
        X = carrier(n)
        for be in (V1, V2, C):
            report = check_monoidale(induced_monoidale(X, be))
            assert report.ok, report.summary()


def test_monoidale_rejects_bad_boundary():
    X = carrier(1)
    mon = induced_monoidale(X, V1)
    with pytest.raises(SpanVError):
        MonoidaleData(mon.base, mon.u, mon.u, mon.alpha, mon.lam, mon.rho)


def test_check_monoidale_flags_corrupted_alpha():
    X = carrier(2)
    mon = induced_monoidale(X, V1)
    zeroed = Cell2(mon.alpha.source, mon.alpha.target, mon.alpha.morphism,
                   {c: f.scale(0) for c, f in mon.alpha.components.items()})
    report = check_monoidale(dataclasses.replace(mon, alpha=zeroed))
    assert not report.ok
    laws = [law for law, _ in report.failures]
    assert "alpha invertible" in laws
    assert "alpha canonical" in laws


def test_unique_relabel_needs_a_unique_match():
    X = carrier(1)
    base = vect_base(V1, X)
    doubled = Cell1(V1, base, base,
                    Span(X, X, FinSet(["c1", "c2"]),
                         FinFn.constant(FinSet(["c1", "c2"]), X, "x0"),
                         FinFn.constant(FinSet(["c1", "c2"]), X, "x0")),
                    {"c1": "*", "c2": "*"})
    with pytest.raises(SpanVError) as err:
        unique_relabel_cell2(identity_cell1(base), doubled)
    assert str(err.value) == "2 leg matches at 'x0', need exactly one"
    X = carrier(2)
    base = vect_base(V1, X)
    complete = complete_cell1(V1, base, [1, 1, 1, 1])
    with pytest.raises(SpanVError) as err:
        unique_relabel_cell2(complete, identity_cell1(base))
    assert str(err.value) == \
        "0 leg matches at ('x0', 'x1'), need exactly one"


# ---------------------------------------------------------------------------
# Adjunctions and the Frobenius comparison.


def test_adjunction_triangles_small_carriers():
    for n in range(5):
        report = check_adjunction_triangles(opmap_adjunctions(carrier(n), V1))
        assert report.ok, report.summary()
    report = check_adjunction_triangles(opmap_adjunctions(carrier(2), C))
    assert report.ok, report.summary()


def test_frobenius_comparison_boundary():
    """Both comparison cells run between cells presented on the span
    X.X <- X -> X.X whose legs are both the diagonal."""
    X = carrier(2)
    adj = opmap_adjunctions(X, V1)
    left, right = frobenius_comparison_cells(adj)
    diag = [(x, x) for x in X]
    for cell in left + right:
        assert list(cell.source.span.apex) == diag
        for c in cell.source.span.apex:
            assert cell.source.span.left(c) == c
            assert cell.source.span.right(c) == c
        assert len(cell.target.span.apex) == len(X)
        for c in cell.target.span.apex:
            assert cell.target.span.left(c) in diag
            assert cell.target.span.left(c) == cell.target.span.right(c)


def test_frobenius_small_carriers():
    for n in range(5):
        report = check_frobenius(carrier(n), V1)
        assert report.ok, report.summary()
    for n in (1, 2):
        report = check_frobenius(carrier(n), C)
        assert report.ok, report.summary()


def test_frobenius_conventions_agree_literally():
    adj = opmap_adjunctions(carrier(3), V1)
    for a, b in frobenius_comparison_cells(adj):
        assert eq2(a, b)


def test_frobenius_builds_each_side_once(monkeypatch):
    # Both mate conventions read one prefix and one list of core steps
    # per side: two of each per check, one per side.
    calls = {"_frobenius_shared_prefix": 0, "_core_steps": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(md, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(md, name, counted)
    report = check_frobenius(carrier(2), V1)
    assert report.ok, report.summary()
    assert calls == {"_frobenius_shared_prefix": 2, "_core_steps": 2}


@pytest.mark.parametrize("backend", [V1, C], ids=["vect", "cat"])
@pytest.mark.parametrize("n", [1, 2])
def test_frobenius_inverts_only_the_cells_it_derives(n, backend, monkeypatch,
                                                     in_checking_mode):
    # The triangles, the prefix and the core steps build the inverses of
    # associators and unitors directly, as relabelings, and every 2-cell
    # along an atom map is built by cell2_along, without the checked Cell2
    # constructor (it runs Cell2's checks on the value it builds): left to
    # invert are the two interchange cells, the reversed coherence and
    # one comparison cell per side, since the two conventions agree (7
    # with every comparison cell inverted, 23 inversions and 61 checked
    # 2-cells before that).  In checking mode every trusted build runs
    # the checked constructor, so Cell2 is counted on the trusted path
    # only.
    calls = {"invert_cell2": 0, "Cell2": 0}

    def counted_invert(u, _original=md.invert_cell2):
        calls["invert_cell2"] += 1
        return _original(u)

    def counted_init(self, *args, _original=Cell2.__init__):
        calls["Cell2"] += 1
        _original(self, *args)
    monkeypatch.setattr(md, "invert_cell2", counted_invert)
    monkeypatch.setattr(Cell2, "__init__", counted_init)
    report = check_frobenius(carrier(n), backend)
    assert report.ok, report.summary()
    assert calls["invert_cell2"] == 5
    assert in_checking_mode or calls["Cell2"] == 0


@pytest.mark.parametrize("backend", [V1, C], ids=["vect", "cat"])
@pytest.mark.parametrize("n", [1, 2])
def test_frobenius_compares_its_0_cells_by_identity(n, backend,
                                                    monkeypatch):
    # The adjoints are built on the monoidale's own 0-cells, and the
    # unit 0-cell once per backend, so the composites of m with m_star
    # meet the same carrier and square, and every 0-cell comparison is
    # of one object with itself (100 before, then 3 with a unit 0-cell
    # built again at each use).
    calls = {"equal": 0}

    def counted_eq(self, other, _original=Cell0.__eq__):
        calls["equal"] += self is not other
        return _original(self, other)
    monkeypatch.setattr(Cell0, "__eq__", counted_eq)
    report = check_frobenius(carrier(n), backend)
    assert report.ok, report.summary()
    assert calls["equal"] == 0


def restricted_prefix(adj, mirrored, target):
    """A side's prefix chain, landed in target."""
    return sc._landed(md._frobenius_shared_prefix(adj, mirrored), target)


@pytest.mark.parametrize("backend", [V1, C], ids=["vect", "cat"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restricted_frobenius_cells_match_the_unrestricted_oracle(n, backend):
    # The triangles and the comparison cells run between whole 1-cells,
    # so they equal the oracle's; a prefix equals the oracle's on the
    # sub-span of its target that it reaches.
    adj = opmap_adjunctions(carrier(n), backend)
    for left, right, unit, counit in (
            (adj.m_star, adj.m, adj.m_unit, adj.m_counit),
            (adj.u_star, adj.u, adj.u_unit, adj.u_counit)):
        assert md._triangle_left(left, right, unit, counit) == \
            frobenius_oracle.triangle_left(left, right, unit, counit)
        assert md._triangle_right(left, right, unit, counit) == \
            frobenius_oracle.triangle_right(left, right, unit, counit)
    for mirrored in (False, True):
        whole = frobenius_oracle.onto_image(
            frobenius_oracle.shared_prefix(adj, mirrored)[0])
        assert len(whole.target.span.apex) == n
        assert restricted_prefix(adj, mirrored, whole.target) == whole
    sides = frobenius_comparison_cells(adj)
    for cells, whole in zip(sides,
                            frobenius_oracle.frobenius_comparison_cells(adj)):
        for cell, expected in zip(cells, whole):
            assert cell == expected


@pytest.mark.parametrize("name", ["m_counit", "m_unit", "u_counit",
                                  "u_unit"])
def test_a_corrupted_adjunction_fails_as_the_unrestricted_check_does(name):
    # One component zeroed at one point of a 3-point carrier: the same
    # laws fail, with the same witnesses, as when every chain is built
    # whole and both conventions are inverted.
    X = carrier(3)
    adj = opmap_adjunctions(X, V1)
    good = getattr(adj, name)
    point = good.source.span.apex.elements[1]
    bad = Cell2(good.source, good.target, good.morphism, {
        c: f.scale(0) if c == point else f
        for c, f in good.components.items()})
    broken = dataclasses.replace(adj, **{name: bad})
    report = check_frobenius(X, V1, broken)
    assert not report.ok
    assert report.failures == frobenius_oracle.check_frobenius(broken).failures
    laws = {law for law, _ in report.failures}
    assert {name[0] + "-adjunction left triangle",
            name[0] + "-adjunction right triangle"} <= laws
    assert ("left comparison invertible (unit-first)" in laws) == \
        name.startswith("m")


def test_a_given_adjunction_is_compared_with_its_boundaries():
    # The chains take each unit, counit and alpha to run between the
    # 1-cells opmap_adjunctions gives them, and are built only on the
    # atoms their source reaches: the unit of u in place of the unit of
    # m runs into u o u_star, which agrees with m o m_star on every atom
    # the chains reach.  So a given adjunction is compared with those
    # 1-cells first: check_frobenius reports a mismatch as the failed
    # comparison construction, as the unrestricted check does for the
    # counit and alpha below, and the other two entry points raise.
    X = carrier(2)
    adj = opmap_adjunctions(X, V1)
    mismatch = [("comparison construction",
                 "vertical composition boundary mismatch")]
    unit_off = dataclasses.replace(adj, m_unit=adj.u_unit)
    counit_off = dataclasses.replace(adj, m_counit=identity_cell2(
        adj.m_counit.source))
    alpha_off = dataclasses.replace(adj, alpha=identity_cell2(
        adj.alpha.source))
    for broken in (counit_off, alpha_off):
        assert frobenius_oracle.check_frobenius(broken).failures == mismatch
    with pytest.raises(SpanVError, match="boundary mismatch"):
        frobenius_oracle.check_frobenius(unit_off)
    for broken in (unit_off, counit_off, alpha_off):
        assert check_frobenius(X, V1, broken).failures == mismatch
        with pytest.raises(SpanVError, match="boundary mismatch"):
            frobenius_comparison_cells(broken)
    for broken in (unit_off, counit_off):
        with pytest.raises(SpanVError, match="boundary mismatch"):
            check_adjunction_triangles(broken)
    assert check_adjunction_triangles(alpha_off).ok


def test_frobenius_locates_corrupted_unit():
    X = carrier(2)
    adj = opmap_adjunctions(X, V1)
    zeroed = Cell2(adj.m_unit.source, adj.m_unit.target, adj.m_unit.morphism,
                   {c: f.scale(0) for c, f in adj.m_unit.components.items()})
    report = check_frobenius(X, V1, dataclasses.replace(adj, m_unit=zeroed))
    assert not report.ok
    laws = [law for law, _ in report.failures]
    assert any(law.startswith("m-adjunction") for law in laws)
    assert any("comparison invertible" in law for law in laws)


# ---------------------------------------------------------------------------
# Convolution.


def test_star_of_complete_cells_is_legwise_tensor():
    X = carrier(2)
    base = vect_base(V2, X)
    a = complete_cell1(V2, base, [2, 1, 1, 2])
    b = complete_cell1(V2, base, [1, 2, 2, 1])
    s = star1(b, a)
    assert len(s.span.apex) == 4
    for (c, h) in s.span.apex:
        assert c == h
        assert s.label[(c, h)] == tensor_obj(b.label[c], a.label[h])
        assert s.span.left((c, h)) == b.span.left(c)
        assert s.span.right((c, h)) == b.span.right(c)


def test_star_keeps_only_leg_matched_pairs():
    rng = seeded(7)
    X = carrier(2)
    base = vect_base(V1, X)
    for _ in range(10):
        a = random_vect_cell1(rng, V1, base, base, max_apex=3, max_dim=2)
        b = random_vect_cell1(rng, V1, base, base, max_apex=3, max_dim=2)
        s = star1(b, a)
        expected = [(c, h) for c in b.span.apex for h in a.span.apex
                    if b.span.left(c) == a.span.left(h)
                    and b.span.right(c) == a.span.right(h)]
        assert sorted(s.span.apex) == sorted(expected)


def whiskered_star(b, a):
    """The convolution as the whiskered composite m o (b . a) o m_star of
    the diagonal multiplication and its left adjoint, its presentation on
    plain leg-matched pairs, and the relabeling normalizer between the
    two."""
    mon = induced_monoidale(b.tgt.carrier, b.backend)
    m_star = opmap_adjunctions(b.src.carrier, b.backend).m_star
    composite = hcomp1(hcomp1(mon.m, tensor1(b, a)), m_star)
    pairs, labels, assignment = [], {}, {}
    for big in composite.span.apex:
        ((_, pair), _) = big
        pairs.append(pair)
        labels[pair] = composite.label[big]
        assignment[big] = pair
    apex = FinSet(pairs)
    span = Span(a.src.carrier, a.tgt.carrier, apex,
                FinFn(apex, a.tgt.carrier,
                      {(c, h): b.span.left(c) for (c, h) in apex}),
                FinFn(apex, a.src.carrier,
                      {(c, h): b.span.right(c) for (c, h) in apex}))
    normalized = Cell1(b.backend, a.src, a.tgt, span, labels)
    normalizer = relabel_cell2(composite, normalized, assignment.__getitem__)
    return mon, m_star, normalized, normalizer


def oracle_star2(v, u):
    """The whiskered 2-cell 1_m o (v . u) o 1_m_star between normalizers."""
    mon, m_star, _, n_source = whiskered_star(v.source, u.source)
    _, _, _, n_target = whiskered_star(v.target, u.target)
    big = hcomp2(hcomp2(identity_cell2(mon.m), tensor2(v, u)),
                 identity_cell2(m_star))
    return vcomp2(n_target, vcomp2(big, invert_cell2(n_source).inverse))


def cat_cell2_into(rng, target):
    """A random 2-cell into a Cat-labeled 1-cell, reusing the legs and
    labels of each chosen image element; identity components."""
    t = target.span
    n = rng.randint(0, 3) if len(t.apex) else 0
    apex = FinSet(["s%d" % k for k in range(n)])
    images = {c: rng.choice(t.apex.elements) for c in apex}
    span = Span(t.src, t.tgt, apex,
                FinFn(apex, t.tgt, {c: t.left(images[c]) for c in apex}),
                FinFn(apex, t.src, {c: t.right(images[c]) for c in apex}))
    label = {c: target.label[images[c]] for c in apex}
    source = Cell1(C, target.src, target.tgt, span, label)
    return Cell2(source, target,
                 SpanMorphism(span, t, FinFn(apex, t.apex, images)),
                 {c: C.id2(label[c]) for c in apex})


def assert_star_matches_oracle(b, a, v, u, seen):
    s = star1(b, a)
    _, _, old, _ = whiskered_star(b, a)
    assert s.span.apex.elements == old.span.apex.elements
    for p in old.span.apex:
        assert s.span.left(p) == old.span.left(p)
        assert s.span.right(p) == old.span.right(p)
        assert s.label[p] == old.label[p]
    assert s == old
    new2, old2 = star2(v, u), oracle_star2(v, u)
    assert new2.source == old2.source and new2.target == old2.target
    assert new2.morphism.map == old2.morphism.map
    assert eq2(new2, old2)
    partners = {}
    for (c, h) in s.span.apex:
        partners.setdefault(c, []).append(h)
    if not s.span.apex:
        seen.add("empty")
    elif len(partners) < len(b.span.apex):
        seen.add("partly matched")
    if sum(len(hs) > 1 for hs in partners.values()) > 1:
        seen.add("several partners")


def test_star_matches_the_whiskered_composite():
    """star1 gives the normalized composite's apex (order included), legs
    and labels; star2 its span map and components, without building the
    composite, the normalizer or its inverse."""
    rng = seeded(59)
    seen = set()
    for q in (1, -1, 2):
        be = VectBackend(BraidParam(q))
        for n in (1, 2, 3):
            base = vect_base(be, carrier(n))
            for _ in range(8):
                a, b = [random_vect_cell1(rng, be, base, base, max_apex=4,
                                          max_dim=2, max_grade=1)
                        for _ in range(2)]
                u = random_vect_cell2_from(rng, a, max_dim=2, max_grade=1)
                v = random_vect_cell2_from(rng, b, max_dim=2, max_grade=1)
                assert_star_matches_oracle(b, a, v, u, seen)
                assert_star_matches_oracle(b, a, identity_cell2(b),
                                           identity_cell2(a), seen)
    assert seen == {"empty", "partly matched", "several partners"}


def test_star_matches_the_whiskered_composite_over_cat():
    rng = seeded(61)
    seen = set()
    for n in (1, 2):
        X = carrier(n)
        base = Cell0(C, X, {x: C.unit0() for x in X})
        for _ in range(8):
            a, b = [Cell1(C, base, base, span,
                          {c: C.id1(C.unit0()) for c in span.apex})
                    for span in (random_span(rng, X, X, 4),
                                 random_span(rng, X, X, 4))]
            v, u = cat_cell2_into(rng, b), cat_cell2_into(rng, a)
            assert_star_matches_oracle(b, a, v, u, seen)
    assert "several partners" in seen
    z2 = FinCategory.indiscrete(["u", "v"])
    wide = identity_cell1(Cell0(C, carrier(1), {"x0": z2}))
    with pytest.raises(SpanVError):
        star1(wide, wide)


def test_star_units_and_associator_invertible():
    X = carrier(2)
    base = vect_base(V1, X)
    a = complete_cell1(V1, base, [2, 1, 2, 1])
    b = complete_cell1(V1, base, [1, 1, 2, 2])
    c = complete_cell1(V1, base, [2, 2, 1, 1])
    assert invert_cell2(star_associator_cell2(c, b, a))
    assert invert_cell2(star_left_unitor_cell2(a))
    assert invert_cell2(star_right_unitor_cell2(a))


def test_complete_unit_needs_matching_labels():
    z2 = FinCategory.indiscrete(["u", "v"])
    one = FinCategory.discrete(["*"])
    X = carrier(2)
    mixed = Cell0(C, X, {"x0": z2, "x1": one})
    with pytest.raises(SpanVError) as err:
        complete_unit_cell1(mixed, mixed)
    assert "unit label" in str(err.value)


def test_duoidal_unit_shapes():
    X = carrier(2)
    un = duoidal_units(X, V1)
    assert len(un.mu_j.source.span.apex) == 8
    assert len(un.mu_j.target.span.apex) == 4
    for x in X:
        assert un.delta_i.morphism.map(x) == (x, x)
        assert un.iota_ij.morphism.map(x) == (x, x)


def test_interchange_components_carry_the_braiding():
    X = carrier(2)
    base2 = vect_base(V2, X)
    span = Span.complete(X, X)
    g = Cell1(V2, base2, base2, span,
              {c: VObject([("u%d" % k, 1)]) for k, c in enumerate(span.apex)})
    xi = duoidal_interchange(g, g, g, g)
    for comp in xi.components.values():
        assert comp.entries == ((Fraction(2),),)
    base1 = vect_base(V1, X)
    a = complete_cell1(V1, base1, [2, 1, 1, 2])
    xi = duoidal_interchange(a, a, a, a)
    assert all(comp.is_permutation() for comp in xi.components.values())


def test_interchange_rejects_non_endo_cells():
    X = carrier(2)
    base = vect_base(V1, X)
    other = Cell0(V1, carrier(1), {"x0": "*"})
    a = complete_cell1(V1, base, [1, 1, 1, 1])
    odd = Cell1(V1, other, other, Span.complete(other.carrier, other.carrier),
                {("x0", "x0"): VObject.ungraded(["t"])})
    with pytest.raises(SpanVError):
        duoidal_interchange(a, a, odd, a)


def test_duoidal_axioms_randomized():
    rng = seeded(31)
    for q in (1, -1, 2):
        be = VectBackend(BraidParam(q))
        for n in (1, 2):
            units = duoidal_units(carrier(n), be)
            cells = [random_vect_cell1(rng, be, units.i.src, units.i.src,
                                       max_apex=2, max_dim=2, max_grade=1)
                     for _ in range(6)]
            report = check_duoidal(units, cells)
            assert report.ok, "q=%s |X|=%d %s" % (q, n, report.summary())


def test_interchange_naturality_ungraded():
    rng = seeded(13)
    X = carrier(2)
    base = vect_base(V1, X)
    for _ in range(5):
        a, b, h, d = [random_vect_cell1(rng, V1, base, base,
                                        max_apex=2, max_dim=2, max_grade=0)
                      for _ in range(4)]
        alpha = random_vect_cell2_from(rng, a, max_grade=0)
        beta = random_vect_cell2_from(rng, b, max_grade=0)
        gamma = random_vect_cell2_from(rng, h, max_grade=0)
        delta = random_vect_cell2_from(rng, d, max_grade=0)
        lhs = vcomp2(duoidal_interchange(a, b, h, d),
                     hcomp2(star2(alpha, beta), star2(gamma, delta)))
        rhs = vcomp2(star2(hcomp2(alpha, gamma), hcomp2(beta, delta)),
                     duoidal_interchange(alpha.source, beta.source,
                                         gamma.source, delta.source))
        assert eq2(lhs, rhs)


def test_interchange_naturality_graded():
    """With q = 2 the braiding weights entries by grade pairing, so the
    square only closes against grade-preserving components."""
    rng = seeded(17)
    X = carrier(1)
    base = vect_base(V2, X)
    for _ in range(5):
        cells = [random_vect_cell1(rng, V2, base, base,
                                   max_apex=2, max_dim=2, max_grade=2)
                 for _ in range(4)]
        a, b, h, d = cells
        alpha, beta, gamma, delta = [graded_endo_cell2(rng, c) for c in cells]
        lhs = vcomp2(duoidal_interchange(a, b, h, d),
                     hcomp2(star2(alpha, beta), star2(gamma, delta)))
        rhs = vcomp2(star2(hcomp2(alpha, gamma), hcomp2(beta, delta)),
                     duoidal_interchange(a, b, h, d))
        assert eq2(lhs, rhs)


# ---------------------------------------------------------------------------
# Comonoid-labeled cells.


def test_grouplike_comonoid_satisfies_laws():
    rng = seeded(23)
    base = vect_base(V2, carrier(2))
    cell = random_vect_cell1(rng, V2, base, base, max_apex=3, max_dim=3)
    com = grouplike_comonoid(cell)
    report = check_comonoid(com)
    assert report.ok, report.summary()
    for h in cell.span.apex:
        assert (com.delta[h], com.eps[h]) == grouplike(cell.label[h])
    # The helper against the dense construction: delta has a one at row
    # k * dim + k of column k, eps is a row of ones.
    for _ in range(30):
        obj = random_vobject(rng, max_dim=4, max_grade=3)
        n = obj.dim
        rows = [[Fraction(0)] * n for _ in range(n * n)]
        for k in range(n):
            rows[k * n + k][k] = Fraction(1)
        delta, eps = grouplike(obj)
        assert delta == VMorphism(obj, tensor_obj(obj, obj), rows)
        assert eps == VMorphism(obj, unit_object(), [[Fraction(1)] * n])


def conjugate_comonoid(com, autos):
    """Transport the comonoid structure along a label automorphism P per
    apex element: delta' = (P . P) o delta o P^-1, eps' = eps o P^-1."""
    be = com.cell.backend
    delta, eps = {}, {}
    for h in com.cell.span.apex:
        p = autos[h]
        res = invert(p)
        if not res:
            raise SpanVError("conjugator at %r is singular" % (h,))
        delta[h] = be.vcomp(be.tensor2v(p, p),
                            be.vcomp(com.delta[h], res.inverse))
        eps[h] = be.vcomp(com.eps[h], res.inverse)
    return ComonoidLabeledCell(com.cell, delta, eps)


def test_conjugated_comonoid_satisfies_laws():
    rng = seeded(29)
    base = vect_base(V1, carrier(2))
    cell = random_vect_cell1(rng, V1, base, base, max_apex=3, max_dim=2)
    com = grouplike_comonoid(cell)
    autos = {}
    for h in cell.span.apex:
        p = cell.label[h]
        rows = [[Fraction(1 if r == c else 0) for c in range(p.dim)]
                for r in range(p.dim)]
        rows[0][p.dim - 1] += 1 if p.dim > 1 else 0
        autos[h] = VMorphism(p, p, rows)
    report = check_comonoid(conjugate_comonoid(com, autos))
    assert report.ok, report.summary()


def test_check_comonoid_locates_corruption():
    rng = seeded(37)
    base = vect_base(V1, carrier(1))
    cell = random_vect_cell1(rng, V1, base, base, max_apex=2, max_dim=2,
                             max_grade=0)
    com = grouplike_comonoid(cell)
    h0 = cell.span.apex.elements[0]
    d0 = com.delta[h0]
    rows = [list(r) for r in d0.entries]
    rows[0][0] += 1
    bad_delta = dict(com.delta)
    bad_delta[h0] = VMorphism(d0.dom, d0.cod, rows)
    report = check_comonoid(ComonoidLabeledCell(cell, bad_delta,
                                                dict(com.eps)))
    assert not report.ok
    assert all(law in ("coassociativity", "left counit", "right counit")
               for law, _ in report.failures)


def test_comonoid_cell_boundary_validation():
    base = vect_base(V1, carrier(1))
    cell = complete_cell1(V1, base, [2])
    com = grouplike_comonoid(cell)
    h0 = cell.span.apex.elements[0]
    wrong = dict(com.eps)
    wrong[h0] = com.delta[h0]
    with pytest.raises(SpanVError):
        ComonoidLabeledCell(cell, dict(com.delta), wrong)


def test_comonoid_cells_give_coassociative_convolution():
    rng = seeded(43)
    base = vect_base(V2, carrier(2))
    cell = random_vect_cell1(rng, V2, base, base, max_apex=2, max_dim=2)
    com = grouplike_comonoid(cell)
    delta2, eps2 = comonoid_cells(com)
    assert delta2.target == star1(cell, cell)
    assert eps2.target == complete_unit_cell1(cell.src, cell.tgt)
    left = vcomp2(star2(delta2, identity_cell2(cell)), delta2)
    right = vcomp2(star2(identity_cell2(cell), delta2), delta2)
    assert eq2(left, right,
               transport=(star_associator_cell2(cell, cell, cell),))
    assert eq2(vcomp2(star2(eps2, identity_cell2(cell)), delta2),
               identity_cell2(cell),
               transport=(star_left_unitor_cell2(cell),))
    assert eq2(vcomp2(star2(identity_cell2(cell), eps2), delta2),
               identity_cell2(cell),
               transport=(star_right_unitor_cell2(cell),))


# ---------------------------------------------------------------------------
# The one-point carrier.


def test_star_collapses_to_composition_on_one_point():
    rng = seeded(47)
    units = duoidal_units(carrier(1), V1)
    for _ in range(10):
        a = random_vect_cell1(rng, V1, units.i.src, units.i.src, max_apex=3)
        b = random_vect_cell1(rng, V1, units.i.src, units.i.src, max_apex=3)
        assert star1(b, a) == hcomp1(b, a)
        u = random_vect_cell2_from(rng, a)
        v = random_vect_cell2_from(rng, b)
        assert eq2(star2(v, u), hcomp2(v, u))


def test_zunino_comparison():
    rng = seeded(53)
    for q in (1, -1, 2):
        be = VectBackend(BraidParam(q))
        units = duoidal_units(carrier(1), be)
        cells = [random_vect_cell1(rng, be, units.i.src, units.i.src,
                                   max_apex=2, max_dim=2, max_grade=1)
                 for _ in range(3)]
        report = zunino_check(carrier(1), be, cells)
        assert report.ok, "q=%s %s" % (q, report.summary())


def test_zunino_braiding_swaps_with_weights():
    be = V2
    units = duoidal_units(carrier(1), be)
    span = Span.complete(carrier(1), carrier(1))
    a = Cell1(be, units.i.src, units.i.src, span,
              {("x0", "x0"): VObject([("s", 1)])})
    b = Cell1(be, units.i.src, units.i.src, span,
              {("x0", "x0"): VObject([("t", 1)])})
    braid = zunino_braiding(a, b)
    comp = next(iter(braid.components.values()))
    assert comp.entries == ((Fraction(2),),)


def test_zunino_rejects_larger_carriers():
    with pytest.raises(SpanVError):
        zunino_check(carrier(2), V1, [])


# ---------------------------------------------------------------------------
# Base reshuffles behind the backend.


def structural_functor(src_cat, tgt_cat, fn):
    """The oracle: the functor applying the same reshuffle to objects and
    morphisms, as the carrier-level coherence cells built it when they
    chose their labels by backend type."""
    omap = FinFn(src_cat.objects, tgt_cat.objects,
                 {o: fn(o) for o in src_cat.objects})
    mmap = FinFn(src_cat.morphisms, tgt_cat.morphisms,
                 {m: fn(m) for m in src_cat.morphisms})
    return FunctorData(src_cat, tgt_cat, omap, mmap)


def test_reshape1_matches_the_structural_functor():
    z2 = (["e", "b"], {("e", "e"): "e", ("e", "b"): "b", ("b", "e"): "b",
                       ("b", "b"): "e"}, "e")
    cats = [FinCategory.indiscrete(["x", "y"]),
            FinCategory.discrete(["u", "v"]), FinCategory.from_monoid(*z2)]
    pair = C.tensor0v
    shuffles = 0
    for a in cats:
        diagonal = (a, pair(a, a), lambda t: (t, t))
        for b in cats:
            projections = [(pair(a, b), a, lambda t: t[0]),
                           (pair(a, b), b, lambda t: t[1])]
            for c in cats:
                regroups = [
                    (pair(pair(a, b), c), pair(a, pair(b, c)),
                     lambda t: (t[0][0], (t[0][1], t[1]))),
                    (pair(a, pair(b, c)), pair(pair(a, b), c),
                     lambda t: ((t[0], t[1][0]), t[1][1]))]
                for x, y, fn in [diagonal] + projections + regroups:
                    assert C.reshape1(x, y, fn) == structural_functor(x, y, fn)
                    assert V1.reshape1(x, y, fn) is unit_object()
                    shuffles += 1
    assert shuffles == 27 * 5
    # The coherence 1-cells over a carrier labeled by those categories.
    X = carrier(3)
    base = Cell0(C, X, dict(zip(X, cats)))
    for cell, fn in (
            (md.tensor_associator_cell1(base, base, base),
             lambda t: (t[0][0], (t[0][1], t[1]))),
            (md.tensor_associator_inv_cell1(base, base, base),
             lambda t: ((t[0], t[1][0]), t[1][1])),
            (md.tensor_left_unitor_cell1(base), lambda t: t[1]),
            (md.tensor_right_unitor_cell1(base), lambda t: t[0])):
        for p in cell.span.apex:
            assert cell.label[p] == structural_functor(
                cell.src.label[p], cell.tgt.label[fn(p)], fn)


def test_frobenius_over_cat_carriers():
    """check_frobenius re-checks the adjunction triangles; check_monoidale
    over the same carriers is test_monoidale_coherence_small_carriers."""
    one = C.unit0()
    collapse = FunctorData(
        one, one, FinFn.constant(one.objects, one.objects, "*"),
        FinFn.constant(one.morphisms, one.morphisms, one.identities("*")))
    for n in range(4):
        X = carrier(n)
        report = check_frobenius(X, C)
        assert report.ok, report.summary()
        # Over the unit category the collapse functor is the identity.
        u_star = md.opmap_adjunctions(X, C).u_star
        for x in X:
            assert u_star.label[x] == collapse == FunctorData.identity(one)
