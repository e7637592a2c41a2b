from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hopfspan.finset_span import (
    FinSet, FinFn, Span, SpanMorphism, SpanError,
    compose_spans, compose_span_morphisms_h, cartesian_product,
    right_adjoint_of,
)


def product_of_morphisms(f, g):
    """(c, d) -> (f(c), g(d)) between cartesian_product spans."""
    source = cartesian_product(f.source, g.source)
    target = cartesian_product(f.target, g.target)
    assignment = {(c, d): (f.map(c), g.map(d)) for (c, d) in source.apex}
    return SpanMorphism(source, target,
                        FinFn(source.apex, target.apex, assignment))


def associator_iso(c, b, a):
    """Canonical bijection from (c . b) . a to c . (b . a)."""
    lhs = compose_spans(compose_spans(c, b), a)
    rhs = compose_spans(c, compose_spans(b, a))
    assignment = {((e, d), f): (e, (d, f)) for ((e, d), f) in lhs.apex}
    return SpanMorphism(lhs, rhs, FinFn(lhs.apex, rhs.apex, assignment))


def left_unitor_iso(a):
    """From identity(a.tgt) . a to a, by (y, c) -> c."""
    lhs = compose_spans(Span.identity(a.tgt), a)
    assignment = {(y, c): c for (y, c) in lhs.apex}
    return SpanMorphism(lhs, a, FinFn(lhs.apex, a.apex, assignment))


def right_unitor_iso(a):
    """From a . identity(a.src) to a, by (c, x) -> c."""
    lhs = compose_spans(a, Span.identity(a.src))
    assignment = {(c, x): c for (c, x) in lhs.apex}
    return SpanMorphism(lhs, a, FinFn(lhs.apex, a.apex, assignment))


def pullback_pairs(b, a):
    """Brute-force enumeration of matching pairs, for cross-checking."""
    return [(d, c) for d, c in product(b.apex.elements, a.apex.elements)
            if b.right(d) == a.left(c)]


def span_from_legs(src, tgt, apex, left, right):
    s, t, a = FinSet(src), FinSet(tgt), FinSet(apex)
    return Span(s, t, a, FinFn(a, t, left), FinFn(a, s, right))


def test_finset_rejects_duplicates():
    with pytest.raises(SpanError):
        FinSet(["a", "b", "a"])


def test_finfn_totality_checked():
    x = FinSet([0, 1])
    with pytest.raises(SpanError):
        FinFn(x, x, {0: 1})
    with pytest.raises(SpanError):
        FinFn(x, x, {0: 1, 1: 7})


def test_tabulate_is_the_checked_function_of_its_rule():
    x, y = FinSet([("a", 1), ("b", 2), ("c", 1)]), FinSet([1, 2, 3])
    second = FinFn.tabulate(x, y, lambda atom: atom[1])
    assert second == FinFn(x, y, {a: a[1] for a in x})
    assert list(second.assignment) == list(x.elements)
    with pytest.raises(SpanError, match="value 4 of .* not in codomain"):
        FinFn.tabulate(x, y, lambda atom: atom[1] + 2)


def test_identity_compose_identity():
    x = FinSet(["a", "b"])
    i = Span.identity(x)
    c = compose_spans(i, i)
    assert c.apex.elements == (("a", "a"), ("b", "b"))
    assert c.left(("a", "a")) == "a"
    assert c.right(("b", "b")) == "b"


def test_compose_example_single_match():
    # b = ({*} <- {p,q} -> {0,1}), a = ({0,1} <- {m} -> {*})
    b = span_from_legs([0, 1], ["*"], ["p", "q"],
                       {"p": "*", "q": "*"}, {"p": 0, "q": 1})
    a = span_from_legs(["*"], [0, 1], ["m"], {"m": 0}, {"m": "*"})
    c = compose_spans(b, a)
    assert c.apex.elements == (("p", "m"),)


def test_compose_complete_span_cardinality():
    # complete span on a 2-element set composed with itself has 2^3 = 8
    # apex elements, one per triple
    x = FinSet([0, 1])
    k = Span.complete(x)
    c = compose_spans(k, k)
    assert len(c.apex) == 8
    assert len(c.apex) == len(pullback_pairs(k, k))


def test_compose_boundary_mismatch_reports_both_sets():
    a = Span.identity(FinSet([0]))
    b = Span.identity(FinSet([1]))
    with pytest.raises(SpanError) as err:
        compose_spans(b, a)
    assert "0" in str(err.value) and "1" in str(err.value)


def test_morphism_h_composition_identity():
    x = FinSet([0, 1])
    k = Span.complete(x)
    f = SpanMorphism.identity(k)
    gf = compose_span_morphisms_h(f, f)
    assert gf.source == compose_spans(k, k)
    assert gf.map == FinFn.identity(gf.source.apex)


def test_morphism_h_pointwise():
    x = FinSet([0])
    a = span_from_legs([0], [0], ["c1", "c2"],
                       {"c1": 0, "c2": 0}, {"c1": 0, "c2": 0})
    b = span_from_legs([0], [0], ["d"], {"d": 0}, {"d": 0})
    f = SpanMorphism(a, b, FinFn(a.apex, b.apex, {"c1": "d", "c2": "d"}))
    g = SpanMorphism.identity(b)
    gf = compose_span_morphisms_h(g, f)
    for (d, c) in gf.source.apex:
        assert gf.map((d, c)) == (g.map(d), f.map(c))


def test_span_morphism_map_must_go_apex_to_apex():
    a = span_from_legs([0], [0], ["c1", "c2"],
                       {"c1": 0, "c2": 0}, {"c1": 0, "c2": 0})
    b = span_from_legs([0], [0], ["d"], {"d": 0}, {"d": 0})
    with pytest.raises(SpanError, match="morphism map must go apex to apex"):
        SpanMorphism(a, b, FinFn.identity(b.apex))


def test_cartesian_product_unit_and_counts():
    x = FinSet([0, 1])
    a = Span.complete(x)
    one = Span.identity(FinSet.singleton())
    p = cartesian_product(a, one)
    assert len(p.apex) == len(a.apex)
    assert all(c == (c0, "*") for c, (c0, _) in zip(p.apex, p.apex))
    q = cartesian_product(a, a)
    assert len(q.apex) == 16

    empty = span_from_legs([], [], [], {}, {})
    assert len(cartesian_product(empty, a).apex) == 0


def test_cartesian_product_functorial():
    x = FinSet([0])
    a = span_from_legs([0], [0], ["c1", "c2"],
                       {"c1": 0, "c2": 0}, {"c1": 0, "c2": 0})
    b = span_from_legs([0], [0], ["d"], {"d": 0}, {"d": 0})
    f = SpanMorphism(a, b, FinFn(a.apex, b.apex, {"c1": "d", "c2": "d"}))
    g = SpanMorphism.identity(b)
    fg = product_of_morphisms(f, g)
    gg = product_of_morphisms(g, g)
    assert fg.then(gg).map == product_of_morphisms(f.then(g), g.then(g)).map


def test_associator_is_bijection_small():
    x = FinSet([0, 1])
    k = Span.complete(x)
    al = associator_iso(k, k, k)
    assert al.is_iso()
    assert al.inverse().then(al).map == FinFn.identity(al.target.apex)
    # both bracketings enumerate the same matched triples
    lhs = {((e, d), c) for ((e, d), c) in al.source.apex}
    rhs = {((e, d), c) for (e, (d, c)) in al.target.apex}
    assert lhs == rhs


def test_associator_empty_factor():
    x = FinSet([0])
    empty = span_from_legs([0], [0], [], {}, {})
    i = Span.identity(x)
    al = associator_iso(i, empty, i)
    assert len(al.source.apex) == 0 and len(al.target.apex) == 0


def test_unitors_are_bijections():
    b = span_from_legs([0, 1], ["u", "v"], ["p", "q", "r"],
                       {"p": "u", "q": "u", "r": "v"},
                       {"p": 0, "q": 1, "r": 1})
    for unitor in (left_unitor_iso(b), right_unitor_iso(b)):
        assert unitor.is_iso()
        assert unitor.target == b


def test_right_adjoint_identity_span():
    x = FinSet([0, 1])
    res = right_adjoint_of(Span.identity(x))
    assert res
    assert res.adjoint == Span.identity(x)
    check_triangle_identities(Span.identity(x), res)


def test_right_adjoint_of_function_graph():
    # graph of the function {a,b} -> {u}: right leg is the identity
    g = span_from_legs(["a", "b"], ["u"], ["a", "b"],
                       {"a": "u", "b": "u"}, {"a": "a", "b": "b"})
    res = right_adjoint_of(g)
    assert res
    assert res.adjoint == g.reverse()
    check_triangle_identities(g, res)


def test_right_adjoint_missing_with_witness():
    # right leg misses the src element 1
    a = span_from_legs([0, 1], ["u"], ["c"], {"c": "u"}, {"c": 0})
    res = right_adjoint_of(a)
    assert not res
    assert res.witness == 1
    # right leg merges two apex elements
    b = span_from_legs([0], ["u"], ["c", "d"],
                       {"c": "u", "d": "u"}, {"c": 0, "d": 0})
    res = right_adjoint_of(b)
    assert not res
    assert res.witness == ("c", "d")


def check_triangle_identities(a, res):
    """Both zigzag composites collapse to identities, through the unitors."""
    u, unit, counit = res.adjoint, res.unit, res.counit
    ida, idu = SpanMorphism.identity(a), SpanMorphism.identity(u)
    # a -> a.1 -> a.(u.a) -> (a.u).a -> 1.a -> a
    total = (right_unitor_iso(a).inverse()
             .then(compose_span_morphisms_h(ida, unit))
             .then(associator_iso(a, u, a).inverse())
             .then(compose_span_morphisms_h(counit, ida))
             .then(left_unitor_iso(a)))
    assert total.map == FinFn.identity(a.apex)
    # u -> 1.u -> (u.a).u -> u.(a.u) -> u.1 -> u
    total = (left_unitor_iso(u).inverse()
             .then(compose_span_morphisms_h(unit, idu))
             .then(associator_iso(u, a, u))
             .then(compose_span_morphisms_h(idu, counit))
             .then(right_unitor_iso(u)))
    assert total.map == FinFn.identity(u.apex)


@st.composite
def small_span_between(draw, src, tgt, max_apex=4):
    """A span from src to tgt with its apex in a drawn order.  Besides
    random legs it draws the shapes a bucketed pullback must get right:
    an empty apex, legs that miss part of the boundary, and many apex
    points over one boundary point."""
    kind = draw(st.sampled_from(["random", "empty", "partial", "piled"]))
    if kind == "empty":
        n = 0
    else:
        n = draw(st.integers(1, 2 * max_apex if kind == "piled" else max_apex))
    apex = FinSet(draw(st.permutations(range(n))))
    if kind == "piled":
        lpool = [draw(st.sampled_from(tgt.elements))]
        rpool = [draw(st.sampled_from(src.elements))]
    elif kind == "partial":
        lpool = tgt.elements[:max(1, len(tgt) - 1)]
        rpool = src.elements[:max(1, len(src) - 1)]
    else:
        lpool, rpool = tgt.elements, src.elements
    lvals = draw(st.lists(st.sampled_from(lpool), min_size=n, max_size=n))
    rvals = draw(st.lists(st.sampled_from(rpool), min_size=n, max_size=n))
    # Assignments list the apex backwards, so no join may read their order.
    backwards = list(enumerate(apex))[::-1]
    left = FinFn(apex, tgt, {c: lvals[i] for i, c in backwards})
    right = FinFn(apex, src, {c: rvals[i] for i, c in backwards})
    return Span(src, tgt, apex, left, right)


@st.composite
def composable_triple(draw):
    sets = [FinSet(["s%d%d" % (k, i) for i in range(draw(st.integers(1, 3)))])
            for k in range(4)]
    a = draw(small_span_between(sets[0], sets[1]))
    b = draw(small_span_between(sets[1], sets[2]))
    c = draw(small_span_between(sets[2], sets[3]))
    return c, b, a


@settings(max_examples=60, deadline=None)
@given(composable_triple())
def test_pullback_associative_up_to_canonical_iso(triple):
    c, b, a = triple
    al = associator_iso(c, b, a)
    assert al.is_iso()
    lhs, rhs = al.source, al.target
    for elem in lhs.apex:
        assert lhs.left(elem) == rhs.left(al.map(elem))
        assert lhs.right(elem) == rhs.right(al.map(elem))


@settings(max_examples=60, deadline=None)
@given(composable_triple())
def test_pullback_cardinality_matches_bruteforce(triple):
    c, b, a = triple
    for (y, x) in ((b, a), (c, b)):
        composite, pairs = compose_spans(y, x), pullback_pairs(y, x)
        assert len(composite.apex) == len(pairs)
        assert composite.apex.elements == tuple(pairs)
        for (d, e) in pairs:
            assert composite.left((d, e)) == y.left(d)
            assert composite.right((d, e)) == x.right(e)
