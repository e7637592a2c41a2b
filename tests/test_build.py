"""The build of a presentation, against the slow paths it replaced.

Tables are checked for associativity by Light's test on a generating
set (cat_backend.light_associative), and walk their n^3 triples only
when it fails: check_category on a one-object table, MonoidalCatData on
its object tensor and the CLI on a group_monoid document each report
what the full walk reports, every violation and the first message alike.
A translation polyad reads each composite of two labels from the object
maps (the label of the product, FunctorData.keep_then) instead of
composing it; its verdicts, errors and restricted-algebra counts are
compared with the construction that composes them.
"""

import itertools
import types

import pytest
from hypothesis import given, settings, strategies as st

from hopfspan import cat_backend as cb
from hopfspan import finset_span as fs
from hopfspan import hopf_structures as hs
from hopfspan.cat_backend import (
    CatError, FinCategory, FunctorData, NatTransData, check_category)
from hopfspan.cli import InputError, load_document
from hopfspan.finset_span import FinFn, FinSet
from hopfspan.spanv_core import (
    CatBackend, SpanVError, product_category, product_functor)

from test_cat_backend import fresh_composite, scanned_check_category
from test_thin import raised, scanned_monoidal, undetermined_translation


# ---------------------------------------------------------------------------
# Tables on 1 to 7 elements: associative ones of several kinds, each
# with its elements in a drawn order, random ones, and associative ones
# with one entry changed.


def cyclic(n):
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def associative_tables(n):
    """Associative tables on range(n): the cyclic group, Z_2 x Z_k, the
    left and right zero bands, a null semigroup, min and max, and the
    monoid that truncates addition at n - 1."""
    tables = [cyclic(n),
              {(a, b): a for a in range(n) for b in range(n)},
              {(a, b): b for a in range(n) for b in range(n)},
              {(a, b): n - 1 for a in range(n) for b in range(n)},
              {(a, b): min(a, b) for a in range(n) for b in range(n)},
              {(a, b): max(a, b) for a in range(n) for b in range(n)},
              {(a, b): min(a + b, n - 1) for a in range(n)
               for b in range(n)}]
    if n % 2 == 0:
        k = n // 2
        tables.append({(a, b): ((a // k + b // k) % 2) * k + (a + b) % k
                       for a in range(n) for b in range(n)})
    return tables


@st.composite
def tables(draw):
    """(elements, table): elements in a drawn order, the table associative,
    random, or associative with one entry changed."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["associative", "random", "changed"]))
    if kind == "random":
        table = {pair: draw(st.integers(0, n - 1))
                 for pair in itertools.product(range(n), repeat=2)}
    else:
        table = dict(draw(st.sampled_from(associative_tables(n))))
        if kind == "changed":
            pair = draw(st.sampled_from(sorted(table)))
            table[pair] = draw(st.integers(0, n - 1))
    elements = draw(st.permutations(list(range(n))))
    return elements, table


def unital(elements, table, unit):
    """table with unit made a two-sided unit."""
    return {(a, b): b if a == unit else a if b == unit else c
            for (a, b), c in table.items()}


def first_triple(elements, mul):
    """The first (x, y, z) in element order with (x y) z != x (y z)."""
    return next(((x, y, z) for x in elements for y in elements
                 for z in elements
                 if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]), None)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_light_test_decides_associativity_as_the_triples_do(drawn):
    elements, table = drawn
    assert cb.light_associative(elements, table) == (
        first_triple(elements, table) is None)


def one_object(elements, table, unit):
    """The one-object category on table with identity unit, built without
    the constructor's checks, in checking mode too, so that it may break
    any law."""
    objects, morphisms = FinSet(["*"]), FinSet(elements)
    ends = FinFn.constant(morphisms, objects, "*")
    return fs._builder(FinCategory)(objects, morphisms, ends, ends,
                                    FinFn(objects, morphisms, {"*": unit}),
                                    dict(table))


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_a_monoid_table_is_checked_as_the_scan(drawn, data):
    elements, table = drawn
    unit = data.draw(st.sampled_from(elements))
    for given_table in (table, unital(elements, table, unit)):
        c = one_object(elements, given_table, unit)
        report, scanned = check_category(c), scanned_check_category(c)
        assert report.failures == scanned.failures
        assert report.summary() == scanned.summary()


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_a_tensor_table_is_checked_as_the_scan(drawn, data):
    # The discrete category on the elements, tensored by the table, the
    # tensor held by its object map.
    elements, table = drawn
    unit = data.draw(st.sampled_from(elements))
    c = FinCategory.discrete(elements)
    prod = product_category(c, c)
    for given_table in (table, unital(elements, table, unit)):
        tensor = FunctorData.held(prod, c, FinFn(prod.objects, c.objects,
                                                 given_table))
        message = raised(lambda: hs.MonoidalCatData(c, tensor, unit))
        assert message == raised(lambda: scanned_monoidal(c, tensor, unit))


def group_monoid_document(elements, table, unit):
    """A group_monoid file on table, every label K and every map 1."""
    names = ["g%d" % a for a in elements]
    name = dict(zip(elements, names))
    return {"format_version": 1, "kind": "group_monoid", "backend": "vect",
            "elements": names, "unit": name[unit], "q": "1",
            "table": {name[a]: {name[b]: name[table[(a, b)]]
                                for b in elements} for a in elements},
            "labels": {a: [["v", 0]] for a in names},
            "mu": {a: {b: [["1"]] for b in names} for a in names},
            "eta": [["1"]]}, name


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_the_cli_names_the_first_triple_the_scan_names(drawn, data):
    elements, table = drawn
    unit = data.draw(st.sampled_from(elements))
    table = unital(elements, table, unit)
    doc, name = group_monoid_document(elements, table, unit)
    try:
        load_document(doc)
        message = None
    except InputError as err:
        message = str(err)
    triple = first_triple(elements, table)
    if triple is None:
        assert message is None or "not associative" not in message
    else:
        assert message == "$.table: not associative at %r" % (
            tuple(name[a] for a in triple),)


# ---------------------------------------------------------------------------
# Translation polyads, against the construction that composes each
# pair of labels.


def composed_translation(elements, mul, unit, fiber):
    """translation_polyad with mu held between the composite of two
    labels, composed by FunctorData.then, and the label of the product;
    a label that misses a hom is refused as translation_polyad refuses
    it."""
    shape = FinCategory.from_monoid(list(elements), mul, unit)
    c = fiber.cat
    labels = {}
    for u in shape.morphisms:
        omap = FinFn(c.objects, c.objects, {a: mul[(u, a)] for a in c.objects})
        try:
            labels[u] = FunctorData.held(c, c, omap)
        except CatError:
            u, m = next(
                (v, m) for v in shape.morphisms for m in c.morphisms
                if len(c.hom(mul[(v, c.src(m))], mul[(v, c.tgt(m))])) != 1)
            raise SpanVError("translation by %r is not determined at %r"
                             % (u, m)) from None
    mu = {(u, v): NatTransData.held(labels[v].then(labels[u]),
                                    labels[mul[(u, v)]])
          for (u, v) in shape.composable_pairs()}
    eta = NatTransData.held(FunctorData.identity(c), labels[unit])
    return hs.MonadPresentation(CatBackend(), shape, {"*": c}, labels, mu,
                                {"*": eta})


def composed_opmonoidal(elements, mul, unit, fiber):
    """translation_opmonoidal on composed_translation."""
    p = composed_translation(elements, mul, unit, fiber)
    c = fiber.cat
    d2, d0 = {}, {}
    for u in p.shape.morphisms:
        f = p.mor_label[u]
        source = fiber.tensor.then(f)
        target = product_functor(f, f).then(fiber.tensor)
        try:
            d2[u] = NatTransData.held(source, target)
        except CatError:
            raise SpanVError(
                "no comparison morphism for translation by %r at %r"
                % (u, cb.ThinMap.components(source, target).gap())) from None
        pool = c.hom(f.omap(fiber.unit), fiber.unit)
        if len(pool) != 1:
            raise SpanVError("no comparison morphism for translation by "
                             "%r at the unit" % (u,))
        d0[u] = pool[0]
    return hs.PolyadOpmonoidalStructure(p, {"*": fiber}, d2, d0)


def parts(functor):
    return functor.dom, functor.cod, functor.omap, functor.mmap


def built(build, *args):
    try:
        return build(*args), None
    except SpanVError as err:
        return None, str(err)


def counts(p, kind):
    comparison = hs.em_algebras_restricted(p, kind)
    return (comparison.report.failures,
            len(comparison.algebras.objects),
            len(comparison.algebras.morphisms),
            len(comparison.enumerated.objects),
            len(comparison.enumerated.morphisms))


def translation_cases():
    """(name, elements, table, unit, fiber): Z_1 to Z_6 over the discrete
    and the indiscrete fiber, and the fibers that are not thin, which
    translation refuses."""
    for n in range(1, 7):
        names, mul, unit = hs.cyclic_group(n)
        for fiber_of in (hs.discrete_monoidal_group,
                         hs.indiscrete_monoidal_group):
            yield ("z%d-%s" % (n, fiber_of.__name__.split("_")[0]),
                   names, mul, unit, fiber_of(names, mul, unit))
    for n in (2, 3, "idempotent"):
        elements, mul, unit, fiber, _ = undetermined_translation(n)
        yield "not-thin-%s" % (n,), elements, mul, unit, fiber


@pytest.mark.parametrize("case", list(translation_cases()),
                         ids=lambda case: case[0])
def test_translations_read_from_object_maps_match_the_composed_ones(case):
    _, elements, mul, unit, fiber = case
    p, error = built(hs.translation_polyad, elements, mul, unit, fiber)
    q, composed_error = built(composed_translation, elements, mul, unit,
                              fiber)
    assert error == composed_error
    if p is None:
        return
    labels = p.mor_label
    for (u, v) in p.shape.composable_pairs():
        composite = labels[v].then(labels[u])
        assert composite is labels[mul[(u, v)]]
        # Each map compared entry by entry, the morphism map included.
        fresh = fresh_composite(labels[v], labels[u])
        assert parts(composite) == parts(fresh)
        assert parts(fresh) == parts(composite)
    assert hs.check_monad(p).failures == hs.check_monad(q).failures == []
    kinds = ["modules"] + ["representations"] * (len(fiber.cat.objects) <= 2)
    for kind in kinds:
        assert counts(p, kind) == counts(q, kind)
    opstr, error = built(hs.translation_opmonoidal, elements, mul, unit,
                         fiber)
    composed, composed_error = built(composed_opmonoidal, elements, mul,
                                     unit, fiber)
    assert error == composed_error
    if opstr is not None:
        assert hs.polyad_is_hopf(opstr) == hs.polyad_is_hopf(composed)
        assert hs.polyad_is_hopf(opstr).witness == \
            hs.polyad_is_hopf(composed).witness


def test_a_fiber_object_that_is_no_element_is_refused():
    names, mul, unit = hs.cyclic_group(2)
    fiber = types.SimpleNamespace(cat=FinCategory.indiscrete([*names, "x"]))
    with pytest.raises(SpanVError) as err:
        hs.translation_polyad(names, mul, unit, fiber)
    assert str(err.value) == "fiber object 'x' is not a monoid element"


@pytest.mark.parametrize("factors", [1, 2])
def test_a_functor_out_of_discrete_categories_is_held_as_checked(factors):
    # Every morphism of a discrete category, or of a product of them, is
    # an identity, whose image's hom holds an identity: held decides no
    # hom, and the functor is the one the checked constructor builds.
    c = FinCategory.discrete(["a", "b", "c"])
    dom = c if factors == 1 else product_category(c, c)
    omap = {x: "a" if x in ("b", ("b", "c")) else "c" for x in dom.objects}
    held = FunctorData.held(dom, c, FinFn(dom.objects, c.objects, omap))
    checked = FunctorData(
        dom, c, FinFn(dom.objects, c.objects, omap),
        FinFn(dom.morphisms, c.morphisms,
              {m: c.identities(omap[dom.src(m)]) for m in dom.morphisms}))
    assert parts(held) == parts(checked)
