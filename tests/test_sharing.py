"""Shared values and the memoized kernel against fresh components.

Graded objects are hash-consed and the kernel memoizes compose,
tensor_mor, identities and the interchange on the identity of their
operands, so a presentation whose equal structure maps are one object
does a product once.  These tests check that sharing never changes an
answer: a presentation rebuilt from fresh, equal-but-distinct
components, and one with really different components, must give the
same verdicts, witnesses and canonical bytes whether its components are
shared or not.
"""

import contextlib
import dataclasses
import gc
import io
import json
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hopfspan import cli
from hopfspan import finset_span as fs
from hopfspan import hopf_structures as hs
from hopfspan import vect_backend as vb
from hopfspan.cat_backend import TERMINAL, FinCategory, FunctorData
from hopfspan.finset_span import FinFn, FinSet
from hopfspan.monoidale_duoidal import check_frobenius, induced_monoidale
from hopfspan.spanv_core import (
    CatBackend, VectBackend, product_category, product_functor,
)

# Every check that reads the structure maps; frobenius reads only the
# carrier.
CHECKS = ["monad", "opmonoidal", "hopf", "antipode", "duoidal"]


def fresh(value):
    """value with every morphism replaced by an equal one that shares no
    object with it or with any other component."""
    if isinstance(value, vb.VMorphism):
        return vb.VMorphism(value.dom, value.cod, value.entries)
    if isinstance(value, hs.AntipodeFamily):
        return hs.AntipodeFamily(fresh(value.sigma))
    return {key: fresh(mor) for key, mor in value.items()}


def rebuilt(pres, components):
    """pres on a new backend (so no interchange memo carries over), with
    each structure map passed through components."""
    return dataclasses.replace(
        pres, backend=VectBackend(pres.backend.q),
        **{name: components(getattr(pres, name))
           for name in ("mu", "eta", "delta", "eps", "antipode")})


def report_bytes(kind, pres):
    """The canonical bytes of the default check suite and of the solved
    antipode."""
    loaded = cli.LoadedFile(kind, {}, pres, True)
    entries, ok = cli._run_check_suite(loaded, CHECKS)
    solved = hs.compute_antipode(pres)
    sigma = (cli._sigma_document(loaded, solved.family) if solved
             else repr(solved.witness))
    return cli.canonical_json({"checks": entries, "ok": ok,
                               "sigma": sigma})


def perturbed(kind, pres, key):
    """pres with the multiplication at one unit slot doubled and one
    antipode component negated: really different components."""
    mu, sigma = dict(pres.mu), dict(pres.antipode.sigma)
    mu_key = (pres.unit, key) if kind == "group_monoid" else \
        (key[0], key[0], key[1])
    mu[mu_key] = mu[mu_key].scale(2)
    sigma[key] = sigma[key].scale(-1)
    return dataclasses.replace(pres, mu=mu,
                               antipode=hs.AntipodeFamily(sigma))


@st.composite
def graded_presentations(draw):
    q = vb.BraidParam(draw(st.sampled_from([1, -1, 2])))
    if draw(st.booleans()):
        names, mul, unit = hs.cyclic_group(draw(st.integers(2, 3)))
        grades = {a: draw(st.integers(0, 2)) for a in names}
        pres = hs.grouplike_monoid_algebra(names, mul, unit, q=q,
                                           grades=grades)
        return "group_monoid", pres, draw(st.sampled_from(names))
    cat = FinCategory.indiscrete(["x", "y"])
    grades = {m: draw(st.integers(0, 2)) for m in cat.morphisms}
    pres = hs.enriched_from_groupoid(cat, q=q, grades=grades)
    return "enriched_category", pres, draw(st.sampled_from(list(pres.hom)))


@settings(max_examples=20, deadline=None)
@given(graded_presentations())
def test_shared_and_fresh_components_give_the_same_bytes(case):
    kind, pres, key = case
    shared = report_bytes(kind, pres)
    assert report_bytes(kind, rebuilt(pres, fresh)) == shared
    different = perturbed(kind, pres, key)
    changed = report_bytes(kind, different)
    assert changed != shared
    assert report_bytes(kind, rebuilt(different, fresh)) == changed
    if kind == "group_monoid":
        # The builder shares one multiplication among all the slots.
        assert len({id(f) for f in pres.mu.values()}) == 1


def test_a_z5_opmonoidal_check_makes_each_product_once(tmp_path,
                                                       monkeypatch):
    names, mul, unit = hs.cyclic_group(5)
    inverse = {a: next(b for b in names if mul[(a, b)] == unit)
               for a in names}

    def matrix(dom, cod, image):
        return [[str(int(image(w) == v)) for w in dom] for v in cod]

    square = [(a, b) for a in names for b in names]
    doc = {"format_version": 1, "kind": "group_monoid", "backend": "vect",
           "elements": names, "unit": unit, "grouplike": True,
           "table": {a: {b: mul[(a, b)] for b in names} for a in names},
           "labels": {a: [[b, 0] for b in names] for a in names},
           "mu": {a: {b: matrix(square, names, lambda w: mul[w])
                      for b in names} for a in names},
           "eta": matrix([unit], names, lambda w: w),
           "antipode": {a: matrix(names, names, lambda w: inverse[w])
                        for a in names}}
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(doc))
    products = []
    raw = vb._kronecker

    def counted(f, g):
        products.append((f, g))
        return raw(f, g)

    monkeypatch.setattr(vb, "_kronecker", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", str(path), "--opmonoidal",
                         "--format", "json"])
    assert code == 0
    assert [c["status"] for c in json.loads(out.getvalue())["checks"]] == \
        ["pass"]
    # Each raw product is made once per pair of operands, and the pairs
    # are distinct by value too: the check calls tensor_mor 1950 times
    # (3198 times, each a product, before the kernel was memoized).
    assert len({(id(f), id(g)) for f, g in products}) == len(products)
    assert len({(f, g) for f, g in products}) == len(products) == 10


def test_an_identity_first_product_is_read_from_the_second_operand(
        monkeypatch):
    # An identity owns no memo, so its Kronecker product with g is kept
    # on g under both operands' ids, and a later call reads it there:
    # it returns the kept product and builds nothing.
    a = vb.VObject([("x", 0), ("y", 1)])
    b = vb.VObject([("u", 0), ("v", 0)])
    ident = vb.VMorphism.identity(a)
    g = vb.VMorphism(b, b, [[0, 1], [1, 0]])
    kept = vb.tensor_mor(ident, g)
    built = []
    raw = vb.VMorphism._from_rows.__func__

    def counted(cls, *values):
        built.append(values)
        return raw(cls, *values)
    monkeypatch.setattr(vb.VMorphism, "_from_rows", classmethod(counted))
    assert vb.tensor_mor(ident, g) is kept
    assert built == []
    assert ident._memo is fs._NO_MEMO and not ident._memo
    assert g._memo[vb._kronecker] == {(id(ident), id(g)): ((ident,), kept)}


class FreshUnitCatBackend(CatBackend):
    """The finite-category base with a new one-object unit category on
    every call, equal to the shared one but not the same object."""

    def unit0(self):
        return FinCategory.discrete(["*"])


def test_the_category_base_has_one_unit_category():
    unit = CatBackend().unit0()
    assert unit is CatBackend().unit0()
    assert unit == FreshUnitCatBackend().unit0()
    assert unit is not FreshUnitCatBackend().unit0()
    fiber = hs.indiscrete_monoidal_group(["e"], {("e", "e"): "e"}, "e")
    assert fiber.fiber().unit.dom is unit
    for n in (1, 2, 3):
        X = FinSet(["x%d" % k for k in range(n)])
        shared = check_frobenius(X, CatBackend())
        assert shared.ok, shared.summary()
        fresh_report = check_frobenius(X, FreshUnitCatBackend())
        assert (fresh_report.ok, fresh_report.failures) == \
            (shared.ok, shared.failures)


def point_functor(c, x):
    """The functor from the unit category picking the object x of c."""
    return FunctorData(TERMINAL, c, FinFn(TERMINAL.objects, c.objects,
                                          {"*": x}),
                       FinFn(TERMINAL.morphisms, c.morphisms,
                             {("id", "*"): c.identities(x)}))


def test_process_wide_values_keep_no_operand_alive():
    # A memo on the unit category or on its identity functor, which live
    # as long as the process, would keep every category that met them.
    unit = FunctorData.identity(TERMINAL)
    cats = []
    for n in range(2, 7):
        names, mul, e = hs.cyclic_group(n)
        fiber = hs.indiscrete_monoidal_group(names, mul, e).fiber()
        induced_monoidale(FinSet(["p"]), CatBackend(), {"p": fiber})
        cats.append(weakref.ref(fiber.obj))
        c = FinCategory.indiscrete(["q%d" % k for k in range(n)])
        point = point_functor(c, "q0")
        assert product_functor(unit, point) is product_functor(unit, point)
        cats.append(weakref.ref(c))
    del fiber, c, point
    gc.collect()
    assert [ref() for ref in cats] == [None] * len(cats)


def test_process_wide_values_hold_no_memo():
    names, mul, unit = hs.cyclic_group(2)
    pres = hs.grouplike_monoid_algebra(names, mul, unit,
                                       q=vb.BraidParam(-1),
                                       grades={names[0]: 0, names[1]: 1})
    report_bytes("group_monoid", pres)
    names, mul, unit = hs.cyclic_group(3)
    assert hs.polyad_is_hopf(hs.translation_opmonoidal(
        names, mul, unit, hs.indiscrete_monoidal_group(names, mul, unit)))
    assert check_frobenius(FinSet(["x", "y"]), CatBackend()).ok
    square = product_category(TERMINAL, TERMINAL)
    assert product_category(TERMINAL, TERMINAL) is square
    for value in (TERMINAL, FunctorData.identity(TERMINAL), vb._UNIT,
                  vb.VMorphism.identity(vb._UNIT), square,
                  FunctorData.identity(square)):
        assert value._memo is fs._PROCESS_WIDE or value._memo is fs._NO_MEMO
        assert not value._memo
    # What is built of process-wide values alone is process-wide too;
    # an atom among its operands (the object of a point functor into
    # the unit category's square) takes no attribute, so owns no memo.
    for operands, result in fs._PROCESS_WIDE_MEMO.values():
        for value in operands + (result,):
            if isinstance(value, (str, tuple)):
                continue
            assert value._memo is fs._PROCESS_WIDE


def test_a_result_kept_on_the_second_operand_is_read_there_first():
    # A first operand that owns no memo (an identity matrix) leaves the
    # result to the second: a repeated call finds it in the second's
    # memo, the identical object, before any search for an owner, which
    # would read the first operand's memo again.
    class NoMemo:
        reads = 0

        @property
        def _memo(self):
            NoMemo.reads += 1
            return fs._NO_MEMO

    builds = []

    def pair(*operands):
        builds.append(operands)
        return types.SimpleNamespace(operands=operands)
    first, second = NoMemo(), types.SimpleNamespace()
    kept = fs._kept(pair, first, second)
    NoMemo.reads = 0
    for _ in range(3):
        assert fs._kept(pair, first, second) is kept
    assert NoMemo.reads == 3 and len(builds) == 1
    ident = vb.VMorphism.identity(vb.VObject([(("v",), 0), (("w",), 1)]))
    g = vb.VMorphism(ident.dom, ident.cod, [[1, 2], [0, 1]])
    assert ident._memo is fs._NO_MEMO
    assert vb.tensor_mor(ident, g) is vb.tensor_mor(ident, g)


def test_only_atoms_are_skipped_as_owning_no_memo():
    # An atom takes no attribute and owns no memo; any other value that
    # takes no _memo is refused rather than counted process-wide, where
    # its result and operands would be kept for the life of the process.
    class Slotted:
        __slots__ = ()

    def pair(*operands):
        return types.SimpleNamespace(operands=operands)
    kept = dict(fs._PROCESS_WIDE_MEMO)
    with pytest.raises(AttributeError):
        fs._kept(pair, TERMINAL, Slotted())
    with pytest.raises(AttributeError):
        fs._kept(pair, "x", Slotted())
    assert fs._PROCESS_WIDE_MEMO == kept
    assert fs._kept(pair, TERMINAL, "x") is fs._kept(pair, TERMINAL, "x")
    fs._PROCESS_WIDE_MEMO.pop((pair, id(TERMINAL), id("x")))
    assert fs._PROCESS_WIDE_MEMO == kept
