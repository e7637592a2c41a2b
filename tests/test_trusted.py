"""Checking mode: every trusted constructor replaced by the checking one.

Identities and composites of checked values are built through
``finset_span._trusted``, which sets a frozen value's fields without
running its constructor's checks.  Here it is patched back to the
constructor in every module that binds it, and the goldens, the
acceptance inputs and generated chains of composites are built again:
no constructor may raise, and every composite must equal the one the
trusted path built.  That includes the law chains whose later stages
are built only on the atoms their source reaches, the cells along atom
maps, which run their classes' own checks on what they build, and the
inverses, which run only the checks that can fail: on broken ones both
modes raise the checked constructors' errors.  Mutant
composites show that the mode catches what the trusted path lets
through.  The per-class builders behind ``_trusted`` are compared with
the checked constructors directly, and their TypeErrors with those of a
def written for each class; a child process counts the sources compiled
while they are made (none).  The builds of a Frobenius check and of a
polyad's Hopf check are counted.
"""

import ast
import collections
import dataclasses
import inspect
import json
import sys

import pytest

import test_acceptance
import test_golden
import test_hopf_structures
import test_monoidale_duoidal
import test_thin
from test_imports import PACKAGE, name_read
from hopfspan import cat_backend as cb
from hopfspan import finset_span as fs
from hopfspan import hopf_structures as hs
from hopfspan import spanv_core as sc
from hopfspan.cat_backend import CatError, FinCategory, FunctorData, \
    NatTransData
from hopfspan.finset_span import FinFn, FinSet, Span, SpanError
from hopfspan.spanv_core import (
    CatBackend, Cell0, Cell1, Cell2, SpanVError, VectBackend,
    associator_cell2, cell2_along, hcomp1, hcomp2, identity_cell2,
    invert_cell2, left_unitor_cell2, product_functor, product_nat,
    relabel_cell2, right_unitor_cell2, tensor2, vcomp2,
)
from hopfspan.vect_backend import BraidParam, VMorphism
from hopfspan.monoidale_duoidal import check_frobenius
from frobenius_oracle import (
    associator_inv_cell2, left_unitor_inv_cell2, right_unitor_inv_cell2,
)
from rand import (
    random_composable_vect_cell1s, random_finset, random_relabeling,
    random_vect_cell0, random_vect_cell1, random_vect_cell2_from,
    random_vobject, seeded,
)


def checking(cls, *values):
    return cls(*values)


def enter_checking_mode(monkeypatch, constructor=checking):
    """Route every trusted construction through constructor, the public
    one by default, and forget the values built of process-wide ones
    (the unit category's products with itself) and the identity functor
    kept on the unit category, so that they are built again, through
    it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfspan.") and hasattr(module, "_trusted"):
            monkeypatch.setattr(module, "_trusted", constructor)
    monkeypatch.setattr(fs, "_PROCESS_WIDE_MEMO", {})
    monkeypatch.delitem(vars(cb.TERMINAL), "_identity", raising=False)


@pytest.fixture
def checking_mode(monkeypatch):
    enter_checking_mode(monkeypatch)


@pytest.mark.parametrize("golden", sorted(test_golden.CASES))
def test_goldens_in_checking_mode(golden, checking_mode, capsys):
    test_golden.test_report_matches_the_recorded_bytes(golden, capsys)


@pytest.mark.parametrize("export", sorted(test_golden.EXPORTS))
def test_exports_in_checking_mode(export, checking_mode, capsys):
    test_golden.test_export_matches_the_recorded_bytes(export, capsys)


# Criteria whose runtime bound holds only with the trusted path; their
# inputs run below at Z_3 and Z_4, and on 4 objects.  Criteria 21 to 25,
# 27 and 28 run in a child process, which checking mode does not reach.
TRUST_BOUND = {"test_criterion_11_translation_polyad_z3_to_z5",
               "test_criterion_14_translation_polyad_z6_hopf_check",
               "test_criterion_16_translation_polyad_z8_hopf_check",
               "test_criterion_17_translation_polyad_z16_hopf_check",
               "test_criterion_18_indiscrete_20_monad_check",
               "test_criterion_19_translation_polyad_z12_modules",
               "test_criterion_21_translation_polyad_z32_hopf_check",
               "test_criterion_22_translation_polyad_z24_modules",
               "test_criterion_23_translation_polyad_z48_modules",
               "test_criterion_24_translation_polyad_z4_representations",
               "test_criterion_25_identity_polyad_z32_discrete_hopf_check",
               "test_criterion_27_translation_polyad_z128_hopf_check",
               "test_criterion_28_first_decision_after_import"}
ACCEPTANCE = sorted(name for name in vars(test_acceptance)
                    if name.startswith("test_") and name not in TRUST_BOUND)


@pytest.mark.parametrize("name", ACCEPTANCE)
def test_acceptance_in_checking_mode(name, checking_mode, tmp_path):
    test = getattr(test_acceptance, name)
    test(*[tmp_path for _ in inspect.signature(test).parameters])


@pytest.mark.parametrize("n", [3, 4])
def test_translation_polyad_in_checking_mode(n, checking_mode):
    test_acceptance.translation_polyad_checks(n)


def test_indiscrete_monad_check_in_checking_mode(checking_mode):
    assert hs.check_monad(hs.indiscrete_enriched(range(4)).monad).ok


def test_checking_mode_checks_the_lazy_product(monkeypatch):
    # The products and the maps out of them stay lazy through the checked
    # constructors: the category axioms are checked through the product's
    # table, and functors and transformations on its generators.
    lazy = []

    def noting(cls, *values):
        if isinstance(values[-1], (cb.ProductTable, cb.PairMap,
                                   cb.ComposedMap)):
            lazy.append(type(values[-1]))
        return cls(*values)
    enter_checking_mode(monkeypatch, noting)
    test_acceptance.translation_polyad_checks(3)
    assert {cb.ProductTable, cb.PairMap, cb.ComposedMap} <= set(lazy)


def trusted_classes():
    """The names of the classes the package builds through _trusted."""
    return {name_read(node.args[0]) for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and name_read(node.func) == "_trusted"}


def checked_values(seed):
    """A value of every class built through _trusted, each made by its
    checked constructor from rand's inputs."""
    rng = seeded(seed)
    be = VectBackend(BraidParam(rng.choice([1, -1, 2])))
    x, y = random_vect_cell0(rng, be), random_vect_cell0(rng, be)
    u = random_vect_cell2_from(rng, random_vect_cell1(rng, be, x, y))
    ind = FinCategory.indiscrete(random_finset(rng, 3).elements)
    c = FinCategory(ind.objects, ind.morphisms, ind.src, ind.tgt,
                    ind.identities, ind.composition)
    f = rng.choice(automorphisms(c))
    n = NatTransData(f, f, {o: c.identities(f.omap(o)) for o in c.objects})
    # A product, a functor out of it and a transformation on it, all
    # three read on lookup.
    p = sc.product_category(c, c)
    pc = FinCategory(p.objects, p.morphisms, p.src, p.tgt, p.identities,
                     cb.ProductTable(c, c))
    pf = FunctorData(p, p, FinFn(p.objects, p.objects, cb.PairMap(
        p.objects, f.omap.assignment, f.omap.assignment)),
        FinFn(p.morphisms, p.morphisms, cb.PairMap(
            p.morphisms, f.mmap.assignment, f.mmap.assignment)))
    pn = NatTransData(pf, pf, cb.PairMap(p.objects, n.components,
                                         n.components))
    return [u, u.source, u.target, u.morphism, u.morphism.map,
            u.source.span, x, x.carrier, c, f, n, pc, pf, pn]


# What a checked value may hold beyond its fields, which a built one
# computes on first use: a set's index, a category's composable pairs,
# hom buckets, generators, thinness, groupoid verdict and identity
# functor, a functor's identity transformation, and the memo
# (finset_span._kept) of a category or functor.
LAZY = {"_index", "_pairs", "_homs", "_generators", "_thin", "_groupoid",
        "_identity", "_id2", "_memo"}


@pytest.mark.parametrize("seed", range(4))
def test_builders_agree_with_the_checked_constructors(seed):
    values = checked_values(seed)
    assert {type(value).__name__ for value in values} == trusted_classes()
    for value in values:
        cls = type(value)
        names = [f.name for f in dataclasses.fields(cls)]
        fields = [getattr(value, name) for name in names]
        build = fs._builder(cls)
        assert build.__name__ == cls.__name__
        built = build(*fields)
        assert type(built) is cls
        assert vars(built) == dict(zip(names, fields))
        assert set(vars(value)) - set(names) <= LAZY
        assert built == value and value == built
        assert hash(built) == hash(value)
        # Any other number of values raises the TypeError of a def
        # written for cls, which names cls and the fields.
        with pytest.raises(TypeError, match="^%s\\(\\) missing 1 required "
                           "positional argument: '%s'$" % (cls.__name__,
                                                           names[-1])):
            build(*fields[:-1])
        scope = {}
        exec("def %s(%s): pass" % (cls.__name__, ", ".join(names)), scope)
        for wrong in (fields[:-1], [], [*fields, fields[0]]):
            with pytest.raises(TypeError) as raised:
                build(*wrong)
            with pytest.raises(TypeError) as written:
                scope[cls.__name__](*wrong)
            assert str(raised.value) == str(written.value)


# A fresh interpreter that imports the package, then counts the compile
# audit events while it makes a builder for every dataclass of the
# package that has a template, decides the identity polyad over Z_2 and
# checks a document through the CLI, the last two making their builders
# on first use.  It prints the classes it made builders for and the
# events of each step: 37, 9 and 1 when each builder compiled a def.
COMPILES_CHILD = """
import contextlib, dataclasses, importlib, io, json, pkgutil, sys
import hopfspan
from hopfspan import cli, finset_span as fs, hopf_structures as hs
classes = [value for info in pkgutil.iter_modules(hopfspan.__path__)
           for value in vars(importlib.import_module(
               "hopfspan." + info.name)).values()
           if dataclasses.is_dataclass(value) and isinstance(value, type)]
compiles = {"builders": 0, "decision": 0, "cli": 0}
step = "builders"


def count(event, args):
    if event == "compile":
        compiles[step] += 1


sys.addaudithook(count)
built = []
for cls in classes:
    if len(cls.__match_args__) in fs._TEMPLATES:
        fs._builder(cls)
        built.append(cls.__name__)
step = "decision"
names, mul, unit = hs.cyclic_group(2)
assert hs.polyad_is_hopf(hs.identity_polyad(
    names, mul, unit, hs.discrete_monoidal_group(names, mul, unit)))
step = "cli"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", sys.argv[1], "--format", "json"]) == 0
print(json.dumps([built, compiles]))
"""


def test_builders_compile_no_source():
    built, compiles = json.loads(test_acceptance.child_output(
        COMPILES_CHILD, str(test_acceptance.DATA / "z2_group_algebra.json")))
    assert trusted_classes() <= set(built)
    assert compiles == {"builders": 0, "decision": 0, "cli": 0}


# The _trusted builds of a check_frobenius on a fresh backend with no
# product categories kept, by carrier size and backend.  Every chain is
# built from the 1-cell the one before reaches, on its atoms, each run
# of coherence steps is one relabeling, and a whisker followed by one is
# one cell: 1583, 1583, 2671 and 4416 when each step built its source
# 1-cell again and every composite was built whole (1587, 1587, 2675 and
# 4420 when the unit 0-cell was built again at each use, so that its
# tensor0 products were too).  On Cat each composite of two functors,
# each identity functor and each product of a non-identity functor is
# built once per pair of operands: 1087 and 1570 when they were built at
# every use.  The check builds alpha alone of the monoid object's
# coherence cells: 601, 601, 865 and 1108 when it built lam and rho with
# their boundaries too.  The product of an identity with another functor
# is kept on the other: 780 and 979 on Cat when it was built at every
# use.  A cell whose atoms all carry one label or component builds its
# base value once: 913 on Cat over 2 points when every atom built its
# own identity, composite and product transformations and composite
# functors.  The identity transformation on a functor is kept on it,
# and composing with it builds nothing: 750 and 872 on Cat when each
# identity was built at every use and every composite with one was
# built componentwise.  A composite of a point functor (a functor out of
# the unit category) is the point at its image, built once per object
# by the checked constructor and kept on its category, and a product
# category's src, tgt and identities are trusted views on its factors'
# maps: 716 and 822 on Cat when each composite of a point was built
# (4 and 8 FunctorData, 8 and 16 FinFn, and at 2 points one identity
# transformation) and the products' three maps were tabulated through
# the checked FinFn constructor (9 FinFn, not counted here).  A cell into
# thin categories whose components are not one object holds them by its
# 1-cells (spanv_core.HeldCells), and its composites, whiskers and
# inverses compose no transformation: 806 on Cat over 2 points when each
# built its components one by one.  Each chain composes its steps atom by
# atom and lands once, in its law's target, so no 1-cell, span morphism
# or cell is built between two steps: 560, 560, 713 and 771 when each
# step landed in a 1-cell of its own.  A relabeling is such a chain, so
# into thin categories it holds its identity components too: 460 on Cat
# over 2 points when it built them.
FROBENIUS_BUILDS = {(1, "vect"): 275, (2, "vect"): 275,
                    (1, "cat"): 420, (2, "cat"): 458}


@pytest.mark.parametrize("n, kind", sorted(FROBENIUS_BUILDS))
def test_frobenius_trusted_builds(n, kind, monkeypatch):
    builds = []

    def counted(cls, *values, _trusted=fs._trusted):
        builds.append(cls)
        return _trusted(cls, *values)
    enter_checking_mode(monkeypatch, counted)
    be = VectBackend(BraidParam(1)) if kind == "vect" else CatBackend()
    report = check_frobenius(test_monoidale_duoidal.carrier(n), be)
    assert report.ok, report.summary()
    assert len(builds) == FROBENIUS_BUILDS[(n, kind)]


# The _trusted builds of a polyad_is_hopf over Z_3 with the indiscrete
# fiber, by class, on a polyad built beforehand.  The fiber is a thin
# groupoid, so the verdict is the shape's and no fusion family is built:
# neither polyad builds anything.  The translation polyad built 84 FinFn
# and 42 FunctorData when each family's source and target functors were
# composed; the identity polyad's products of identity functors were
# already the identity kept on the product category.
POLYAD_BUILDS = {"identity": {}, "translation": {}}


@pytest.mark.parametrize("kind", sorted(POLYAD_BUILDS))
def test_polyad_trusted_builds(kind, monkeypatch):
    names, mul, unit = hs.cyclic_group(3)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    build = hs.identity_polyad if kind == "identity" else \
        hs.translation_opmonoidal
    opstr = build(names, mul, unit, fiber)
    builds = collections.Counter()

    def counted(cls, *values, _trusted=fs._trusted):
        builds[cls.__name__] += 1
        return _trusted(cls, *values)
    enter_checking_mode(monkeypatch, counted)
    assert hs.polyad_is_hopf(opstr)
    assert builds == POLYAD_BUILDS[kind]


def test_checking_mode_checks_every_component_of_each_family_it_builds(
        monkeypatch):
    # Every transformation built through _trusted while two polyads are
    # built and checked is rebuilt by the constructor in checking mode,
    # which must refuse it with any one component moved to a morphism
    # with other endpoints.  A Hopf check over a thin groupoid fiber, as
    # the three here are, builds no fusion family, and the translation
    # polyad's mu and eta there hold no component and are built by the
    # constructor in both modes.  Carriers share the composites of their
    # point functors, so Z_3 modules build fewer families than they did,
    # and Z_2 representations are checked too.
    # Over a thin fiber the law chains' cells hold their components by
    # their 1-cells and build no family at all, so the modules of the
    # identity polyad on a fiber that is not thin, with two objects so
    # that a component can move, are checked as well.
    families = []

    def recorded(cls, *values):
        value = cls(*values)
        if cls is NatTransData:
            families.append(value)
        return value
    enter_checking_mode(monkeypatch, recorded)
    names, mul, unit = hs.cyclic_group(3)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    assert hs.polyad_is_hopf(hs.identity_polyad(
        names, mul, unit, hs.discrete_monoidal_group(names, mul, unit)))
    for build in (hs.identity_polyad, hs.translation_opmonoidal):
        assert hs.polyad_is_hopf(build(names, mul, unit, fiber))
    assert hs.em_algebras_restricted(hs.translation_polyad(
        names, mul, unit, fiber), "modules").report.ok
    names, mul, unit = hs.cyclic_group(2)
    assert hs.em_algebras_restricted(hs.translation_polyad(
        names, mul, unit, hs.indiscrete_monoidal_group(names, mul, unit)),
        "representations").report.ok
    torsor = sc.product_category(FinCategory.indiscrete(["x", "y"]),
                                 FinCategory.from_monoid(names, mul, unit))
    assert hs.em_algebras_restricted(test_hopf_structures.identity_polyad_over(
        FinCategory.from_monoid(names, mul, unit), torsor),
        "modules").report.ok
    assert len(families) > 150
    assert not any(type(nat.components) is cb.ThinMap
                   for nat in families)
    for nat in families:
        cod = nat.source.cod
        for x in nat.source.dom.objects:
            n = nat.components[x]
            moved = next((m for m in cod.morphisms
                          if (cod.src(m), cod.tgt(m))
                          != (cod.src(n), cod.tgt(n))), None)
            if moved is None:
                continue
            with pytest.raises(CatError, match="component endpoints at"):
                NatTransData(nat.source, nat.target,
                             {**nat.components, x: moved})


def test_checking_mode_checks_every_held_cell_it_builds(monkeypatch):
    # Every 2-cell whose components are held by its 1-cells
    # (spanv_core.HeldCells) and built through _trusted is built by the
    # Cell2 constructor in checking mode: the law chains of modules and
    # representations over a thin fiber, a Frobenius check on Cat and
    # every builder on cells over the thin categories of test_thin,
    # chains that land with the labels they reach included.  The constructor
    # compares each component's ends with the labels and asks that a
    # transformation run between them, so it refuses a cell turned round
    # in a total order, a cell held from another 1-cell and one whose
    # labels do not land in thin categories.
    held = []

    def recorded(cls, *values):
        if cls is Cell2 and type(values[-1]) is sc.HeldCells:
            held.append(values[-1])
        return cls(*values)
    enter_checking_mode(monkeypatch, recorded)
    test_acceptance.translation_polyad_checks(3)
    names, mul, unit = hs.cyclic_group(2)
    assert hs.em_algebras_restricted(hs.translation_polyad(
        names, mul, unit, hs.indiscrete_monoidal_group(names, mul, unit)),
        "representations").report.ok
    assert check_frobenius(test_monoidale_duoidal.carrier(2),
                           CatBackend()).ok
    for c in test_thin.THIN_FIBERS:
        test_thin.thin_builds(c, 0)
    assert len(held) > 120
    assert any(type(view.target) is dict for view in held)
    order = test_thin.total_order(4)
    cells, _, _ = test_thin.thin_builds(order, 0)
    u = cells[1]
    back = FinFn(u.morphism.map.codomain, u.morphism.map.domain, {
        d: c for c, d in u.morphism.map.assignment.items()})
    turned = fs.SpanMorphism(u.target.span, u.source.span, back)
    with pytest.raises(SpanVError, match="component missing at"):
        Cell2(u.target, u.source, turned,
              sc.HeldCells(u.target, u.source, back.assignment))
    with pytest.raises(SpanVError, match="held from another 1-cell"):
        Cell2(u.source, u.target, u.morphism,
              sc.HeldCells(u.target, u.target, u.morphism.map.assignment))
    endo = test_hopf_structures.polyad_fixture("identity", "endomorphisms")
    t = endo.cells[0]
    with pytest.raises(SpanVError, match="not into thin categories"):
        Cell2(t, t, fs.SpanMorphism.identity(t.span), sc.HeldCells(
            t, t, {h: h for h in t.span.apex}))


# The _trusted builds of one em_algebras_restricted on the translation
# polyad over the indiscrete fiber of Z_n, by class, on a polyad built
# beforehand.  Every carrier sits on one span, as do its composites
# with t, t o t and the identity, and the per-carrier steps of the laws
# are built once per carrier, not once per action: 57 Cell1, 84 Cell2,
# 331 FinFn, 54 FinSet, 67 FunctorData, 294 NatTransData, 57 Span and
# 84 SpanMorphism for Z_3 modules, and 84, 132, 464, 80, 84, 464, 84
# and 132 for Z_2 representations, when each candidate built its
# carrier span and the composites on it, and each law its associator,
# unitor and whiskered identities, again.  The fiber is thin, so every
# arrow candidate is an arrow, and no arrow builds its cell or the
# chains of its equation: 76 Cell2, 220 FinFn, 237 NatTransData and 76
# SpanMorphism for Z_3 modules, and 117, 173, 350 and 117 for Z_2
# representations, when each was decided with eq2.  A carrier's labels
# are point functors, and a composite of a point is the point at its
# image, kept on the fiber, so its identity transformation is shared
# too: 184 FinFn, 67 FunctorData and 156 NatTransData for Z_3 modules,
# and 109, 24 and 158 for Z_2 representations, when each composite of
# a point was built with its own identity transformation.  The fiber
# is thin, so every cell of a law chain holds its components by its
# 1-cells (spanv_core.HeldCells), and no whisker, composite or identity
# builds a transformation: 120 NatTransData for Z_3 modules and 146 for
# Z_2 representations when each built its components one by one.  A
# carrier's labels are held by its objects, not marked Uniform, so the
# identity cells on a one-atom carrier hold their components too: 6
# and 4 NatTransData when each built the identity transformation of its
# one point.  Both sides decide the same candidate atoms, and over a
# thin fiber their categories are one when they accept the same ones,
# so the closing functor pair is that category's identity functor (one
# FunctorData and two FinFn): 4 FunctorData and 12 FinFn when the pair
# was two inclusions on two categories, composed both ways.  All the
# candidates of one call are decided as one family: one carrier, whose
# composites and law steps are built once, one action cell and one
# chain per law, so the counts no longer grow with the number of
# candidates: 40 Cell2 and 32 SpanMorphism for Z_3 modules, and 53 and
# 41 for Z_2 representations, when each candidate had its own carrier,
# action cell and chains, the carriers after the first taking the first
# one's step span morphisms.  The associativity law's whiskers, mu o 1_q
# and (1_t o xi) alpha, are horizontal composites from (t o t) o q into
# the t o q built already, the second reading its atoms through
# regroup, so no t o (t o q), no associator and no sub-span of t o q is
# built: 12 Cell1, 44 FinFn, 4 FinSet and 4 Span for Z_3 modules, and
# 16, 51, 4 and 4 for Z_2 representations, with t o (t o q) and the
# associator built per candidate.  Two of the FinFn counted are the end
# maps of the category of actions, which FinFn.tabulate builds through
# _trusted where the constructor, uncounted here, built them before.
# The unit law's two sides are chains from id o q, with no identity cell
# built on it: one Cell2, SpanMorphism and FinFn more when they started
# from that cell.
EM_BUILDS = {
    (3, "modules"): {"Cell1": 3, "Cell2": 10, "FinFn": 22, "FinSet": 3,
                     "FunctorData": 1, "Span": 3, "SpanMorphism": 10},
    (2, "representations"): {"Cell1": 3, "Cell2": 10, "FinFn": 20,
                             "FinSet": 3, "FunctorData": 1, "Span": 3,
                             "SpanMorphism": 10},
}


@pytest.mark.parametrize("n, kind", sorted(EM_BUILDS))
def test_restricted_algebra_trusted_builds(n, kind, monkeypatch):
    names, mul, unit = hs.cyclic_group(n)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    p = hs.translation_polyad(names, mul, unit, fiber)
    builds = collections.Counter()

    def counted(cls, *values, _trusted=fs._trusted):
        builds[cls.__name__] += 1
        return _trusted(cls, *values)
    enter_checking_mode(monkeypatch, counted)
    assert hs.em_algebras_restricted(p, kind).report.ok
    assert builds == EM_BUILDS[(n, kind)]


def test_a_family_builds_as_many_cells_for_any_number_of_candidates(
        monkeypatch):
    # Z_3 and Z_5 modules decide 3 and 5 candidates over a thin fiber:
    # one family each, so the same Cell1 and Cell2 builds, on polyads
    # built beforehand: 4 and 10, where Z_3 built 15 and 40 and Z_5 25
    # and 66 with one carrier per candidate (4 and 11 when the unit law's
    # chains started from an identity cell).  In checking mode every
    # build, trusted ones included, runs the constructor, where it is
    # counted.
    polyads = {}
    for n in (3, 5):
        names, mul, unit = hs.cyclic_group(n)
        polyads[n] = hs.translation_polyad(
            names, mul, unit, hs.indiscrete_monoidal_group(names, mul, unit))
    builds = collections.Counter()
    enter_checking_mode(monkeypatch)
    for cls in (sc.Cell1, sc.Cell2):
        def checked(self, *values, _init=cls.__init__):
            builds[type(self).__name__] += 1
            _init(self, *values)
        monkeypatch.setattr(cls, "__init__", checked)
    cells = {}
    for n, p in polyads.items():
        builds.clear()
        comparison = hs.em_algebras_restricted(p, "modules")
        assert comparison.report.ok
        assert len(comparison.algebras.objects) == n
        cells[n] = (builds["Cell1"], builds["Cell2"])
    assert cells[3] == cells[5] == (4, 10)


@pytest.mark.parametrize("kind", ["vect", "cat"])
@pytest.mark.parametrize("n", [4, 8])
def test_frobenius_builds_no_apex_beyond_n_squared(n, kind, monkeypatch):
    # Over n points the largest spans are the adjunctions' own: the
    # identity on the carrier's square that the counit lands in, and
    # u o u_star.  Every chain and comparison target is built on the
    # atoms its source reaches; built whole, the regrouping 1-cells and
    # their composites spanned n^3 atoms.
    apexes = []

    def counted(cls, *values, _trusted=fs._trusted):
        if cls is Span:
            apexes.append(len(values[2]))
        return _trusted(cls, *values)
    enter_checking_mode(monkeypatch, counted)
    be = VectBackend(BraidParam(1)) if kind == "vect" else CatBackend()
    report = check_frobenius(test_monoidale_duoidal.carrier(n), be)
    assert report.ok, report.summary()
    assert max(apexes) == n * n


def vect_composites(seed):
    """Chains of hcomp2, vcomp2 and tensor2 over random checked cells,
    as a thunk building them from the same inputs in whichever mode is
    current."""
    rng = seeded(seed)
    be = VectBackend(BraidParam(rng.choice([1, -1, 2])))
    outer, middle, inner = random_composable_vect_cell1s(rng, be, 3)
    u, v, w = (random_vect_cell2_from(rng, a) for a in (outer, middle, inner))
    below = random_vect_cell2_from(rng, u.source)
    x, y = random_vect_cell0(rng, be), random_vect_cell0(rng, be)
    t = random_vect_cell2_from(rng, random_vect_cell1(rng, be, x, y))

    def build():
        uvw = hcomp2(hcomp2(u, v), w)
        return [uvw, hcomp2(u, hcomp2(v, w)),
                vcomp2(hcomp2(identity_cell2(outer), v),
                       hcomp2(u, identity_cell2(v.source))),
                vcomp2(vcomp2(identity_cell2(outer), u), below),
                vcomp2(uvw, hcomp2(hcomp2(below, identity_cell2(
                    v.source)), identity_cell2(w.source))),
                tensor2(tensor2(u, t), w), tensor2(u, tensor2(t, w)),
                tensor2(hcomp2(u, v), identity_cell2(t.target))]
    return build


@pytest.mark.parametrize("seed", range(8))
def test_vect_composite_chains_agree_in_checking_mode(seed, monkeypatch):
    build = vect_composites(seed)
    trusted = build()
    enter_checking_mode(monkeypatch)
    assert build() == trusted


def empty_cell1(be, src, tgt):
    apex = FinSet([])
    return Cell1(be, src, tgt, Span(src.carrier, tgt.carrier, apex,
                                    FinFn(apex, tgt.carrier, {}),
                                    FinFn(apex, src.carrier, {})), {})


def relabelings(seed):
    """A valid relabeling (source, target, fn) drawn from rand, and the
    broken ones made from it: fn off the target apex, legs that do not
    commute, a label mismatch, 0-cell boundaries that differ in their
    carrier or, on the same carrier, in their labels, and a target on
    the same carriers over another backend."""
    rng = seeded(seed)
    be = VectBackend(BraidParam(1))
    while True:
        x, y = random_vect_cell0(rng, be), random_vect_cell0(rng, be)
        target = random_vect_cell1(rng, be, x, y, max_apex=4)
        source, images = random_relabeling(rng, target)
        legs = {d: (target.span.left(d), target.span.right(d))
                for d in target.span.apex}
        c = next(iter(images), None)
        astray = [d for d in legs if c is not None
                  and legs[d] != legs[images[c]]]
        if astray:
            break
    relabeled = Cell1(be, x, y, source.span,
                      {**source.label, c: random_vobject(rng)})
    unlabeled = Cell0(be, x.carrier, {p: "#" for p in x.carrier})
    other = VectBackend(BraidParam(-1))
    elsewhere = Cell1(other, Cell0(other, x.carrier, x.label),
                      Cell0(other, y.carrier, y.label), target.span,
                      target.label)
    broken = [(source, target, {**images, c: "nowhere"}),
              (source, target, {**images, c: astray[0]}),
              (relabeled, target, images),
              (empty_cell1(be, random_vect_cell0(rng, be), y), target, {}),
              (empty_cell1(be, unlabeled, y), target, {}),
              (source, elsewhere, images)]
    return (source, target, images), broken


def identity_components(source):
    be = source.backend
    return {c: be.id2(source.label[c]) for c in source.span.apex}


def cells_along(seed):
    """A random 2-cell's (source, target, map as a dict, components),
    and the broken ones made from it: a component missing, and one with
    the wrong domain or the wrong codomain."""
    rng = seeded(seed)
    be = VectBackend(BraidParam(1))
    u = None
    while u is None or not u.components:
        x, y = random_vect_cell0(rng, be), random_vect_cell0(rng, be)
        u = random_vect_cell2_from(
            rng, random_vect_cell1(rng, be, x, y, max_apex=4))
    images = dict(u.morphism.map.assignment)
    c, phi = next(iter(u.components.items()))
    stray = random_vobject(rng)
    broken = [{d: u.components[d] for d in images if d != c},
              {**u.components, c: VMorphism.zero(stray, phi.cod)},
              {**u.components, c: VMorphism.zero(phi.dom, stray)}]
    return ((u.source, u.target, images, u.components),
            [(u.source, u.target, images, comps) for comps in broken])


def checked_along(source, target, fn, components):
    """cell2_along through the checked constructors."""
    apex = source.span.apex
    return Cell2(source, target,
                 fs.SpanMorphism(source.span, target.span,
                                 FinFn(apex, target.span.apex,
                                       {c: fn(c) for c in apex})),
                 components)


def outcome(build, source, target, fn, *components):
    """The cell build makes, or the class and message it raises."""
    try:
        return build(source, target, fn.__getitem__, *components)
    except (SpanError, SpanVError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("seed", range(8))
def test_relabelings_agree_with_the_checked_constructors(seed, monkeypatch):
    # Relabelings, valid and broken, go through relabel_cell2 and, with
    # identity components, through cell2_along; random 2-cells and
    # their broken components through cell2_along alone.
    valid, broken = relabelings(seed)
    relabels = [valid] + broken
    along_valid, along_broken = cells_along(seed)
    cases = [(*case, identity_components(case[0])) for case in relabels] \
        + [along_valid] + along_broken

    def build():
        return ([outcome(relabel_cell2, *case) for case in relabels],
                [outcome(cell2_along, *case) for case in cases])
    relabeled, along = build()
    assert [type(o) for o in along] == [Cell2] + [tuple] * len(broken) \
        + [Cell2] + [tuple] * len(along_broken)
    assert along == [outcome(checked_along, *case) for case in cases]
    assert relabeled == along[:len(relabels)]
    enter_checking_mode(monkeypatch)
    assert build() == (relabeled, along)


def along_unchecked(source, target, fn, components):
    """A mutant cell2_along that runs none of its checks."""
    s, t = source.span, target.span
    return sc._trusted(Cell2, source, target, sc._trusted(
        fs.SpanMorphism, s, t,
        sc._trusted(FinFn, s.apex, t.apex, {c: fn(c) for c in s.apex})),
        components)


def test_checking_mode_catches_a_relabeling_without_checks(monkeypatch):
    _, broken = relabelings(0)
    relabeled, target, images = broken[2]
    monkeypatch.setattr(sc, "cell2_along", along_unchecked)
    relabel_cell2(relabeled, target, images.__getitem__)  # let through
    enter_checking_mode(monkeypatch)
    with pytest.raises(SpanVError, match="component codomain mismatch"):
        relabel_cell2(relabeled, target, images.__getitem__)


def inverses(seed):
    """invert_cell2 on coherence cells, on a relabeling and on a random
    2-cell, with the direct inverses of the coherence cells, as a thunk
    building them from the same inputs in whichever mode is current."""
    rng = seeded(seed)
    be = VectBackend(BraidParam(rng.choice([1, -1, 2])))
    c, b, a = random_composable_vect_cell1s(rng, be, 3)
    source, target, images = relabelings(seed)[0]
    u = random_vect_cell2_from(rng, b)

    def build():
        return [invert_cell2(associator_cell2(c, b, a)),
                associator_inv_cell2(c, b, a),
                invert_cell2(left_unitor_cell2(b)), left_unitor_inv_cell2(b),
                invert_cell2(right_unitor_cell2(b)),
                right_unitor_inv_cell2(b),
                invert_cell2(relabel_cell2(source, target,
                                           images.__getitem__)),
                invert_cell2(u)]
    return build


@pytest.mark.parametrize("seed", range(8))
def test_inverses_agree_in_checking_mode(seed, monkeypatch):
    build = inverses(seed)
    trusted = build()
    for res, direct in zip(trusted[0:6:2], trusted[1:6:2]):
        assert res.inverse == direct
    enter_checking_mode(monkeypatch)
    assert build() == trusted


def automorphisms(c):
    """Every functor c -> c that permutes the objects of an indiscrete
    category, so that then chains of them wrap around."""
    objects = list(c.objects)
    shifts = []
    for k in range(len(objects)):
        move = {x: objects[(i + k) % len(objects)]
                for i, x in enumerate(objects)}
        shifts.append(FunctorData(
            c, c, FinFn(c.objects, c.objects, move),
            FinFn(c.morphisms, c.morphisms,
                  {(x, y): (move[x], move[y]) for (x, y) in c.morphisms})))
    return shifts


def functor_chains():
    a = FinCategory.indiscrete(["x", "y", "z"])
    b = FinCategory.indiscrete(["u", "v"])
    fs_a, fs_b = automorphisms(a), automorphisms(b)
    products = [product_functor(f, g) for f in fs_a for g in fs_b]

    def build():
        chains = []
        for f in products:
            chain = FunctorData.identity(f.dom)
            for g in products:
                chain = chain.then(f).then(g)
                chains.append(chain)
            chains.append(product_nat(cb.NatTransData.identity(fs_a[1]),
                                      cb.NatTransData.identity(fs_b[1])))
        return chains
    return products, build


def law_chains():
    """The bimonoid square's report and both fusion cells on the inputs
    of the restricted-chain differential test, built on the atoms their
    sources reach."""
    built = []
    for _, mp, c, fibers in test_hopf_structures.chain_inputs():
        if fibers is None:
            built.append(hs.check_opmonoidal(mp, c).failures)
        built += hs.fusion_cells(mp, c, fibers)
    return built


def test_restricted_chains_agree_in_checking_mode(monkeypatch):
    trusted = law_chains()
    enter_checking_mode(monkeypatch)
    assert law_chains() == trusted


def test_functor_chains_agree_in_checking_mode(monkeypatch):
    _, build = functor_chains()
    trusted = build()
    enter_checking_mode(monkeypatch)
    assert build() == trusted


def then_dropping_mmap(self, other):
    """A mutant FunctorData.then that keeps self's morphism map."""
    return cb._trusted(FunctorData, self.dom, other.cod,
                       other.omap.compose(self.omap), self.mmap)


def compose_spans_swapping_legs(b, a, pairs=None):
    """A mutant compose_spans whose legs trade places."""
    span = fs.compose_spans(b, a, pairs)
    return fs._trusted(fs.Span, span.src, span.tgt, span.apex,
                       span.right, span.left)


def test_checking_mode_catches_a_then_that_drops_the_mmap(monkeypatch):
    products, _ = functor_chains()
    f, g = products[1], products[len(products) // 2]
    monkeypatch.setattr(FunctorData, "then", then_dropping_mmap)
    assert f.then(g).mmap == f.mmap  # the trusted path lets it through
    enter_checking_mode(monkeypatch)
    with pytest.raises(CatError, match="endpoints"):
        f.then(g)


def vcomp_dropping_a_component(self, other, _vcomp=NatTransData.vcomp):
    """A mutant NatTransData.vcomp that leaves out its first component."""
    n = _vcomp(self, other)
    components = dict(n.components)
    del components[next(iter(components))]
    return cb._trusted(NatTransData, n.source, n.target, components)


def compose_spans_swapping_restricted_legs(b, a, pairs=None):
    """A mutant compose_spans whose sub-spans on given pairs have their
    legs trade places."""
    span = fs.compose_spans(b, a, pairs)
    if pairs is None:
        return span
    return fs._trusted(fs.Span, span.src, span.tgt, span.apex,
                       span.right, span.left)


def test_checking_mode_catches_a_vcomp_that_drops_a_component(monkeypatch):
    products, _ = functor_chains()
    n = cb.NatTransData.identity(products[1])
    monkeypatch.setattr(NatTransData, "vcomp", vcomp_dropping_a_component)
    assert len(n.vcomp(n).components) == len(n.components) - 1
    enter_checking_mode(monkeypatch)
    with pytest.raises(CatError, match="component missing"):
        n.vcomp(n)


def test_checking_mode_catches_a_wrong_restricted_leg(monkeypatch):
    rng = seeded(3)
    be = VectBackend(BraidParam(1))
    b, a = random_composable_vect_cell1s(rng, be, 2)
    while len(b.tgt.carrier) == len(a.src.carrier):
        b, a = random_composable_vect_cell1s(rng, be, 2)
    atoms = hcomp1(b, a).span.apex.elements[::2]
    monkeypatch.setattr(sc, "compose_spans",
                        compose_spans_swapping_restricted_legs)
    hcomp1(b, a)
    hcomp1(b, a, atoms)  # the trusted path lets it through
    enter_checking_mode(monkeypatch)
    hcomp1(b, a)
    with pytest.raises(SpanError, match="left leg"):
        hcomp1(b, a, atoms)


def test_checking_mode_catches_swapped_span_legs(monkeypatch):
    rng = seeded(3)
    be = VectBackend(BraidParam(1))
    b, a = random_composable_vect_cell1s(rng, be, 2)
    while len(b.tgt.carrier) == len(a.src.carrier):
        b, a = random_composable_vect_cell1s(rng, be, 2)
    monkeypatch.setattr(sc, "compose_spans", compose_spans_swapping_legs)
    hcomp1(b, a)  # the trusted path lets it through
    enter_checking_mode(monkeypatch)
    with pytest.raises(SpanError, match="left leg"):
        hcomp1(b, a)


def test_checking_mode_catches_a_misread_rebracketing_or_target(
        monkeypatch):
    # hcomp2 from (c o b) o a reads each atom's pair through via, and
    # lands on a target built already; the trusted path checks neither.
    # A via sending every atom to one pair moves the legs of the others,
    # and a target missing an image misses a value: checking mode
    # refuses both, as it does hcomp2's other inputs.
    rng, be = seeded(5), VectBackend(BraidParam(1))
    while True:
        c, b, a = random_composable_vect_cell1s(rng, be, 3)
        source = hcomp1(hcomp1(c, b), a)
        legs = source.span.left.assignment
        if len(set(legs.values())) > 1:
            break
    g, f = identity_cell2(c), identity_cell2(hcomp1(b, a))
    whole = hcomp1(c, hcomp1(b, a))
    pairs = [sc.regroup(x) for x in source.span.apex.elements]
    some = hcomp1(c, f.source, pairs[1:])
    assert hcomp2(g, f, source, whole, sc.regroup).target is whole

    def one(x):
        return pairs[0]
    enter_checking_mode(monkeypatch)
    assert hcomp2(g, f, source, whole, sc.regroup).target is whole
    with pytest.raises(SpanError, match="legs do not commute"):
        hcomp2(g, f, source, via=one)
    with pytest.raises(SpanError, match="not in codomain"):
        hcomp2(g, f, source, some, sc.regroup)
