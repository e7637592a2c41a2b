import dataclasses
import itertools
import pathlib
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest

from hopfspan import cat_backend as cb
from hopfspan import finset_span as fs
from hopfspan import hopf_structures as hs
from hopfspan import spanv_core as sc
from hopfspan.cli import load_document, load_path
from hopfspan.finset_span import FinSet, FinFn, Span, SpanMorphism
from hopfspan.reporting import CheckReport
from hopfspan.vect_backend import ONE, BraidParam, VMorphism, VObject, \
    braiding, tensor_obj, unit_object
from hopfspan.cat_backend import FinCategory, FunctorData, NatTransData
from hopfspan.monoidale_duoidal import (
    ComonoidLabeledCell, comonoid_cells, duoidal_interchange,
    induced_monoidale, star2,
)
from hopfspan.spanv_core import (
    SpanVError, CatBackend, VectBackend, Cell1, Cell2, associator_cell2,
    cell2_along, eq2, hcomp1, hcomp2, left_unitor_cell2, right_unitor_cell2,
    identity_cell1, identity_cell2, interchange_cell2, invert_cell2,
    product_category, relabel_cell2, tensor1, tensor2, unit_cell0, vcomp2,
)
from hopfspan.hopf_structures import (
    AntipodeFamily, ComonoidStructure, EnrichedCatPresentation,
    EnrichedModule, GroupMonoidPresentation, MonadPresentation,
    MonoidalCatData, PolyadOpmonoidalStructure, _solve_unique,
    check_antipode_duoidal, check_antipode_group, check_enriched_module,
    check_monad, check_opmonoidal, compute_antipode,
    constant_unit_presentation, cyclic_group, cyclic_group_algebra,
    discrete_monoidal_group, em_algebras_restricted, enriched_from_groupoid,
    enriched_module_product, enumerate_modules, enumerate_representations,
    grouplike_monoid_algebra, identity_polyad, idempotent_monoid_presentation,
    image_polyad_report, image_presentation, indiscrete_enriched,
    indiscrete_monoidal_group, is_hopf, left_fusion, monad_cells,
    polyad_fusion, polyad_is_hopf, regular_enriched_module,
    right_fusion, translation_opmonoidal, translation_polyad,
    unit_enriched_module,
)
from test_acceptance import dual_group_document, nichols_document, \
    symmetric3
from test_finset_span import associator_iso, right_unitor_iso
import test_thin

Z2 = (["e", "b"],
      {("e", "e"): "e", ("e", "b"): "b", ("b", "e"): "b", ("b", "b"): "e"},
      "e")
IDEMPOTENT = (["e", "z"],
              {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z",
               ("z", "z"): "z"},
              "e")


def permutation_sign(order, mapping):
    """Sign by inversion count of the image sequence; the mapping must be
    a bijection of `order`."""
    perm = [order.index(mapping[a]) for a in order]
    assert sorted(perm) == list(range(len(order)))
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Monad presentations.


def test_monad_cells_shapes():
    p = cyclic_group_algebra(2).monad
    t, mu2, eta2 = monad_cells(p)
    assert sorted(t.span.apex) == ["b", "e"]
    assert t.span.left("b") == "*" and t.span.right("b") == "*"
    for (h, k) in mu2.source.span.apex:
        assert mu2.morphism.map((h, k)) == Z2[1][(h, k)]
    assert eta2.morphism.map("*") == "e"


def test_check_monad_passes_on_group_algebras():
    for n in (2, 3, 4):
        p = cyclic_group_algebra(n).monad
        assert check_monad(p).ok


def test_check_monad_locates_broken_associativity():
    # Zeroing an entry would be absorbed by zero on both sides of every
    # equation, so corrupt one entry with a wrong nonzero map instead.
    p = cyclic_group_algebra(2)
    obj = p.labels["e"]
    collapse = VMorphism.from_basis_map(tensor_obj(obj, obj), obj,
                                        lambda w: ("e",))
    broken = dict(p.mu)
    broken[("b", "e")] = collapse
    mp = dataclasses.replace(p, mu=broken).monad
    report = check_monad(mp)
    assert not report.ok
    laws = {law for (law, _) in report.failures}
    assert "associativity" in laws
    assert "right unit" in laws


def test_presentation_rejects_missing_multiplication():
    p = cyclic_group_algebra(2)
    partial = {pair: v for pair, v in p.mu.items() if pair != ("b", "b")}
    with pytest.raises(SpanVError) as err:
        dataclasses.replace(p, mu=partial).monad
    assert "multiplication entry missing" in str(err.value)


# ---------------------------------------------------------------------------
# Opmonoidal structure.


def opmonoidal_cells(p, c, fibers=None):
    """The binary and nullary structure cells over the induced monoid
    object: t o m => m o (t . t) and t o u => u."""
    d, t = p.shape, p.cells[0]
    mon = induced_monoidale(d.objects, p.backend, fibers)
    source0 = hcomp1(t, mon.u)
    f0 = Cell2(source0, mon.u,
               SpanMorphism(source0.span, mon.u.span,
                            FinFn(source0.span.apex, mon.u.span.apex,
                                  {(h, x): d.tgt(h)
                                   for (h, x) in source0.span.apex})),
               {(h, x): c.eps[h] for (h, x) in source0.span.apex})
    return hs._binary_cell(p, c, mon.m), f0


def test_opmonoidal_cells_shapes():
    p = cyclic_group_algebra(2)
    mp = p.monad
    f2, f0 = opmonoidal_cells(mp, p.comonoid_structure())
    for (h, x) in f2.source.span.apex:
        assert f2.morphism.map((h, x)) == ("*", (h, h))
        assert f2.components[(h, x)] == p.delta[h]
    for (h, x) in f0.source.span.apex:
        assert f0.components[(h, x)] == p.eps[h]


def test_check_opmonoidal_passes_ungraded():
    for p in (cyclic_group_algebra(2), cyclic_group_algebra(3),
              idempotent_monoid_presentation()):
        mp = p.monad
        assert check_opmonoidal(mp, p.comonoid_structure()).ok


def test_check_opmonoidal_passes_enriched():
    e = indiscrete_enriched(["x", "y"])
    assert check_opmonoidal(e.monad,
                            e.comonoid_structure()).ok


def test_graded_braiding_breaks_the_bimonoid_square():
    # The grouplike comultiplication is only an algebra map when the
    # braiding is trivial on the labels, so any nontrivial q on graded
    # labels must fail exactly the multiplication/comultiplication square
    # while the comonoid laws themselves still hold.
    for qv in (-1, 2, Fraction(1, 3)):
        p = cyclic_group_algebra(2, q=BraidParam(qv), graded=True)
        report = check_opmonoidal(p.monad,
                                  p.comonoid_structure())
        assert not report.ok
        assert {law for (law, _) in report.failures} == \
            {"multiplication respects comultiplication"}


def test_check_opmonoidal_rejects_category_backend():
    opstr = identity_polyad(*Z2, discrete_monoidal_group(*Z2))
    with pytest.raises(SpanVError) as err:
        check_opmonoidal(opstr.monad, opstr.comonoid_structure())
    assert "graded base" in str(err.value)


# ---------------------------------------------------------------------------
# Fusion cells.

# Frozen span-map oracle: tracing the five assembly steps by hand sends
# the composable pair (h, k) to (h k, h), so over the two-element group
# the apex permutation is the 3-cycle below, of sign +1.
Z2_FUSION_MAP = {("e", "e"): ("e", "e"), ("e", "b"): ("b", "e"),
                 ("b", "e"): ("b", "b"), ("b", "b"): ("e", "b")}


def test_left_fusion_span_map_is_the_frozen_permutation():
    p = cyclic_group_algebra(2)
    cell = left_fusion(p.monad, p.comonoid_structure())
    seen = {}
    for ((h, x), (k, _)) in cell.source.span.apex:
        image = cell.morphism.map(((h, x), (k, x)))
        seen[(h, k)] = image[1]
    assert seen == Z2_FUSION_MAP
    order = [("e", "e"), ("e", "b"), ("b", "e"), ("b", "b")]
    assert permutation_sign(order, Z2_FUSION_MAP) == 1


def test_left_fusion_span_map_general_groups():
    for n in (3, 4):
        names, mul, unit = cyclic_group(n)
        p = cyclic_group_algebra(n)
        cell = left_fusion(p.monad, p.comonoid_structure())
        images = set()
        for ((h, x), (k, _)) in cell.source.span.apex:
            image = cell.morphism.map(((h, x), (k, x)))
            assert image[1] == (mul[(h, k)], h)
            images.add(image)
        assert len(images) == n * n


def test_left_fusion_components_match_the_convolution_formula():
    # Independent route: the component at (h, k) must equal
    # (mu (x) 1) (1 (x) braiding) (delta (x) 1) built directly from the
    # presentation data, for trivial and nontrivial braiding alike.
    for qv, graded in ((1, False), (-1, True), (2, True)):
        p = cyclic_group_algebra(2, q=BraidParam(qv), graded=graded)
        mp = p.monad
        c = p.comonoid_structure()
        be = mp.backend
        cell = left_fusion(mp, c)
        for (h, k) in mp.shape.composable_pairs():
            x = mp.shape.tgt(k)
            lab = mp.mor_label
            formula = be.vcomp(
                be.tensor2v(mp.mu[(h, k)], be.id2(lab[h])),
                be.vcomp(
                    be.tensor2v(be.id2(lab[h]),
                                braiding(lab[h], lab[k], be.q)),
                    be.tensor2v(c.delta[h], be.id2(lab[k]))))
            assert cell.components[((h, x), (k, x))] == formula


def test_right_fusion_components_match_the_convolution_formula():
    for qv, graded in ((1, False), (-1, True), (2, True)):
        p = cyclic_group_algebra(2, q=BraidParam(qv), graded=graded)
        mp = p.monad
        c = p.comonoid_structure()
        be = mp.backend
        cell = right_fusion(mp, c)
        for (h, k) in mp.shape.composable_pairs():
            x = mp.shape.tgt(k)
            lab = mp.mor_label
            formula = be.vcomp(
                be.tensor2v(be.id2(lab[h]), mp.mu[(h, k)]),
                be.tensor2v(c.delta[h], be.id2(lab[k])))
            assert cell.components[((h, x), (x, k))] == formula


def five_stage_fusion(p, c, fibers, side):
    """The fusion chain as five whiskered steps, the oracle for _fusion:
    after the interchange, the identity factor is absorbed and the
    multiplication applied as two separate steps, and the associator and
    unitor are relabelings along the span-level isos."""
    order = hs._pair_order(side)
    t, mu2, _ = p.cells
    mon = induced_monoidale(p.shape.objects, p.backend, fibers)
    idc = identity_cell1(mon.base)
    pair = tensor1(*order(t, idc))
    m, tt = mon.m, tensor1(t, t)
    associator = relabel_cell2(
        hcomp1(hcomp1(m, tt), pair), hcomp1(m, hcomp1(tt, pair)),
        associator_iso(m.span, tt.span, pair.span).map)
    unitor = relabel_cell2(hcomp1(t, identity_cell1(t.src)), t,
                           right_unitor_iso(t.span).map)
    one_m = identity_cell2(m)
    cell = hcomp2(hs._binary_cell(p, c, mon.m), identity_cell2(pair))
    cell = vcomp2(associator, cell)
    cell = vcomp2(hcomp2(one_m, interchange_cell2(t, t, *order(t, idc))),
                  cell)
    cell = vcomp2(hcomp2(one_m, tensor2(*order(identity_cell2(mu2.source),
                                               unitor))), cell)
    return vcomp2(hcomp2(one_m, tensor2(*order(mu2, identity_cell2(t)))),
                  cell)


def fusion_inputs():
    """(name, presentation, fibers) for the fusion differential test."""
    golden = pathlib.Path(__file__).parent / "data/golden"
    for n in (2, 3, 4, 5):
        for qv in (1, -1, 2):
            yield ("Z%d graded q=%d" % (n, qv),
                   cyclic_group_algebra(n, BraidParam(qv), graded=True), None)
    for name in ("h4_sweedler", "e2_nichols"):
        yield name, load_path(str(golden / (name + ".json"))).presentation, None
    yield "torsor", enriched_from_groupoid(torsor_groupoid()), None
    yield "indiscrete on 3", indiscrete_enriched(["x", "y", "z"]), None
    yield "idempotent", idempotent_monoid_presentation(), None
    opstr = translation_opmonoidal(*Z2, indiscrete_monoidal_group(*Z2))
    yield "Z2 translation polyad", opstr, opstr.fiber_assignment()


def test_four_stage_fusion_matches_the_five_stage_chain():
    checked = set()
    for name, pres, fibers in fusion_inputs():
        mp, c = pres.monad, pres.comonoid_structure()
        cells = hs.fusion_cells(mp, c, fibers)
        for side, new in zip(("left", "right"), cells):
            old = five_stage_fusion(mp, c, fibers, side)
            assert new.source == old.source, (name, side)
            assert new.target == old.target, (name, side)
            assert new.morphism == old.morphism, (name, side)
            for atom in old.source.span.apex:
                assert new.components[atom] == old.components[atom], \
                    (name, side, atom)
            new_inv, old_inv = invert_cell2(new), invert_cell2(old)
            assert new_inv.witness == old_inv.witness, (name, side)
            assert bool(new_inv) == bool(old_inv)
            if old_inv:
                assert eq2(new_inv.inverse, old_inv.inverse), (name, side)
            checked.add((name, bool(old_inv)))
    assert ("idempotent", False) in checked
    assert len(checked) == 18


def full_bimonoid_chain(p, c):
    """delta . delta, then the interchange, then mu * mu, every stage
    built on its whole target: the oracle for check_opmonoidal's chain."""
    t, mu2, _ = p.cells
    delta2, _ = comonoid_cells(ComonoidLabeledCell(t, dict(c.delta),
                                                   dict(c.eps)))
    return vcomp2(star2(mu2, mu2),
                  vcomp2(duoidal_interchange(t, t, t, t),
                         hcomp2(delta2, delta2)))


def full_fusion(p, c, fibers, side):
    """The four-step fusion chain with every stage built on its whole
    target, on the whole of t . t: the oracle for _fusion."""
    order = hs._pair_order(side)
    d, (t, mu2, _) = p.shape, p.cells
    mon = induced_monoidale(d.objects, p.backend, fibers)
    idc = identity_cell1(mon.base)
    pair, tt = tensor1(*order(t, idc)), tensor1(t, t)
    source = hcomp1(t, mon.m)
    binary = cell2_along(source, hcomp1(mon.m, tt),
                         lambda hx: (d.tgt(hx[0]), (hx[0], hx[0])),
                         {(h, x): c.delta[h] for (h, x) in source.span.apex})
    one_m = identity_cell2(mon.m)
    cell = hcomp2(binary, identity_cell2(pair))
    cell = vcomp2(associator_cell2(mon.m, tt, pair), cell)
    cell = vcomp2(hcomp2(one_m, interchange_cell2(t, t, *order(t, idc))),
                  cell)
    return vcomp2(hcomp2(one_m, tensor2(*order(mu2, right_unitor_cell2(t)))),
                  cell)


def with_scaled_mu(mp, factor):
    """mp with the multiplication at one composable pair scaled."""
    apex = mp.cells[1].source.span.apex
    pair = apex.elements[len(apex) // 2]
    mu = dict(mp.mu)
    mu[pair] = mu[pair].scale(factor)
    return dataclasses.replace(mp, mu=mu)


def chain_inputs():
    """(name, monad presentation, comonoid structure, fibers) for the
    restricted-chain differential test, each graded input also with one
    multiplication component doubled (which breaks the bimonoid square)
    and zeroed (which makes a fusion component singular)."""
    golden = pathlib.Path(__file__).parent / "data/golden"
    inputs = [("Z%d graded q=%d" % (n, qv),
               cyclic_group_algebra(n, BraidParam(qv), graded=True))
              for n in (2, 3, 4) for qv in (1, -1, 2)]
    inputs += [("Z%d constant unit" % n,
                constant_unit_presentation(*cyclic_group(n)))
               for n in (3, 5)]
    inputs += [("S3 constant unit", constant_unit_presentation(*symmetric3())),
               ("indiscrete on 3", indiscrete_enriched(["x", "y", "z"])),
               ("torsor", enriched_from_groupoid(torsor_groupoid()))]
    inputs += [(name, load_path(str(golden / (name + ".json"))).presentation)
               for name in ("h4_sweedler", "e2_nichols")]
    for name, pres in inputs:
        c = pres.comonoid_structure()
        yield name, pres.monad, c, None
        yield name + " doubled mu", with_scaled_mu(pres.monad, 2), c, None
        yield name + " zeroed mu", with_scaled_mu(pres.monad, 0), c, None
    pres = idempotent_monoid_presentation()
    yield "idempotent", pres.monad, pres.comonoid_structure(), None
    opstr = translation_opmonoidal(*Z2, indiscrete_monoidal_group(*Z2))
    yield ("Z2 translation polyad", opstr.monad, opstr.comonoid_structure(),
           opstr.fiber_assignment())


def assert_same_cells(new, old, where):
    assert new.source == old.source, where
    assert new.target == old.target, where
    assert new.morphism == old.morphism, where
    for atom in old.source.span.apex:
        assert new.components[atom] == old.components[atom], (where, atom)


def test_restricted_chains_match_the_fully_built_ones(monkeypatch):
    chains = []
    def recording(u, v, transport=()):
        chains.append(v)
        return eq2(u, v, transport)
    monkeypatch.setattr(hs, "eq2", recording)
    outcomes = set()
    for name, mp, c, fibers in chain_inputs():
        if fibers is None:
            del chains[:]
            report = check_opmonoidal(mp, c)
            t, mu2, _ = mp.cells
            delta2, _ = comonoid_cells(ComonoidLabeledCell(
                t, dict(c.delta), dict(c.eps)))
            lhs, old = vcomp2(delta2, mu2), full_bimonoid_chain(mp, c)
            assert_same_cells(chains[0], old, name)
            verdict, expected = eq2(lhs, chains[0]), eq2(lhs, old)
            assert bool(verdict) == bool(expected), name
            assert verdict.witness == expected.witness, name
            square = "multiplication respects comultiplication"
            assert (square in dict(report.failures)) == (not expected), name
            outcomes.add(("square", bool(expected)))
        for side, new in zip(("left", "right"),
                             hs.fusion_cells(mp, c, fibers)):
            old = full_fusion(mp, c, fibers, side)
            assert_same_cells(new, old, (name, side))
            new_inv, old_inv = invert_cell2(new), invert_cell2(old)
            assert bool(new_inv) == bool(old_inv), (name, side)
            assert new_inv.witness == old_inv.witness, (name, side)
            outcomes.add((side, bool(old_inv)))
    assert outcomes == {(kind, ok) for kind in ("square", "left", "right")
                        for ok in (True, False)}


def largest_span_built(monkeypatch, run):
    """The largest apex of a span that run() builds, through the checking
    constructor or the trusted path."""
    sizes = []
    check = fs.Span.__post_init__
    def checked(span):
        sizes.append(len(span.apex))
        check(span)
    monkeypatch.setattr(fs.Span, "__post_init__", checked)
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfspan.") and hasattr(module, "_trusted"):
            def trusted(cls, *values, _original=module._trusted):
                value = _original(cls, *values)
                if cls is fs.Span:
                    sizes.append(len(value.apex))
                return value
            monkeypatch.setattr(module, "_trusted", trusted)
    run()
    return max(sizes)


@pytest.mark.parametrize("build, ends", [
    (lambda: constant_unit_presentation(*cyclic_group(8)), 64),
    (lambda: indiscrete_enriched(["a", "b", "c", "d", "e"]), 125)],
    ids=["Z8 constant unit", "indiscrete on 5"])
def test_law_chains_build_no_span_larger_than_their_ends(build, ends,
                                                         monkeypatch):
    # Fully built, the bimonoid square on Z_8 passed through 4096-atom
    # stages, and the fusion chains on five objects through 3125.
    pres = build()
    mp, c = pres.monad, pres.comonoid_structure()
    def run():
        assert check_opmonoidal(mp, c).ok
        assert invert_cell2(left_fusion(mp, c))
        assert invert_cell2(right_fusion(mp, c))
    assert largest_span_built(monkeypatch, run) == ends


@pytest.mark.parametrize("build", [
    lambda: cyclic_group_algebra(3, BraidParam(-1), graded=True),
    lambda: indiscrete_enriched(["x", "y", "z"])],
    ids=["Z3 graded q=-1", "indiscrete on 3"])
def test_law_chains_meet_each_seam_by_identity(build, monkeypatch):
    # A fusion cell is one chain from one source 1-cell, so no two
    # distinct 1-cells are compared (4 per cell when each stage built its
    # source again).  check_opmonoidal's squares are such chains but the
    # last; what it still compares are that square's boundaries (12 when
    # each stage of the first built its source again, 8 when only the
    # first was a chain).
    pres = build()
    mp, c = pres.monad, pres.comonoid_structure()
    compared = []
    equal = hs.Cell1.__eq__
    def counted(a, b):
        compared.append(a is not b)
        return equal(a, b)
    monkeypatch.setattr(hs.Cell1, "__eq__", counted)
    for fusion in (left_fusion, right_fusion):
        del compared[:]
        fusion(mp, c)
        assert sum(compared) == 0, fusion.__name__
    del compared[:]
    check_opmonoidal(mp, c)
    assert sum(compared) == 2


def test_groups_are_hopf_and_braiding_does_not_obstruct():
    for p in (cyclic_group_algebra(2), cyclic_group_algebra(3),
              cyclic_group_algebra(3, q=BraidParam(-1), graded=True)):
        assert is_hopf(p.monad, p.comonoid_structure())


def test_idempotent_monoid_is_not_hopf():
    p = idempotent_monoid_presentation()
    verdict = is_hopf(p.monad, p.comonoid_structure())
    assert not verdict
    side, reason, missing = verdict.witness
    assert side == "left"
    assert reason == "span map not surjective"
    assert missing == ("*", ("e", "z"))


# ---------------------------------------------------------------------------
# Antipodes.


def test_inversion_antipode_passes():
    for n in (2, 3, 4):
        p = cyclic_group_algebra(n)
        assert check_antipode_group(p).ok
        assert check_antipode_duoidal(p).ok


def test_identity_antipode_fails_off_involutions():
    p = cyclic_group_algebra(3)
    bad = AntipodeFamily({a: VMorphism.identity(p.labels[a])
                          for a in p.elements})
    report = check_antipode_group(p, bad)
    assert not report.ok
    assert {law for (law, _) in report.failures} == \
        {"(1, sigma) square", "(sigma, 1) square"}
    assembled = check_antipode_duoidal(p, bad)
    assert not assembled.ok
    assert "assembled and componentwise verdicts differ" not in \
        {law for (law, _) in assembled.failures}


def test_duoidal_antipode_agrees_on_graded_labels():
    # The squares never tensor the two label copies against each other,
    # so the inversion family works whatever the braiding; both routes
    # must say so.
    p = cyclic_group_algebra(2, q=BraidParam(-1), graded=True)
    assert check_antipode_group(p).ok
    assert check_antipode_duoidal(p).ok


def test_compute_antipode_recovers_inversion():
    p = cyclic_group_algebra(3)
    res = compute_antipode(p)
    assert res
    sigma = res.family.sigma
    swap = VMorphism(p.labels["e"], p.labels["e"],
                     [[Fraction(1), Fraction(0), Fraction(0)],
                      [Fraction(0), Fraction(0), Fraction(1)],
                      [Fraction(0), Fraction(1), Fraction(0)]])
    for a in p.elements:
        assert sigma[a] == swap


def test_compute_antipode_needs_a_groupoid_shape():
    res = compute_antipode(idempotent_monoid_presentation())
    assert not res
    assert res.witness == ("shape not a groupoid", "z")


def test_compute_antipode_flags_underdetermined_systems():
    p = cyclic_group_algebra(2)
    obj = p.labels["e"]
    zero_delta = {a: VMorphism.zero(obj, tensor_obj(obj, obj))
                  for a in p.elements}
    zero_eps = {a: VMorphism.zero(obj, unit_object())
                for a in p.elements}
    res = compute_antipode(p, ComonoidStructure(zero_delta, zero_eps))
    assert not res
    assert res.witness[0] == "linear system"
    assert res.witness[2][0] == "underdetermined"


def stack(rows, mors, column):
    """Write the entries of mors, flattened row-major one after the other,
    into column of rows, one row per entry."""
    offset = 0
    for mor in mors:
        for r, row in enumerate(mor.rows):
            base = offset + r * mor.dom.dim
            for c, e in row.items():
                rows[base + c][column] = e
        offset += mor.cod.dim * mor.dom.dim


def antipode_squares(p, c, h, g, sigma):
    """Both antipode squares at h, whose shape inverse is g."""
    d = p.shape
    return hs._antipode_squares(p.backend, p.mu[(h, g)], p.mu[(g, h)],
                                p.mor_label[h], sigma, c.delta[h], c.eps[h],
                                p.eta[d.tgt(h)], p.eta[d.src(h)])


def antipode_rows_by_composites(p, c, h, g):
    """The oracle for _antipode_rows: both squares composed out for each
    matrix unit of sigma in turn, one column of the system each."""
    lab_h, lab_g = p.mor_label[h], p.mor_label[g]
    width = lab_g.dim * lab_h.dim
    targets = [unit for _, unit in antipode_squares(
        p, c, h, g, VMorphism.zero(lab_h, lab_g))]
    rows = [{} for t in targets for _ in range(t.cod.dim * t.dom.dim)]
    stack(rows, targets, width)
    for i in range(lab_g.dim):
        for j in range(lab_h.dim):
            unit = VMorphism._from_rows(lab_h, lab_g, [
                {j: ONE} if r == i else {} for r in range(lab_g.dim)])
            (one_sigma, _), (sigma_one, _) = antipode_squares(
                p, c, h, g, unit)
            stack(rows, (one_sigma, sigma_one), i * lab_h.dim + j)
    return rows


def antipode_system_inputs():
    """(name, presentation, comonoid structure) for the antipode system
    differential test: Nichols algebras, the dual of S_3, the torsor,
    graded cyclic groups, and a comonoid with zero comultiplication."""
    for n in (1, 2, 3):
        pres = load_document(nichols_document(n)).presentation
        yield "E(%d)" % n, pres, pres.comonoid_structure()
    pres = load_document(dual_group_document(*symmetric3())).presentation
    yield "Q^S3", pres, pres.comonoid_structure()
    pres = enriched_from_groupoid(torsor_groupoid())
    yield "torsor", pres, pres.comonoid_structure()
    for qv in (-1, 2):
        pres = cyclic_group_algebra(3, BraidParam(qv), graded=True)
        yield "Z3 graded q=%d" % qv, pres, pres.comonoid_structure()
    obj = pres.labels["e"]
    yield "zero comonoid", pres, ComonoidStructure(
        {a: VMorphism.zero(obj, tensor_obj(obj, obj)) for a in pres.elements},
        {a: VMorphism.zero(obj, unit_object()) for a in pres.elements})


def test_antipode_rows_match_the_composed_squares():
    for name, pres, c in antipode_system_inputs():
        mp = pres.monad
        for h in mp.shape.morphisms:
            g = mp.shape.inverse(h)
            assert hs._antipode_rows(mp, c, h, g) == \
                antipode_rows_by_composites(mp, c, h, g), (name, h)


def solve(rows, rhs):
    """_solve_unique on dense rows and right-hand side, as sparse rows."""
    width = len(rows[0]) if rows else 0
    return _solve_unique([{c: Fraction(e) for c, e in enumerate(row + [b])
                           if e} for row, b in zip(rows, rhs)], width)


def test_solve_unique_witnesses_on_hand_built_systems():
    f = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert solve(f, [Fraction(3), Fraction(4)]) == ([1, 1], None)
    # A consistent extra row leaves the unique solution alone.
    assert solve(f + [[Fraction(3), Fraction(4)]],
                 [Fraction(3), Fraction(4), Fraction(7)]) == \
        ([1, 1], None)
    # Column 2 is column 0 plus column 1, found after a row swap.
    rows = [[0, 1, 1], [1, 0, 1], [0, 0, 0]]
    assert solve(rows, [1, 1, 0]) == \
        (None, ("underdetermined", 2))
    # The first of several free columns is reported, even when the
    # system is also inconsistent.
    assert solve([[1, 1, 1], [1, 1, 1]], [0, 1]) == \
        (None, ("underdetermined", 1))
    # Full column rank but no solution: the first nonzero leftover row,
    # counted after the pivot rows were swapped up.
    assert solve([[0, 1], [1, 0], [1, 1], [1, 1]], [1, 1, 3, 0]) == \
        (None, ("inconsistent", 2))
    assert solve([[0, 1], [1, 0], [0, 0], [1, 1]], [1, 1, 0, 3]) == \
        (None, ("inconsistent", 3))
    assert solve([], []) == ([], None)


def test_antipode_checks_need_a_family():
    p = idempotent_monoid_presentation()
    assert p.antipode is None
    with pytest.raises(SpanVError) as err:
        check_antipode_group(p)
    assert "no antipode family" in str(err.value)


# ---------------------------------------------------------------------------
# Hom-enriched presentations.


def torsor_groupoid():
    """Two objects with every hom a two-element set: the product of the
    indiscrete category on two objects with a two-element group."""
    return product_category(FinCategory.indiscrete(["x", "y"]),
                            FinCategory.from_monoid(*Z2))


def test_enriched_indiscrete_pipeline():
    e = indiscrete_enriched(["x", "y"])
    mp = e.monad
    assert check_monad(mp).ok
    assert is_hopf(mp, e.comonoid_structure())
    assert check_antipode_group(e).ok
    assert check_antipode_duoidal(e).ok
    assert compute_antipode(e)


def test_enriched_shape_orientation():
    e = enriched_from_groupoid(torsor_groupoid())
    mp = e.monad
    for (u, v) in mp.shape.morphisms:
        assert mp.mor_label[(u, v)] == e.hom[(v, u)]
    assert check_monad(mp).ok


def test_enriched_groupoid_pipeline():
    e = enriched_from_groupoid(torsor_groupoid())
    mp = e.monad
    c = e.comonoid_structure()
    assert check_opmonoidal(mp, c).ok
    assert is_hopf(mp, c)
    assert check_antipode_group(e).ok
    assert check_antipode_duoidal(e).ok
    res = compute_antipode(e)
    assert res
    assert res.family.sigma == e.antipode.sigma


def test_enriched_identity_family_fails_on_the_torsor():
    # Each hom is a two-element torsor, so inversion genuinely permutes
    # basis elements between different hom objects; the identity family
    # is not even well typed between distinct objects and fails the
    # squares on the diagonal-free pairs once forced through.
    e = enriched_from_groupoid(torsor_groupoid())
    wrong = AntipodeFamily(
        {p: e.antipode.sigma[p] if p[0] == p[1]
         else VMorphism(e.hom[p], e.hom[(p[1], p[0])],
                        [[Fraction(0)] * e.hom[p].dim] * e.hom[p].dim)
         for p in e.hom})
    report = check_antipode_group(e, wrong)
    assert not report.ok
    assembled = check_antipode_duoidal(e, wrong)
    assert not assembled.ok
    assert "assembled and componentwise verdicts differ" not in \
        {law for (law, _) in assembled.failures}


def test_enriched_from_groupoid_rejects_non_groupoids():
    idem = FinCategory.from_monoid(["e", "z"],
                                   {("e", "e"): "e", ("e", "z"): "z",
                                    ("z", "e"): "z", ("z", "z"): "z"},
                                   "e")
    with pytest.raises(SpanVError) as err:
        enriched_from_groupoid(idem)
    assert "groupoid" in str(err.value)


# ---------------------------------------------------------------------------
# One assembled antipode chain for every presentation kind.


H4_FILE = pathlib.Path(__file__).parent / "data/golden/h4_sweedler.json"

WITNESS_PRESENTATIONS = {
    **{"Z%d graded q=%d" % (n, q):
       (lambda n=n, q=q: cyclic_group_algebra(n, BraidParam(q), graded=True))
       for n in (2, 3, 4) for q in (1, -1, 2)},
    "H4": lambda: load_path(str(H4_FILE)).presentation,
    "indiscrete on 2": lambda: indiscrete_enriched(["x", "y"]),
    "indiscrete on 3": lambda: indiscrete_enriched(["x", "y", "z"]),
    "torsor": lambda: enriched_from_groupoid(torsor_groupoid()),
}


@pytest.mark.parametrize("name", sorted(WITNESS_PRESENTATIONS))
def test_assembled_witnesses_match_the_componentwise_ones(name):
    # Corrupt one antipode component at a time.  For each square law the
    # assembled chain must fail at the same shape morphism and matrix
    # entry as the first componentwise failure, whatever the kind.
    pres = WITNESS_PRESENTATIONS[name]()
    sigma = pres.antipode.sigma
    for key in sigma:
        for factor in (2, 0):
            fam = AntipodeFamily({**sigma, key: sigma[key].scale(factor)})
            pointwise = check_antipode_group(pres, fam)
            assembled = check_antipode_duoidal(pres, fam)
            assert not pointwise.ok and not assembled.ok
            for law in ("(1, sigma) square", "(sigma, 1) square"):
                expected = [("component",) + witness
                            for failed, witness in pointwise.failures
                            if failed == law][:1]
                assert [witness for failed, witness in assembled.failures
                        if failed == law] == expected, (key, factor, law)


# ---------------------------------------------------------------------------
# Enriched modules.


def test_unit_and_regular_modules():
    e = enriched_from_groupoid(torsor_groupoid())
    assert check_enriched_module(e, regular_enriched_module(e)).ok
    assert check_enriched_module(e, unit_enriched_module(e)).ok


def test_module_products_close():
    e = enriched_from_groupoid(torsor_groupoid())
    reg = regular_enriched_module(e)
    un = unit_enriched_module(e)
    assert check_enriched_module(e, reg, other=un).ok
    doubled = enriched_module_product(e, reg, reg)
    assert check_enriched_module(e, doubled).ok


def test_module_morphism_square():
    e = indiscrete_enriched(["x", "y"])
    reg = regular_enriched_module(e)
    one = VMorphism.identity(unit_object())
    pairs = [(x, y) for x in e.objects for y in e.objects]
    assert check_enriched_module(e, reg, other=reg,
                                 morphism={p: one for p in pairs}).ok
    zero = VMorphism.zero(unit_object(), unit_object())
    broken = {p: zero if p == ("x", "y") else one for p in pairs}
    report = check_enriched_module(e, reg, other=reg, morphism=broken)
    assert not report.ok
    assert any(law == "morphism square" for (law, _) in report.failures)


def test_broken_action_is_located():
    e = indiscrete_enriched(["x", "y"])
    reg = regular_enriched_module(e)
    psi = dict(reg.psi)
    psi[("x", "y", "x")] = VMorphism.zero(psi[("x", "y", "x")].dom,
                                          psi[("x", "y", "x")].cod)
    report = check_enriched_module(e, EnrichedModule(reg.v, psi))
    assert not report.ok
    laws = {law for (law, _) in report.failures}
    assert "module associativity" in laws or "module unit" in laws


# ---------------------------------------------------------------------------
# Polyads over strictly monoidal fibers.


def test_monoidal_cat_data_validates_units():
    c = FinCategory.discrete(["e", "b"])
    good = discrete_monoidal_group(*Z2)
    with pytest.raises(SpanVError) as err:
        MonoidalCatData(good.cat, good.tensor, "b")
    assert "unit law" in str(err.value)
    assert good.obj_tensor("b", "b") == "e"
    assert c.objects == good.cat.objects


def test_identity_polyad_is_hopf():
    for fiber in (discrete_monoidal_group(*Z2),
                  indiscrete_monoidal_group(*Z2)):
        opstr = identity_polyad(*Z2, fiber)
        assert check_monad(opstr.monad).ok
        assert polyad_is_hopf(opstr)


def test_translation_polyad_monad_axioms():
    for fiber in (discrete_monoidal_group(*Z2),
                  indiscrete_monoidal_group(*Z2)):
        assert check_monad(translation_polyad(*Z2, fiber)).ok


def test_translation_comparison_needs_connected_fibers():
    # Translating by b sends e (x) e to b while b (x) b is e, and the
    # discrete fiber has no morphism between distinct objects, so no
    # comparison structure exists; the indiscrete fiber provides it.
    with pytest.raises(SpanVError) as err:
        translation_opmonoidal(*Z2, discrete_monoidal_group(*Z2))
    assert "no comparison morphism" in str(err.value)
    opstr = translation_opmonoidal(*Z2, indiscrete_monoidal_group(*Z2))
    assert polyad_is_hopf(opstr)


def test_polyad_structure_validation_catches_broken_counits():
    z2cat = FinCategory.from_monoid(*Z2)
    prod = product_category(z2cat, z2cat)
    tensor = FunctorData(
        prod, z2cat,
        FinFn(prod.objects, z2cat.objects, {("*", "*"): "*"}),
        FinFn(prod.morphisms, z2cat.morphisms,
              {(m, n): Z2[1][(m, n)] for (m, n) in prod.morphisms}))
    fiber = MonoidalCatData(z2cat, tensor, "*")
    opstr = identity_polyad(*Z2, fiber)
    assert polyad_is_hopf(opstr)
    # A natural but wrong comparison: the nonidentity group element is
    # natural by commutativity yet fails the counit equation.
    twisted = dict(opstr.d2)
    twisted["b"] = NatTransData(tensor, tensor,
                                {pair: "b" for pair in prod.objects})
    with pytest.raises(SpanVError) as err:
        PolyadOpmonoidalStructure(opstr.monad, opstr.fibers, twisted,
                                  opstr.d0)
    assert "not counital" in str(err.value)


def test_polyad_fusion_matches_the_assembled_cells():
    # Dual route: the per-pair transformations against the components of
    # the generic coherence-cell assembly, on both sides.
    opstr = translation_opmonoidal(*Z2, indiscrete_monoidal_group(*Z2))
    poly = opstr.monad
    com = opstr.comonoid_structure()
    fib = opstr.fiber_assignment()
    left_cell = left_fusion(poly, com, fibers=fib)
    for (h, k), nat in polyad_fusion(opstr, "left").items():
        x = poly.shape.tgt(k)
        assert left_cell.components[((h, x), (k, x))] == nat
    right_cell = right_fusion(poly, com, fibers=fib)
    for (h, k), nat in polyad_fusion(opstr, "right").items():
        x = poly.shape.tgt(k)
        assert right_cell.components[((h, x), (x, k))] == nat
    assert invert_cell2(left_cell)
    assert invert_cell2(right_cell)


def test_polyad_fusion_rejects_unknown_sides():
    opstr = identity_polyad(*Z2, discrete_monoidal_group(*Z2))
    with pytest.raises(SpanVError):
        polyad_fusion(opstr, "middle")


# ---------------------------------------------------------------------------
# Modules, representations, and the restricted-algebra comparison.

# Frozen counts, derived before running the enumerator.  A module picks
# one fiber object per shape object and an action per group element; a
# representation picks one fiber object per group element.  Over the
# discrete fiber the identity polyad leaves both free (two modules, two
# representations, identity morphisms only), while translation by b
# needs a morphism from b q to q, which the discrete fiber lacks: no
# modules at all, and representations must satisfy W_b = b W_e, leaving
# the free choice of W_e.  Over the indiscrete fiber every hom is a
# singleton, so only the object choices count and every pair of carriers
# has exactly one comparison morphism.
EXPECTED_COUNTS = {
    ("identity", "discrete", "modules"): (2, 2),
    ("identity", "discrete", "representations"): (2, 2),
    ("translation", "discrete", "modules"): (0, 0),
    ("translation", "discrete", "representations"): (2, 2),
    ("translation", "indiscrete", "modules"): (2, 4),
    ("translation", "indiscrete", "representations"): (4, 16),
}

# The identity polyad over the indiscrete shape on two objects x, y.
# Over the discrete fiber an action along x -> y forces equal objects at
# x and y (two modules), and a representation's object at a morphism
# depends only on its source (four).  Over the indiscrete fiber every
# pair of objects is a module, and every choice of an object at each of
# the four morphisms a representation (sixteen), with one morphism
# between any two.
PAIR_COUNTS = {
    ("pair", "discrete", "modules"): (2, 2),
    ("pair", "discrete", "representations"): (4, 4),
    ("pair", "indiscrete", "modules"): (4, 16),
    ("pair", "indiscrete", "representations"): (16, 256),
}
# The identity polyad over Z_2 on the idempotent monoid {e, z} as a
# one-object fiber, whose endomorphisms let an action be z.  The laws
# make every action e; without the unit square, acting by z everywhere
# would pass too.  Any endomorphism is a morphism of actions by e.
ENDOMORPHISM_COUNTS = {
    ("identity", "endomorphisms", "modules"): (1, 2),
    ("identity", "endomorphisms", "representations"): (1, 2),
}
# The polyad over the shape 0 -> 1 with the discrete fiber at 0, the
# indiscrete one at 1, and the arrow labeled by the inclusion: objects
# whose fibers differ.  An action along 0 -> 1 lands in the indiscrete
# fiber, so it always exists and constrains nothing.  A module picks any
# object at 0 and at 1 (four); a morphism of modules is an identity at 0
# and any morphism at 1 (eight).  A representation picks any object at
# each of the three morphisms (eight); a morphism between two of them is
# an identity at the identity of 0 and any morphism at the other two
# (thirty-two).
MIXED_COUNTS = {
    ("arrow", "mixed", "modules"): (4, 8),
    ("arrow", "mixed", "representations"): (8, 32),
}
COUNTS = {**EXPECTED_COUNTS, **PAIR_COUNTS, **ENDOMORPHISM_COUNTS,
          **MIXED_COUNTS}


def identity_polyad_over(shape, cat):
    """Every label the identity functor on cat, over any shape."""
    ident = FunctorData.identity(cat)
    one = NatTransData.identity(ident)
    return MonadPresentation(
        CatBackend(), shape, {x: cat for x in shape.objects},
        {h: ident for h in shape.morphisms},
        {pair: one for pair in shape.composable_pairs()},
        {x: one for x in shape.objects})


def inclusion_polyad():
    """Over the shape 0 -> 1: the discrete fiber of Z_2 at 0, the
    indiscrete one at 1, the identities labeled by identity functors and
    the arrow by the inclusion, held by its object map; every structure
    cell is held by its functors, all fibers being thin."""
    shape = test_thin.total_order(2)
    low = discrete_monoidal_group(*Z2).cat
    high = indiscrete_monoidal_group(*Z2).cat
    label = {(0, 0): FunctorData.identity(low),
             (1, 1): FunctorData.identity(high),
             (0, 1): FunctorData.held(low, high, FinFn(
                 low.objects, high.objects, {a: a for a in low.objects}))}
    return MonadPresentation(
        CatBackend(), shape, {0: low, 1: high}, label,
        {(g, f): NatTransData.held(label[f].then(label[g]),
                                   label[shape.compose(g, f)])
         for (g, f) in shape.composable_pairs()},
        {x: NatTransData.identity(label[(x, x)]) for x in shape.objects})


def polyad_fixture(name, fiber_kind):
    if name == "arrow":
        return inclusion_polyad()
    if fiber_kind == "endomorphisms":
        return identity_polyad_over(FinCategory.from_monoid(*Z2),
                                    FinCategory.from_monoid(*IDEMPOTENT))
    fiber = discrete_monoidal_group(*Z2) if fiber_kind == "discrete" \
        else indiscrete_monoidal_group(*Z2)
    if name == "identity":
        return identity_polyad(*Z2, fiber).monad
    if name == "pair":
        return identity_polyad_over(FinCategory.indiscrete(["x", "y"]),
                                    fiber.cat)
    return translation_polyad(*Z2, fiber)


@pytest.mark.parametrize("name,fiber_kind,kind", list(COUNTS))
def test_enumeration_counts(name, fiber_kind, kind):
    p = polyad_fixture(name, fiber_kind)
    cat = enumerate_modules(p) if kind == "modules" \
        else enumerate_representations(p)
    objs, mors = COUNTS[(name, fiber_kind, kind)]
    assert len(list(cat.objects)) == objs
    assert len(list(cat.morphisms)) == mors


def test_translation_representations_satisfy_the_orbit_relation():
    p = polyad_fixture("translation", "discrete")
    cat = enumerate_representations(p)
    for rep in cat.objects:
        w = dict(rep.objects)
        assert w["b"] == Z2[1][("b", w["e"])]


@pytest.mark.parametrize("name,fiber_kind,kind", list(COUNTS))
def test_restricted_algebras_match_enumeration(name, fiber_kind, kind):
    p = polyad_fixture(name, fiber_kind)
    cmp = em_algebras_restricted(p, kind)
    assert cmp.report.ok, cmp.report.summary()
    objs, mors = COUNTS[(name, fiber_kind, kind)]
    assert len(list(cmp.algebras.objects)) == objs
    assert len(list(cmp.algebras.morphisms)) == mors
    assert cmp.forward is not None and cmp.backward is not None
    assert cmp.forward.then(cmp.backward) == \
        FunctorData.identity(cmp.enumerated)


def test_restricted_algebras_reject_the_graded_base():
    p = cyclic_group_algebra(2).monad
    with pytest.raises(SpanVError) as err:
        em_algebras_restricted(p)
    assert "finite-category base" in str(err.value)


def test_restricted_algebras_reject_unknown_kinds():
    with pytest.raises(SpanVError) as err:
        em_algebras_restricted(polyad_fixture("identity", "discrete"),
                               "comodules")
    assert "unknown kind" in str(err.value)


def arrow_candidates(p, shape, a, b):
    """Each family of one fiber hom per key from a's object to b's, read
    pair by pair from the fibers' homs: the oracle of hs._arrows."""
    for combo in itertools.product(*[
            shape.fiber(p, c).hom(x, y) for c, (_, x), (_, y)
            in zip(shape.keys, a.objects, b.objects)]):
        yield tuple(zip(shape.keys.elements, combo))


@pytest.mark.parametrize("name,fiber_kind,kind", list(COUNTS))
def test_arrows_are_the_candidates_read_pair_by_pair(name, fiber_kind, kind):
    p = polyad_fixture(name, fiber_kind)
    shape = hs._action_shape(p, kind)
    actions = [atom for _, _, atom in hs._candidates(p, shape)]

    def holds(a, b, chi):
        return hs._action_morphism_ok(p, shape, a, b, dict(chi))
    pairs = [(a, b, chi) for a in actions for b in actions
             for chi in arrow_candidates(p, shape, a, b)]
    assert hs._arrows(p, shape, actions) == pairs
    assert hs._arrows(p, shape, actions, holds) == [
        arrow for arrow in pairs if holds(*arrow)]


# The whole-cell law formulas that the chains of em_algebras_restricted
# replaced, kept as their oracle: each candidate's carrier on a span of
# its own, its action on the whole composite t o q, and each law through
# the whole associator and left unitor and hcomp2 with identity 2-cells.


def whole_cell_carrier(p, shape, q):
    be, d = p.backend, p.shape
    one0 = unit_cell0(be)
    span = Span(one0.carrier, d.objects, shape.keys, shape.left,
                FinFn.constant(shape.keys, one0.carrier, "*"))
    return Cell1(be, one0, p.cells[0].src, span,
                 {c: cb.point_functor(shape.fiber(p, c), q[c])
                  for c in shape.keys})


def whole_cell_action(shape, t, q1, rho):
    composite = hcomp1(t, q1)
    return cell2_along(composite, q1, shape.out.__getitem__, {
        s: NatTransData(composite.label[s], q1.label[shape.out[s]],
                        {"*": rho[s]}) for s in composite.span.apex})


def whole_cell_laws_hold(p, q1, xi):
    t, mu2, eta2 = p.cells
    lhs = vcomp2(xi, vcomp2(hcomp2(identity_cell2(t), xi),
                            associator_cell2(t, t, q1)))
    if not eq2(lhs, vcomp2(xi, hcomp2(mu2, identity_cell2(q1)))):
        return False
    unit = vcomp2(xi, hcomp2(eta2, identity_cell2(q1)))
    return bool(eq2(unit, left_unitor_cell2(q1)))


def whole_cell_arrow_holds(p, a_q, a_xi, b_q, b_xi, chi):
    cell = cell2_along(a_q, b_q, lambda c: c, {
        c: NatTransData(a_q.label[c], b_q.label[c], {"*": m})
        for (c, m) in chi})
    return bool(eq2(vcomp2(b_xi, hcomp2(identity_cell2(p.cells[0]), cell)),
                    vcomp2(cell, a_xi)))


def whole_cell_em_algebras(p, kind):
    """em_algebras_restricted with every law on whole cells."""
    shape = hs._action_shape(p, kind)
    algebras = []
    for q, rho, _ in hs._candidates(p, shape):
        q1 = whole_cell_carrier(p, shape, q)
        xi = whole_cell_action(shape, p.cells[0], q1, rho)
        if whole_cell_laws_hold(p, q1, xi):
            algebras.append((hs._action_of(shape, q, rho), q1, xi))
    arrows = [(a, b, chi) for (a, a_q, a_xi) in algebras
              for (b, b_q, b_xi) in algebras
              for chi in arrow_candidates(p, shape, a, b)
              if whole_cell_arrow_holds(p, a_q, a_xi, b_q, b_xi, chi)]
    return [a for (a, _, _) in algebras], arrows


class Decided(NamedTuple):
    """A candidate action on both routes, with both law verdicts."""

    action: object
    whole_q: object
    whole_xi: object
    chain: bool
    whole: bool


def kept_by(decide, p, shape, candidates):
    """Whether decide keeps each of candidates, which it returns as it
    was given them, in order."""
    kept = {id(x) for x in decide(p, shape, candidates)}
    return [id(x) in kept for x in candidates]


def assert_chains_match_whole_cells(p, kind, corrupt=None):
    """Candidate by candidate, the same verdict on both routes: the
    algebra laws of every candidate action, decided as one family, then,
    given corrupt, of each lawful one with corrupt applied to its
    actions, and the arrow equation between every two of those of which
    one is lawful, decided as one chain between two families.  Returns
    the decided candidates and the arrow verdicts."""
    shape = hs._action_shape(p, kind)
    actions = [atom for _, _, atom in hs._candidates(p, shape)]
    lawful = kept_by(hs._lawful, p, shape, actions)
    if corrupt:
        extra = [hs._action_of(shape, dict(a.objects),
                               corrupt(dict(a.actions)))
                 for a, ok in zip(actions, lawful) if ok]
        actions += extra
        lawful += kept_by(hs._lawful, p, shape, extra)
    found = []
    for action, chain in zip(actions, lawful):
        q1 = whole_cell_carrier(p, shape, dict(action.objects))
        whole = whole_cell_action(shape, p.cells[0], q1, dict(action.actions))
        found.append(Decided(action, q1, whole, chain,
                             whole_cell_laws_hold(p, q1, whole)))
    assert [c.chain for c in found] == [c.whole for c in found]
    candidates = [(a, b, chi) for a in found for b in found
                  if a.chain or b.chain
                  for chi in arrow_candidates(p, shape, a.action,
                                                  b.action)]
    arrows = kept_by(hs._arrows_hold, p, shape, [
        (a.action, b.action, chi) for a, b, chi in candidates])
    assert arrows == [whole_cell_arrow_holds(p, a.whole_q, a.whole_xi,
                                             b.whole_q, b.whole_xi, chi)
                      for a, b, chi in candidates]
    return found, arrows


def assert_same_comparison(p, kind):
    cmp = em_algebras_restricted(p, kind)
    objects, arrows = whole_cell_em_algebras(p, kind)
    assert cmp.algebras.objects.elements == tuple(objects)
    assert cmp.algebras.morphisms.elements == tuple(arrows)
    enumerated = hs._enumerate_actions(p, kind)
    report = CheckReport("restricted algebras (%s)" % kind)
    if len(enumerated.objects) != len(objects):
        report.fail("object count", (len(enumerated.objects), len(objects)))
    if len(enumerated.morphisms) != len(arrows):
        report.fail("morphism count", (len(enumerated.morphisms),
                                       len(arrows)))
    assert cmp.report == report
    if report.ok:
        assert (cmp.forward.omap, cmp.forward.mmap) == (
            FinFn.identity(enumerated.objects),
            FinFn.identity(enumerated.morphisms))
        assert (cmp.backward.omap, cmp.backward.mmap) == (
            FinFn.identity(cmp.algebras.objects),
            FinFn.identity(cmp.algebras.morphisms))
    return cmp


@pytest.mark.parametrize("name,fiber_kind,kind", list(COUNTS))
def test_law_chains_match_the_whole_cell_formulas(name, fiber_kind, kind):
    p = polyad_fixture(name, fiber_kind)
    found, arrows = assert_chains_match_whole_cells(p, kind)
    objs, mors = COUNTS[(name, fiber_kind, kind)]
    assert sum(c.chain for c in found) == objs
    if fiber_kind == "endomorphisms":
        # The fiber is not thin: candidates fail, and so do arrows.
        assert not all(c.chain for c in found) and not all(arrows)
    assert_same_comparison(p, kind)


def corrupted_mu(p):
    """p with the multiplication at (b, b) acting by z, natural since
    the idempotent monoid is commutative: its cells build, but its laws
    read a wrong component."""
    ident = p.mor_label["b"]
    mu = dict(p.mu)
    mu[("b", "b")] = NatTransData(ident, ident, {"*": "z"})
    return MonadPresentation(p.backend, p.shape, p.base_label, p.mor_label,
                             mu, p.eta)


@pytest.mark.parametrize("kind", ["modules", "representations"])
def test_law_chains_match_with_one_mu_component_corrupted(kind):
    p = corrupted_mu(polyad_fixture("identity", "endomorphisms"))
    found, _ = assert_chains_match_whole_cells(p, kind)
    assert not all(c.chain for c in found)
    assert_same_comparison(p, kind)


def test_law_chains_match_with_one_action_corrupted():
    # Every lawful module acts by e; acting by z along b instead breaks
    # associativity at (b, b) on both routes, and the arrow equations
    # into and out of it are decided alike.
    p = polyad_fixture("identity", "endomorphisms")
    found, arrows = assert_chains_match_whole_cells(
        p, "modules", lambda rho: {**rho, ("b", "*"): "z"})
    lawful = sum(c.chain for c in found[:-1])
    assert lawful == 1 and not found[-1].chain and not found[-1].whole
    assert True in arrows and False in arrows


# The tabulated category of actions and the arrow equations that
# em_algebras_restricted no longer builds over thin fibers, kept as its
# oracle: every composite composed in the fibers and tabulated, and
# every arrow candidate decided on its chains (hs._arrows_hold).


def tabulated_category_of_actions(p, shape, objects, arrows):
    objects_f, morphisms_f = FinSet(objects), FinSet(arrows)
    fiber = {c: shape.fiber(p, c) for c in shape.keys}
    identities = {a: (a, a, tuple((c, fiber[c].identities(x))
                                  for (c, x) in a.objects))
                  for a in objects}
    composition = {}
    for m2 in arrows:
        left = dict(m2[2])
        for m1 in arrows:
            if m1[1] == m2[0]:
                composition[(m2, m1)] = (m1[0], m2[1], tuple(
                    (c, fiber[c].compose(left[c], right))
                    for (c, right) in m1[2]))
    return FinCategory(objects_f, morphisms_f,
                       FinFn(morphisms_f, objects_f, {m: m[0] for m in arrows}),
                       FinFn(morphisms_f, objects_f, {m: m[1] for m in arrows}),
                       FinFn(objects_f, morphisms_f, identities), composition)


def tabulated_em_algebras(p, kind):
    """em_algebras_restricted with every arrow equation decided and both
    categories tabulated."""
    shape = hs._action_shape(p, kind)
    candidates = [atom for _, _, atom in hs._candidates(p, shape)]
    algebras = hs._lawful(p, shape, candidates)
    arrows = hs._arrows_hold(p, shape, [
        (a, b, chi) for a in algebras for b in algebras
        for chi in arrow_candidates(p, shape, a, b)])
    algebra_cat = tabulated_category_of_actions(p, shape, algebras, arrows)
    actions = [hs._action_of(shape, q, rho)
               for q, rho, _ in hs._candidates(p, shape)
               if hs._action_laws_hold(p, shape, q, rho)]
    enumerated = tabulated_category_of_actions(p, shape, actions, [
        (a, b, chi) for a in actions for b in actions
        for chi in arrow_candidates(p, shape, a, b)
        if hs._action_morphism_ok(p, shape, a, b, dict(chi))])
    report = CheckReport("restricted algebras (%s)" % kind)
    if (len(enumerated.objects), len(enumerated.morphisms)) != \
            (len(algebras), len(arrows)):
        report.fail("count", None)
    forward = backward = None
    if report.ok and set(enumerated.morphisms) == set(arrows):
        forward = hs._inclusion_functor(enumerated, algebra_cat)
        backward = hs._inclusion_functor(algebra_cat, enumerated)
    return hs.RestrictedAlgebraComparison(kind, algebra_cat, enumerated,
                                          forward, backward, report)


def assert_same_as_tabulated(p, kind):
    cmp, oracle = em_algebras_restricted(p, kind), tabulated_em_algebras(p, kind)
    assert cmp.report == oracle.report
    for mine, theirs in [(cmp.algebras, oracle.algebras),
                         (cmp.enumerated, oracle.enumerated)]:
        assert mine.objects.elements == theirs.objects.elements
        assert mine.morphisms.elements == theirs.morphisms.elements
        assert (mine.src, mine.tgt, mine.identities) == \
            (theirs.src, theirs.tgt, theirs.identities)
        assert mine.composition == theirs.composition
        assert theirs.composition == mine.composition
    for mine, theirs in [(cmp.forward, oracle.forward),
                         (cmp.backward, oracle.backward)]:
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert (mine.omap, mine.mmap) == (theirs.omap, theirs.mmap)
    return cmp


@pytest.mark.parametrize("name,fiber_kind,kind", list(COUNTS))
def test_restricted_algebras_match_the_tabulated_oracle(name, fiber_kind,
                                                        kind):
    p = polyad_fixture(name, fiber_kind)
    cmp = assert_same_as_tabulated(p, kind)
    thin = fiber_kind != "endomorphisms"
    for c in (cmp.algebras, cmp.enumerated):
        assert (type(c.composition) is cb.ThinTable) == thin


@pytest.mark.parametrize("kind", ["modules", "representations"])
def test_restricted_algebras_match_the_tabulated_oracle_with_mu_corrupted(
        kind):
    assert_same_as_tabulated(
        corrupted_mu(polyad_fixture("identity", "endomorphisms")), kind)


@pytest.mark.parametrize("name,fiber_kind,kind", list(COUNTS))
def test_over_thin_fibers_every_arrow_candidate_holds(name, fiber_kind, kind):
    # The premise of taking every arrow candidate as an arrow over thin
    # fibers: there every candidate action is lawful, and the equation
    # holds between any two.  Over the endomorphisms fiber it fails
    # between some, and between more once every action is z.
    p = polyad_fixture(name, fiber_kind)
    _, arrows = assert_chains_match_whole_cells(p, kind)
    if fiber_kind != "endomorphisms":
        assert all(arrows)
        return
    _, corrupted = assert_chains_match_whole_cells(
        p, kind, lambda rho: {s: "z" for s in rho})
    assert not all(arrows) and corrupted.count(False) > arrows.count(False)


# The per-candidate path that one carrier family and the search on
# objects replaced, kept as its oracle: one carrier per candidate, its
# labels a dict of point functors, the search composing every law and
# arrow equation in the fibers, and the two sides' categories built
# apart and compared through two inclusion functors composed both ways.


class OracleCarrier(NamedTuple):
    """One candidate's carrier q with the composite t o q its action
    starts from, and the steps its laws take: the associator (t o t) o q
    => t o (t o q) and mu o 1_q, both from (t o t) o q, eta o 1_q and the
    left unitor, both from id o q, and the identity on t o q, where a
    morphism's equation starts."""

    q: object
    tq: object
    assoc: object
    mult: object
    unit: object
    unitor: object
    start: object


def oracle_algebra_cell(shape, carrier, rho):
    tq, q1 = carrier.tq, carrier.q
    return cell2_along(tq, q1, shape.out.__getitem__, {
        s: NatTransData(tq.label[s], q1.label[shape.out[s]], {"*": rho[s]})
        for s in tq.span.apex})


def oracle_laws_hold(idt, carrier, xi):
    lhs = vcomp2(xi, test_thin.whiskered(carrier.assoc, idt, xi, carrier.tq))
    if not eq2(lhs, vcomp2(xi, carrier.mult)):
        return False
    return bool(eq2(vcomp2(xi, carrier.unit), carrier.unitor))


def oracle_arrow_holds(idt, a, a_xi, b, b_xi, chi):
    cell = cell2_along(a.q, b.q, lambda c: c, {
        c: NatTransData(a.q.label[c], b.q.label[c], {"*": m})
        for (c, m) in chi})
    return bool(eq2(vcomp2(b_xi, test_thin.whiskered(a.start, idt, cell, b.tq)),
                    vcomp2(cell, a_xi)))


def per_atom_carriers(p, shape):
    be, d = p.backend, p.shape
    t, mu2, eta2 = p.cells
    one0 = unit_cell0(be)
    span = Span(one0.carrier, d.objects, shape.keys, shape.left,
                FinFn.constant(shape.keys, one0.carrier, "*"))
    t_q, tt_q, i_q = [fs.compose_spans(b.span, span)
                      for b in (t, mu2.source, eta2.source)]
    t_tq = fs.compose_spans(t.span, t_q)

    def carrier(q):
        q1 = Cell1(be, one0, t.src, span, {
            c: cb.point_functor(shape.fiber(p, c), q[c]) for c in shape.keys})
        tq = sc._composite(t, q1, t_q)
        ttq, iq = sc._composite(mu2.source, q1, tt_q), \
            sc._composite(eta2.source, q1, i_q)
        from_ttq, from_iq = identity_cell2(ttq), identity_cell2(iq)
        idq = identity_cell2(q1)
        return OracleCarrier(
            q1, tq, test_thin.relabeled(from_ttq, sc.regroup,
                              sc._composite(t, tq, t_tq)),
            test_thin.whiskered(from_ttq, mu2, idq, tq),
            test_thin.whiskered(from_iq, eta2, idq, tq),
            test_thin.relabeled(from_iq, lambda d: d[1], q1), identity_cell2(tq))
    return carrier


def per_atom_em_algebras(p, kind):
    shape = hs._action_shape(p, kind)
    idt = identity_cell2(p.cells[0])
    carrier_at = per_atom_carriers(p, shape)
    algebras = []
    for q, rho, _ in hs._candidates(p, shape):
        carrier = carrier_at(q)
        xi = oracle_algebra_cell(shape, carrier, rho)
        if oracle_laws_hold(idt, carrier, xi):
            algebras.append((hs._action_of(shape, q, rho), carrier, xi))
    thin = shape.thin(p)
    arrows = [(a, b, chi) for (a, a_c, a_xi) in algebras
              for (b, b_c, b_xi) in algebras
              for chi in arrow_candidates(p, shape, a, b)
              if thin or oracle_arrow_holds(idt, a_c, a_xi, b_c, b_xi, chi)]
    algebra_cat = hs._category_of_actions(
        p, shape, [a for (a, _, _) in algebras], arrows)
    actions = [hs._action_of(shape, q, rho)
               for q, rho, _ in hs._candidates(p, shape)
               if hs._action_laws_hold(p, shape, q, rho)]
    enumerated = hs._category_of_actions(p, shape, actions, [
        (a, b, chi) for a in actions for b in actions
        for chi in arrow_candidates(p, shape, a, b)
        if hs._action_morphism_ok(p, shape, a, b, dict(chi))])
    report = CheckReport("restricted algebras (%s)" % kind)
    if len(enumerated.objects) != len(algebras):
        report.fail("object count", (len(enumerated.objects), len(algebras)))
    if len(enumerated.morphisms) != len(arrows):
        report.fail("morphism count",
                    (len(enumerated.morphisms), len(arrows)))
    forward = backward = None
    if report.ok:
        forward, backward = [FunctorData(
            src, tgt, FinFn.identity(tgt.objects),
            FinFn.identity(tgt.morphisms)) for src, tgt in (
                (enumerated, algebra_cat), (algebra_cat, enumerated))]
        if forward.then(backward) != FunctorData.identity(enumerated) or \
                backward.then(forward) != FunctorData.identity(algebra_cat):
            report.fail("functor pair does not invert", kind)
    return hs.RestrictedAlgebraComparison(kind, algebra_cat, enumerated,
                                          forward, backward, report)


def assert_same_as_per_atom(p, kind):
    cmp, oracle = em_algebras_restricted(p, kind), per_atom_em_algebras(p, kind)
    assert cmp.report == oracle.report
    for mine, theirs in [(cmp.algebras, oracle.algebras),
                         (cmp.enumerated, oracle.enumerated)]:
        assert mine.objects.elements == theirs.objects.elements
        assert mine.morphisms.elements == theirs.morphisms.elements
        assert (mine.src, mine.tgt, mine.identities) == \
            (theirs.src, theirs.tgt, theirs.identities)
        assert mine.composition == theirs.composition
    for mine, theirs in [(cmp.forward, oracle.forward),
                         (cmp.backward, oracle.backward)]:
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert (mine.dom, mine.cod, mine.omap, mine.mmap) == \
                (theirs.dom, theirs.cod, theirs.omap, theirs.mmap)
    return cmp


def max_translation():
    """Translation by max on the total order 0 < 1 < 2, tensored by max:
    thin, with an empty hom at some slots of some candidates (a module
    needs f <= q at every f, so only q = 2 is one)."""
    d = test_thin.total_order(3)
    prod = product_category(d, d)
    fiber = MonoidalCatData(d, FunctorData.held(prod, d, FinFn(
        prod.objects, d.objects, {(x, y): max(x, y) for (x, y)
                                  in prod.objects})), 0)
    return translation_polyad(range(3), {(u, a): max(u, a) for u in range(3)
                                         for a in range(3)}, 0, fiber)


FIXTURES = {**{key: (lambda key=key: polyad_fixture(*key[:2]))
               for key in COUNTS},
            ("translation", "max", "modules"): max_translation,
            ("translation", "max", "representations"): max_translation}


@pytest.mark.parametrize("mode", ["trusted", "checking"])
@pytest.mark.parametrize("name,fiber_kind,kind", list(FIXTURES))
def test_restricted_algebras_match_the_per_atom_path(name, fiber_kind, kind,
                                                     mode, monkeypatch):
    if mode == "checking":
        from test_trusted import enter_checking_mode
        enter_checking_mode(monkeypatch)
    p = FIXTURES[(name, fiber_kind, kind)]()
    cmp = assert_same_as_per_atom(p, kind)
    assert cmp.report.ok
    thin = fiber_kind != "endomorphisms"
    assert (cmp.algebras is cmp.enumerated) == thin
    if (name, fiber_kind, kind) in COUNTS:
        assert (len(cmp.algebras.objects), len(cmp.algebras.morphisms)) == \
            COUNTS[(name, fiber_kind, kind)]


@pytest.mark.parametrize("name,fiber_kind,kind", [
    key for key in FIXTURES if key[1] != "endomorphisms"])
def test_the_object_rule_accepts_the_candidates_the_laws_accept(
        name, fiber_kind, kind):
    # Over a thin fiber the search takes an object family with a
    # non-empty hom at every slot as an action, and every arrow candidate
    # between two as an arrow; composing each law and arrow equation in
    # the fibers accepts the same ones, family by family, and refuses
    # the families with an empty hom at a slot.
    p = FIXTURES[(name, fiber_kind, kind)]()
    shape, d = hs._action_shape(p, kind), p.shape
    found = hs._enumerate_actions(p, kind)
    accepted = {tuple(x for (_, x) in a.objects) for a in found.objects}
    keys, refused = list(shape.keys), 0
    for combo in itertools.product(*[shape.fiber(p, c).objects.elements
                                     for c in keys]):
        q = dict(zip(keys, combo))
        pools = [p.base_label[d.tgt(f)].hom(p.mor_label[f].omap(q[c]),
                                            q[shape.out[(f, c)]])
                 for (f, c) in shape.slots]
        lawful = any(hs._action_laws_hold(p, shape, q,
                                          dict(zip(shape.slots, acts)))
                     for acts in itertools.product(*pools))
        assert lawful == all(pools)
        assert lawful == (combo in accepted)
        refused += not lawful
    if fiber_kind in ("discrete", "max") and name == "translation":
        assert refused
    arrows = set(found.morphisms)
    for a in found.objects:
        for b in found.objects:
            for chi in arrow_candidates(p, shape, a, b):
                assert hs._action_morphism_ok(p, shape, a, b, dict(chi))
                assert (a, b, chi) in arrows


# The per-kind enumeration that the single action enumeration replaced,
# kept as its oracle: one record and two law checkers per kind, module
# actions keyed by shape morphism.


@dataclasses.dataclass(frozen=True)
class OracleModule:
    objects: tuple
    actions: tuple

    def obj(self, x):
        return dict(self.objects)[x]

    def action(self, f):
        return dict(self.actions)[f]


@dataclasses.dataclass(frozen=True)
class OracleRepresentation:
    objects: tuple
    actions: tuple

    def obj(self, k):
        return dict(self.objects)[k]

    def action(self, pair):
        return dict(self.actions)[pair]


def oracle_module_squares_ok(p, q, rho):
    d = p.shape
    for (f, g) in d.composable_pairs():
        cat = p.base_label[d.tgt(f)]
        lhs = cat.compose(rho[d.compose(f, g)],
                          p.mu[(f, g)].components[q[d.src(g)]])
        rhs = cat.compose(rho[f], p.mor_label[f].mmap(rho[g]))
        if lhs != rhs:
            return False
    for x in d.objects:
        cat = p.base_label[x]
        if cat.compose(rho[d.identities(x)], p.eta[x].components[q[x]]) != \
                cat.identities(q[x]):
            return False
    return True


def oracle_module_morphism_ok(p, a, b, chi):
    d = p.shape
    for g in d.morphisms:
        cat = p.base_label[d.tgt(g)]
        if cat.compose(b.action(g), p.mor_label[g].mmap(chi[d.src(g)])) != \
                cat.compose(chi[d.tgt(g)], a.action(g)):
            return False
    return True


def oracle_enumerate_modules(p):
    d = p.shape
    objs, mors = list(d.objects), list(d.morphisms)
    modules = []
    for combo in itertools.product(*[list(p.base_label[x].objects)
                                     for x in objs]):
        q = dict(zip(objs, combo))
        pools = []
        for f in mors:
            cat = p.base_label[d.tgt(f)]
            pools.append(cat.hom(p.mor_label[f].omap(q[d.src(f)]),
                                 q[d.tgt(f)]))
        for acts in itertools.product(*pools):
            rho = dict(zip(mors, acts))
            if oracle_module_squares_ok(p, q, rho):
                modules.append(OracleModule(
                    tuple((x, q[x]) for x in objs),
                    tuple((f, rho[f]) for f in mors)))
    arrows = []
    for a in modules:
        for b in modules:
            pools = [p.base_label[x].hom(a.obj(x), b.obj(x)) for x in objs]
            for combo in itertools.product(*pools):
                chi = dict(zip(objs, combo))
                if oracle_module_morphism_ok(p, a, b, chi):
                    arrows.append((a, b, tuple((x, chi[x]) for x in objs)))
    return oracle_category(p, modules, arrows, objs, lambda x: x)


def oracle_representation_squares_ok(p, w, rho):
    d = p.shape
    for (g, k) in d.composable_pairs():
        for f in d.morphisms:
            if d.src(f) != d.tgt(g):
                continue
            cat = p.base_label[d.tgt(f)]
            lhs = cat.compose(rho[(d.compose(f, g), k)],
                              p.mu[(f, g)].components[w[k]])
            rhs = cat.compose(rho[(f, d.compose(g, k))],
                              p.mor_label[f].mmap(rho[(g, k)]))
            if lhs != rhs:
                return False
    for k in d.morphisms:
        cat = p.base_label[d.tgt(k)]
        e = d.identities(d.tgt(k))
        if cat.compose(rho[(e, k)], p.eta[d.tgt(k)].components[w[k]]) != \
                cat.identities(w[k]):
            return False
    return True


def oracle_representation_morphism_ok(p, a, b, phi):
    d = p.shape
    for (g, k) in d.composable_pairs():
        cat = p.base_label[d.tgt(g)]
        if cat.compose(b.action((g, k)),
                       p.mor_label[g].mmap(phi[k])) != \
                cat.compose(phi[d.compose(g, k)], a.action((g, k))):
            return False
    return True


def oracle_enumerate_representations(p):
    d = p.shape
    mors = list(d.morphisms)
    pairs = d.composable_pairs()
    reps = []
    for combo in itertools.product(*[list(p.base_label[d.tgt(k)].objects)
                                     for k in mors]):
        w = dict(zip(mors, combo))
        pools = []
        for (g, k) in pairs:
            cat = p.base_label[d.tgt(g)]
            pools.append(cat.hom(p.mor_label[g].omap(w[k]),
                                 w[d.compose(g, k)]))
        for acts in itertools.product(*pools):
            rho = dict(zip(pairs, acts))
            if oracle_representation_squares_ok(p, w, rho):
                reps.append(OracleRepresentation(
                    tuple((k, w[k]) for k in mors),
                    tuple((pair, rho[pair]) for pair in pairs)))
    arrows = []
    for a in reps:
        for b in reps:
            pools = [p.base_label[d.tgt(k)].hom(a.obj(k), b.obj(k))
                     for k in mors]
            for combo in itertools.product(*pools):
                phi = dict(zip(mors, combo))
                if oracle_representation_morphism_ok(p, a, b, phi):
                    arrows.append((a, b, tuple((k, phi[k]) for k in mors)))
    return oracle_category(p, reps, arrows, mors, d.tgt)


def oracle_category(p, objects, arrows, keys, over):
    """The category of enumerated actions; key c lives in the fiber at
    over(c)."""
    objects_f = FinSet(objects)
    morphisms_f = FinSet(arrows)
    identities = {a: (a, a, tuple(
        (c, p.base_label[over(c)].identities(a.obj(c))) for c in keys))
        for a in objects}
    composition = {}
    for m2 in arrows:
        for m1 in arrows:
            if m1[1] != m2[0]:
                continue
            left, right = dict(m2[2]), dict(m1[2])
            composition[(m2, m1)] = (m1[0], m2[1], tuple(
                (c, p.base_label[over(c)].compose(left[c], right[c]))
                for c in keys))
    return FinCategory(objects_f, morphisms_f,
                       FinFn(morphisms_f, objects_f,
                             {m: m[0] for m in arrows}),
                       FinFn(morphisms_f, objects_f,
                             {m: m[1] for m in arrows}),
                       FinFn(objects_f, morphisms_f, identities),
                       composition)


def category_tables(cat, atom):
    """Objects, morphisms, identities and composition of an action
    category, with every action record replaced by atom(record)."""
    def arrow(m):
        return (atom(m[0]), atom(m[1]), m[2])
    return ({atom(a) for a in cat.objects},
            {arrow(m) for m in cat.morphisms},
            {atom(a): arrow(cat.identities(a)) for a in cat.objects},
            {(arrow(g), arrow(f)): arrow(gf)
             for (g, f), gf in cat.composition.items()})


DIFFERENTIAL_POLYADS = {
    "identity-discrete": lambda: polyad_fixture("identity", "discrete"),
    "translation-discrete":
        lambda: polyad_fixture("translation", "discrete"),
    "translation-indiscrete":
        lambda: polyad_fixture("translation", "indiscrete"),
    "identity-idempotent": lambda: identity_polyad(
        *IDEMPOTENT, discrete_monoidal_group(*IDEMPOTENT)).monad,
    "pair-discrete": lambda: polyad_fixture("pair", "discrete"),
    "pair-indiscrete": lambda: polyad_fixture("pair", "indiscrete"),
    "discrete-pair-discrete": lambda: identity_polyad_over(
        FinCategory.discrete(["x", "y"]),
        discrete_monoidal_group(*Z2).cat),
    "discrete-pair-indiscrete": lambda: identity_polyad_over(
        FinCategory.discrete(["x", "y"]),
        indiscrete_monoidal_group(*Z2).cat),
    "identity-endomorphisms":
        lambda: polyad_fixture("identity", "endomorphisms"),
}


@pytest.mark.parametrize("kind", ["modules", "representations"])
@pytest.mark.parametrize("name", list(DIFFERENTIAL_POLYADS))
def test_action_enumeration_matches_the_per_kind_oracle(name, kind):
    p = DIFFERENTIAL_POLYADS[name]()
    d = p.shape
    if kind == "modules":
        cat, oracle = enumerate_modules(p), oracle_enumerate_modules(p)

        def oracle_atom(m):
            return (m.objects,
                    tuple(((f, d.src(f)), rho) for (f, rho) in m.actions))
    else:
        cat = enumerate_representations(p)
        oracle = oracle_enumerate_representations(p)

        def oracle_atom(m):
            return (m.objects, m.actions)
    assert category_tables(cat, lambda a: (a.objects, a.actions)) == \
        category_tables(oracle, oracle_atom)


# ---------------------------------------------------------------------------
# Images under the tensoring functor.


def test_image_report_on_group_algebras():
    probes = (unit_object(), VObject([(("m",), 1)]))
    for n in (2, 3):
        p = cyclic_group_algebra(n)
        report, imaged, backend = image_polyad_report(p, probes)
        assert report.ok, report.summary()
        assert check_monad(imaged).ok


def test_image_report_flags_non_groupoids():
    probes = (unit_object(),)
    report, _, _ = image_polyad_report(idempotent_monoid_presentation(),
                                       probes)
    assert not report.ok
    assert any(law == "shape not a groupoid" for (law, _) in report.failures)


def test_image_needs_probes():
    with pytest.raises(SpanVError) as err:
        image_polyad_report(cyclic_group_algebra(2), ())
    assert "probe" in str(err.value)


def test_image_presentation_rejects_category_valued_input():
    poly = identity_polyad(*Z2, discrete_monoidal_group(*Z2)).monad
    with pytest.raises(SpanVError) as err:
        image_presentation(poly, (unit_object(),))
    assert "graded base" in str(err.value)
