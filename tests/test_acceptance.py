"""Acceptance gate: twenty-eight criteria, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each test asserts its own runtime bound so a slow regression fails
loudly instead of quietly eating the budget; case counts are printed
where a criterion is quantified over randomized data.
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

from hopfspan import hopf_structures as hs
from hopfspan.cat_backend import FinCategory, FunctorData
from hopfspan.cli import load_path, main
from hopfspan.finset_span import FinSet
from hopfspan.monoidale_duoidal import (
    check_duoidal, check_frobenius, duoidal_units, zunino_check,
)
from rand import (
    random_composable_vect_cell1s, random_vect_cell1, random_vect_cell2_from,
    seeded,
)
from test_finset_span import associator_iso, left_unitor_iso, right_unitor_iso
from hopfspan.spanv_core import (
    CatBackend, VectBackend, associator_cell2, eq2, hcomp1, hcomp2,
    identity_cell2, invert_cell2, left_unitor_cell2, product_category,
    relabel_cell2, right_unitor_cell2, vcomp2,
)
from hopfspan.vect_backend import BraidParam, VObject, braiding, determinant

DATA = pathlib.Path(__file__).parent / "data"

Z2 = (["e", "b"],
      {("e", "e"): "e", ("e", "b"): "b", ("b", "e"): "b", ("b", "b"): "e"},
      "e")

IDEMPOTENT = (["e", "z"],
              {("e", "e"): "e", ("e", "z"): "z",
               ("z", "e"): "z", ("z", "z"): "z"},
              "e")


def finish(number, label, start, bound, cases=None):
    elapsed = time.monotonic() - start
    count = "" if cases is None else ", %d cases" % cases
    print("criterion %d (%s): PASS in %.2fs of %gs%s"
          % (number, label, elapsed, bound, count))
    assert elapsed < bound


def carrier(n):
    return FinSet(["x%d" % k for k in range(n)])


def torsor_enriched():
    return hs.enriched_from_groupoid(product_category(
        FinCategory.indiscrete(["x", "y"]),
        FinCategory.from_monoid(*Z2)))


def test_criterion_1_bicategory_coherence():
    start = time.monotonic()
    rng = seeded(101)
    cases = 0
    for qv in (1, -1, 2):
        be = VectBackend(BraidParam(qv))
        for _ in range(60):
            c, b, a = random_composable_vect_cell1s(rng, be, 3)
            al = associator_cell2(c, b, a)
            assert invert_cell2(al)
            lhs = hcomp1(hcomp1(c, b), a)
            rhs = hcomp1(c, hcomp1(b, a))
            iso = associator_iso(c.span, b.span, a.span)
            assert eq2(vcomp2(al, identity_cell2(lhs)),
                       relabel_cell2(lhs, rhs, iso.map))
            cases += 1
        for _ in range(60):
            b, a = random_composable_vect_cell1s(rng, be, 2)
            f1 = random_vect_cell2_from(rng, a)
            g1 = random_vect_cell2_from(rng, b)
            f2 = random_vect_cell2_from(rng, f1.source)
            g2 = random_vect_cell2_from(rng, g1.source)
            assert eq2(vcomp2(hcomp2(g1, f1), hcomp2(g2, f2)),
                       hcomp2(vcomp2(g1, g2), vcomp2(f1, f2)))
            cases += 1
        for _ in range(30):
            (a,) = random_composable_vect_cell1s(rng, be, 1)
            for unitor, iso in ((left_unitor_cell2(a), left_unitor_iso),
                                (right_unitor_cell2(a), right_unitor_iso)):
                assert invert_cell2(unitor)
                assert eq2(unitor, relabel_cell2(unitor.source,
                                                 unitor.target,
                                                 iso(a.span).map))
                cases += 1
    assert cases >= 500
    finish(1, "bicategory coherence", start, 10.0, cases)


def test_criterion_2_naturally_frobenius():
    start = time.monotonic()
    graded = VectBackend(BraidParam(1))
    for n, backend in [(1, graded), (2, graded), (3, graded), (16, graded),
                       (8, CatBackend())]:
        report = check_frobenius(carrier(n), backend)
        assert report.ok, report.summary()
    finish(2, "naturally Frobenius carriers", start, 5.0)


def test_criterion_3_duoidal_and_zunino():
    start = time.monotonic()
    rng = seeded(31)
    cases = 0
    for qv in (1, -1, 2):
        be = VectBackend(BraidParam(qv))
        for n in (1, 2):
            units = duoidal_units(carrier(n), be)
            cells = [random_vect_cell1(rng, be, units.i.src, units.i.src,
                                       max_apex=2, max_dim=2, max_grade=1)
                     for _ in range(6)]
            report = check_duoidal(units, cells)
            assert report.ok, "q=%s |X|=%d %s" % (qv, n, report.summary())
            cases += len(cells)
        units = duoidal_units(carrier(1), be)
        cells = [random_vect_cell1(rng, be, units.i.src, units.i.src,
                                   max_apex=2, max_dim=2, max_grade=1)
                 for _ in range(3)]
        report = zunino_check(carrier(1), be, cells)
        assert report.ok, "q=%s %s" % (qv, report.summary())
        cases += len(cells)
    finish(3, "duoidal structure and one-point comparison", start, 30.0,
           cases)


def test_criterion_4_hopf_group_monoid_fixture():
    start = time.monotonic()
    pres = hs.cyclic_group_algebra(2)
    mp = pres.monad
    com = pres.comonoid_structure()
    assert hs.check_monad(mp).ok
    assert hs.check_opmonoidal(mp, com).ok
    for builder in (hs.left_fusion, hs.right_fusion):
        cell = builder(mp, com)
        for atom in cell.source.span.apex:
            comp = cell.components[atom]
            assert len(comp.entries) == 4
            assert all(len(row) == 4 for row in comp.entries)
            assert comp.is_permutation()
            assert determinant(comp) in (1, -1)
    assert hs.is_hopf(mp, com)
    solved = hs.compute_antipode(pres)
    assert solved
    for a in pres.elements:
        assert solved.family.sigma[a] == pres.antipode.sigma[a]
    componentwise = hs.check_antipode_group(pres)
    assembled = hs.check_antipode_duoidal(pres)
    assert componentwise.ok and assembled.ok
    assert componentwise.ok == assembled.ok
    finish(4, "Hopf group monoid fixture", start, 1.0)


def test_criterion_5_negative_control():
    start = time.monotonic()
    pres = hs.idempotent_monoid_presentation()
    verdict = hs.is_hopf(pres.monad,
                         pres.comonoid_structure())
    assert not verdict
    assert verdict.witness[1] == "span map not surjective"
    solved = hs.compute_antipode(pres)
    assert not solved
    assert solved.family is None
    finish(5, "negative control", start, 1.0)


def test_criterion_6_hopf_category_fixtures():
    start = time.monotonic()
    for pres in (hs.indiscrete_enriched(["x", "y"]), torsor_enriched()):
        mp = pres.monad
        com = pres.comonoid_structure()
        assert hs.check_monad(mp).ok
        assert hs.check_opmonoidal(mp, com).ok
        assert hs.is_hopf(mp, com)
        declared = hs.check_antipode_group(pres)
        assembled = hs.check_antipode_duoidal(pres)
        solved = hs.compute_antipode(pres)
        assert solved
        recheck = hs.check_antipode_group(pres, solved.family)
        assert declared.ok and assembled.ok and recheck.ok
        assert declared.ok == assembled.ok == recheck.ok
    finish(6, "Hopf category fixtures", start, 2.0)


# Frozen counts, derived by hand before the enumerator ran; the
# derivation is spelled out next to the exhaustive suite in
# test_hopf_structures.py.
EXPECTED_COUNTS = {
    ("identity", "discrete", "modules"): (2, 2),
    ("identity", "discrete", "representations"): (2, 2),
    ("translation", "discrete", "modules"): (0, 0),
    ("translation", "discrete", "representations"): (2, 2),
    ("translation", "indiscrete", "modules"): (2, 4),
    ("translation", "indiscrete", "representations"): (4, 16),
}


def polyad_fixture(name, fiber_kind):
    fiber = hs.discrete_monoidal_group(*Z2) if fiber_kind == "discrete" \
        else hs.indiscrete_monoidal_group(*Z2)
    if name == "identity":
        return hs.identity_polyad(*Z2, fiber).monad
    return hs.translation_polyad(*Z2, fiber)


def test_criterion_7_polyad_suite():
    start = time.monotonic()
    assert hs.polyad_is_hopf(
        hs.identity_polyad(*Z2, hs.discrete_monoidal_group(*Z2)))
    verdict = hs.polyad_is_hopf(
        hs.identity_polyad(*IDEMPOTENT,
                           hs.discrete_monoidal_group(*IDEMPOTENT)))
    assert not verdict
    assert verdict.witness[0] == "shape not a groupoid"
    for (name, fiber_kind, kind), (objs, mors) in EXPECTED_COUNTS.items():
        p = polyad_fixture(name, fiber_kind)
        cat = hs.enumerate_modules(p) if kind == "modules" \
            else hs.enumerate_representations(p)
        assert len(list(cat.objects)) == objs
        assert len(list(cat.morphisms)) == mors
        comparison = hs.em_algebras_restricted(p, kind)
        assert comparison.report.ok, comparison.report.summary()
        assert len(list(comparison.algebras.objects)) == objs
        assert len(list(comparison.algebras.morphisms)) == mors
        assert comparison.forward.then(comparison.backward) == \
            FunctorData.identity(comparison.enumerated)
    finish(7, "polyad suite", start, 10.0)


def test_criterion_8_functoriality(tmp_path):
    start = time.monotonic()
    for fixture in ("z2_group_algebra.json", "indiscrete_pair.json",
                    "torsor_enriched.json"):
        out = tmp_path / (fixture + ".polyad")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = main(["export-polyad", str(DATA / fixture),
                         "--probes", str(DATA / "probes.json"),
                         "--output", str(out), "--format", "json"])
            assert code == 0
            assert main(["check", str(out), "--format", "json"]) == 0
    probes = (VObject([(("p",), 0)]), VObject([(("r",), 1)]),
              VObject([(("s",), 0), (("t",), 1)]))
    for pres in (hs.cyclic_group_algebra(2), torsor_enriched()):
        report, _, _ = hs.image_polyad_report(pres, probes)
        assert report.ok, report.summary()
    finish(8, "pointwise image of the fixtures", start, 1.0)


def symmetric3():
    """The symmetric group on three letters: permutations as strings of
    images, composed right to left."""
    perms = ["".join(p) for p in itertools.permutations("012")]
    mul = {(a, b): "".join(a[int(b[i])] for i in range(3))
           for a in perms for b in perms}
    return perms, mul, "012"


def z2_times_z3():
    names = [a + b for a in ("e", "a") for b in ("0", "1", "2")]
    mul = {(x, y): ("e" if (x[0] == "a") == (y[0] == "a") else "a")
           + str((int(x[1]) + int(y[1])) % 3) for x in names for y in names}
    return names, mul, "e0"


def test_criterion_9_fusion_formula_oracle():
    """Both fusion components against their closed formulas: the left at
    ((h, x), (k, x)) is (mu . 1)(1 . braiding)(delta . 1), the right at
    ((h, x), (x, k)) is (1 . mu)(delta . 1), on one-object presentations
    (grouplike, graded, and Sweedler's H_4) and hom-enriched ones."""
    start = time.monotonic()
    cases = 0
    presentations = [hs.cyclic_group_algebra(n, q=BraidParam(qv), graded=True)
                     for n in (2, 3) for qv in (1, -1, 2)]
    presentations.append(hs.grouplike_monoid_algebra(*symmetric3()))
    presentations.append(hs.grouplike_monoid_algebra(*z2_times_z3()))
    presentations.append(load_path(str(DATA / "golden" / "h4_sweedler.json"))
                         .presentation)
    torsor = product_category(FinCategory.indiscrete(["x", "y"]),
                              FinCategory.from_monoid(*Z2))
    presentations += [hs.enriched_from_groupoid(torsor, q=BraidParam(qv))
                      for qv in (1, -1, 2)]
    presentations.append(hs.indiscrete_enriched(["x", "y", "z"]))
    for pres in presentations:
        mp = pres.monad
        com = pres.comonoid_structure()
        be = mp.backend
        left = hs.left_fusion(mp, com)
        right = hs.right_fusion(mp, com)
        for (h, k) in mp.shape.composable_pairs():
            x = mp.shape.tgt(k)
            lab = mp.mor_label
            formula = be.vcomp(
                be.tensor2v(mp.mu[(h, k)], be.id2(lab[h])),
                be.vcomp(
                    be.tensor2v(be.id2(lab[h]),
                                braiding(lab[h], lab[k], be.q)),
                    be.tensor2v(com.delta[h], be.id2(lab[k]))))
            assert left.components[((h, x), (k, x))] == formula
            formula = be.vcomp(
                be.tensor2v(be.id2(lab[h]), mp.mu[(h, k)]),
                be.tensor2v(com.delta[h], be.id2(lab[k])))
            assert right.components[((h, x), (x, k))] == formula
            cases += 1
    finish(9, "fusion formula oracle", start, 10.0, cases)


def group_algebra_document(elements, mul, unit):
    """The ungraded group algebra as a group_monoid file: every element
    carries the algebra, and the antipode is inversion on the basis."""
    def matrix(dom, cod, image):
        return [[str(int(image(w) == v)) for w in dom] for v in cod]

    square = [(a, b) for a in elements for b in elements]
    inverse = {a: next(b for b in elements if mul[(a, b)] == unit)
               for a in elements}
    mult = matrix(square, elements, lambda w: mul[w])
    sigma = matrix(elements, elements, lambda a: inverse[a])
    return {"format_version": 1, "kind": "group_monoid", "backend": "vect",
            "elements": elements, "unit": unit, "q": "1", "grouplike": True,
            "table": {a: {b: mul[(a, b)] for b in elements}
                      for a in elements},
            "labels": {a: [[b, 0] for b in elements] for a in elements},
            "mu": {a: {b: mult for b in elements} for a in elements},
            "eta": matrix([unit], elements, lambda w: w),
            "antipode": {a: sigma for a in elements}}


def nichols_document(n, antipode_power=1):
    """The Nichols Hopf algebra E(n) as a one-element group_monoid file
    with explicit delta and eps.  Its basis g^a x_S (a in {0, 1}, S a set
    of generators) has dimension 2^(n+1); g^2 = 1, x_i^2 = 0,
    x_i x_j = -x_j x_i, g x_i = -x_i g, Delta g = g (x) g,
    Delta x_i = x_i (x) 1 + g (x) x_i, and S(x_i) = -g x_i.  The file
    carries the antipode_power-th power of S; E(1) is Sweedler's H_4."""
    gens = ["x"] if n == 1 else ["x%d" % (i + 1) for i in range(n)]
    # Basis element (a, mask): the word g^a followed by the x_i in mask,
    # in increasing order.
    basis = [(a, mask) for mask in range(2 ** n) for a in (0, 1)]

    def word(a, mask):
        text = "g" * a + "".join(x for i, x in enumerate(gens)
                                 if mask >> i & 1)
        return text or "1"

    def mul_basis(left, right):
        (a, s), (b, t) = left, right
        if s & t:
            return {}
        # g x_S g^b = (-1)^(b|S|) g^(a+b) x_S; x_S x_T shuffles each
        # x_i of S past every smaller x_j of T.
        swaps = b * bin(s).count("1") + sum(
            bin(t & ((1 << i) - 1)).count("1")
            for i in range(n) if s >> i & 1)
        return {((a + b) % 2, s | t): (-1) ** swaps}

    def product(x, y, mul):
        out = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                for k, c in mul(kx, ky).items():
                    out[k] = out.get(k, 0) + cx * cy * c
        return {k: c for k, c in out.items() if c}

    def mul_pair(left, right):
        return {(k1, k2): c1 * c2
                for k1, c1 in mul_basis(left[0], right[0]).items()
                for k2, c2 in mul_basis(left[1], right[1]).items()}

    one, g = (0, 0), (1, 0)
    delta, antipode = {}, {}
    for a, mask in basis:
        d = {(g, g): 1} if a else {(one, one): 1}
        s = {g: 1} if a else {one: 1}
        for i in range(n):
            if mask >> i & 1:
                x = (0, 1 << i)
                d = product(d, {(x, one): 1, (g, x): 1}, mul_pair)
                # S reverses products: S(g^a x_S) = ... S(x_j) S(x_i) g^a.
                s = product({(1, 1 << i): -1}, s, mul_basis)
        delta[(a, mask)], antipode[(a, mask)] = d, s

    def apply(linear, x):
        out = {}
        for v, cv in x.items():
            for k, c in linear[v].items():
                out[k] = out.get(k, 0) + cv * c
        return {k: c for k, c in out.items() if c}

    def matrix(cods, image, doms):
        return [[str(image(w).get(v, 0)) for w in doms] for v in cods]

    sigma = dict(antipode)
    for _ in range(antipode_power - 1):
        sigma = {w: apply(antipode, x) for w, x in sigma.items()}
    square = [(u, v) for u in basis for v in basis]
    return {"format_version": 1, "kind": "group_monoid", "backend": "vect",
            "elements": ["e"], "unit": "e", "q": "1",
            "table": {"e": {"e": "e"}},
            "labels": {"e": [[word(*b), 0] for b in basis]},
            "mu": {"e": {"e": matrix(basis, lambda w: mul_basis(*w),
                                     square)}},
            "eta": matrix(basis, lambda w: {one: 1}, [one]),
            "delta": {"e": matrix(square, delta.get, basis)},
            "eps": {"e": matrix(["1"], lambda w: {"1": int(w[1] == 0)},
                                basis)},
            "antipode": {"e": matrix(basis, sigma.get, basis)}}


def dual_group_document(elements, mul, unit):
    """The dual group algebra Q^G as a one-element group_monoid file with
    explicit delta and eps.  Its basis is the point masses d_g, with
    d_g d_h = [g = h] d_g and unit the sum of all d_g;
    Delta(d_g) = sum over ab = g of d_a (x) d_b, eps(d_g) = [g = e] and
    S(d_g) = d_(g^-1).  For non-abelian G, Delta is not cocommutative."""
    def matrix(cods, doms, entry):
        return [[str(int(entry(v, w))) for w in doms] for v in cods]

    inverse = {a: next(b for b in elements if mul[(a, b)] == unit)
               for a in elements}
    square = [(a, b) for a in elements for b in elements]
    return {"format_version": 1, "kind": "group_monoid", "backend": "vect",
            "elements": ["e"], "unit": "e", "q": "1",
            "table": {"e": {"e": "e"}},
            "labels": {"e": [[g, 0] for g in elements]},
            "mu": {"e": {"e": matrix(elements, square,
                                     lambda g, w: w == (g, g))}},
            "eta": matrix(elements, ["1"], lambda g, w: True),
            "delta": {"e": matrix(square, elements,
                                  lambda v, g: mul[v] == g)},
            "eps": {"e": matrix(["1"], elements, lambda v, g: g == unit)},
            "antipode": {"e": matrix(elements, elements,
                                     lambda v, g: inverse[g] == v)}}


def run_json(argv):
    """main(argv) with --format json and stdout captured: (code, report)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main([str(arg) for arg in argv] + ["--format", "json"])
    return code, json.loads(sink.getvalue())


def test_nichols_documents_match_the_fixtures():
    golden = DATA / "golden"
    assert nichols_document(1) == \
        json.loads((golden / "h4_sweedler.json").read_text())
    assert nichols_document(2) == \
        json.loads((golden / "e2_nichols.json").read_text())


def test_nichols_inverse_antipode_fails(tmp_path):
    # S^4 = id and S^2 != id on E(n), so S^3 = S^-1 is not the antipode.
    for n in (1, 2):
        fixture = tmp_path / ("e%d_s3.json" % n)
        fixture.write_text(json.dumps(nichols_document(n, antipode_power=3)))
        code, report = run_json(["check", fixture, "--antipode",
                                 "--duoidal"])
        assert code == 1
        assert [(c["name"], c["status"]) for c in report["checks"]] == [
            ("antipode", "fail"), ("duoidal", "fail")]


def test_dual_group_document_matches_the_fixture():
    assert dual_group_document(*symmetric3()) == \
        json.loads((DATA / "golden" / "qs3_dual.json").read_text())


def test_dual_group_identity_antipode_fails(tmp_path):
    # S_3 has elements of order 3, so d_g -> d_g is not g -> g^-1.
    doc = dual_group_document(*symmetric3())
    doc["antipode"]["e"] = [[str(int(v == w)) for w in range(6)]
                            for v in range(6)]
    fixture = tmp_path / "qs3_identity.json"
    fixture.write_text(json.dumps(doc))
    code, report = run_json(["check", fixture, "--antipode", "--duoidal"])
    assert code == 1
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("antipode", "fail"), ("duoidal", "fail")]


def passing_default_check(n, tmp_path):
    """Run the default check on the ungraded Z_n group algebra file and
    assert that all six checks pass with n * n nonzero fusion
    determinants on each side."""
    names, mul, unit = hs.cyclic_group(n)
    fixture = tmp_path / ("z%d_group_algebra.json" % n)
    fixture.write_text(json.dumps(group_algebra_document(names, mul, unit)))
    code, report = run_json(["check", fixture])
    assert code == 0 and report["status"] == "pass"
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        (name, "pass") for name in ("monad", "opmonoidal", "hopf",
                                    "antipode", "duoidal", "frobenius")]
    (hopf,) = [c for c in report["checks"] if c["name"] == "hopf"]
    for side in ("left", "right"):
        dets = hopf["fusion_determinants"][side]
        assert len(dets) == n * n
        assert all(Fraction(det) != 0 for _, det in dets)


def test_criterion_10_z4_default_check(tmp_path):
    start = time.monotonic()
    passing_default_check(4, tmp_path)
    finish(10, "default check on the Z_4 group algebra", start, 2.0, 32)


def translation_polyad_is_hopf(n):
    names, mul, unit = hs.cyclic_group(n)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    assert hs.polyad_is_hopf(
        hs.translation_opmonoidal(names, mul, unit, fiber))
    return names, mul, unit, fiber


def translation_polyad_checks(n):
    names, mul, unit, fiber = translation_polyad_is_hopf(n)
    # Over the indiscrete fiber every hom set is a singleton: a module
    # is one fiber object, and any two modules have one morphism.
    comparison = hs.em_algebras_restricted(
        hs.translation_polyad(names, mul, unit, fiber), "modules")
    assert comparison.report.ok, comparison.report.summary()
    assert len(list(comparison.algebras.objects)) == n
    assert len(list(comparison.algebras.morphisms)) == n * n
    assert comparison.forward.then(comparison.backward) == \
        FunctorData.identity(comparison.enumerated)


def test_criterion_11_translation_polyad_z3_to_z5():
    start = time.monotonic()
    for n in (3, 4, 5):
        translation_polyad_checks(n)
    finish(11, "translation polyad over Z_3, Z_4 and Z_5", start, 1.0, 3)


def test_criterion_12_z8_default_check(tmp_path):
    start = time.monotonic()
    passing_default_check(8, tmp_path)
    finish(12, "default check on the Z_8 group algebra", start, 10.0, 128)


def test_criterion_13_nichols_e4_hopf_check(tmp_path):
    fixture = tmp_path / "e4_nichols.json"
    fixture.write_text(json.dumps(nichols_document(4)))
    start = time.monotonic()
    code, report = run_json(["check", fixture, "--hopf"])
    assert code == 0 and report["status"] == "pass"
    (hopf,) = report["checks"]
    assert hopf["fusion_determinants"] == {
        "left": [["('e', 'e')", "1"]], "right": [["('e', 'e')", "1"]]}
    finish(13, "fusion check on the Nichols algebra E(4)", start, 4.0, 2)


def test_criterion_14_translation_polyad_z6_hopf_check():
    start = time.monotonic()
    translation_polyad_is_hopf(6)
    finish(14, "Hopf check of the translation polyad over Z_6", start, 1.0)


def test_criterion_15_nichols_e4_antipode(tmp_path):
    doc = nichols_document(4)
    fixture = tmp_path / "e4_nichols.json"
    fixture.write_text(json.dumps(doc))
    start = time.monotonic()
    code, report = run_json(["antipode", fixture])
    assert code == 0 and report["status"] == "pass"
    assert report["sigma"] == doc["antipode"]
    finish(15, "antipode of the Nichols algebra E(4)", start, 1.0)


def test_criterion_16_translation_polyad_z8_hopf_check():
    start = time.monotonic()
    translation_polyad_is_hopf(8)
    finish(16, "Hopf check of the translation polyad over Z_8", start, 1.0)


def test_criterion_17_translation_polyad_z16_hopf_check():
    start = time.monotonic()
    translation_polyad_is_hopf(16)
    finish(17, "Hopf check of the translation polyad over Z_16", start, 0.4)


def test_criterion_18_indiscrete_20_monad_check():
    start = time.monotonic()
    e = hs.indiscrete_enriched(["x%d" % k for k in range(20)])
    assert hs.check_monad(e.monad).ok
    finish(18, "monad laws of the indiscrete presentation on 20 objects",
           start, 0.2, 20 ** 4)


# Every mu entry, label and unit of the indiscrete presentation is one
# object, so each monad law is one equation: check_monad alone, without
# the build, walks none of the 40 ** 4 triples (about 3 s when it walked
# them all).
def test_criterion_26_indiscrete_40_library_monad_check():
    e = hs.indiscrete_enriched(["x%d" % k for k in range(40)])
    start = time.monotonic()
    assert hs.check_monad(e.monad).ok
    finish(26, "check_monad on the indiscrete presentation on 40 objects",
           start, 0.1, 40 ** 4)


def test_criterion_19_translation_polyad_z12_modules():
    start = time.monotonic()
    names, mul, unit = hs.cyclic_group(12)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    comparison = hs.em_algebras_restricted(
        hs.translation_polyad(names, mul, unit, fiber), "modules")
    assert comparison.report.ok, comparison.report.summary()
    assert len(comparison.algebras.objects) == 12
    assert len(comparison.algebras.morphisms) == 144
    finish(19, "modules of the translation polyad over Z_12", start, 0.5,
           12)


def test_criterion_20_translation_polyad_z3_representations():
    start = time.monotonic()
    names, mul, unit = hs.cyclic_group(3)
    fiber = hs.indiscrete_monoidal_group(names, mul, unit)
    comparison = hs.em_algebras_restricted(
        hs.translation_polyad(names, mul, unit, fiber), "representations")
    assert comparison.report.ok, comparison.report.summary()
    assert len(comparison.algebras.objects) == 27
    assert len(comparison.algebras.morphisms) == 729
    finish(20, "representations of the translation polyad over Z_3", start,
           0.5, 27)


# The Z_n Hopf checks, each in a child process of its own, capped at
# 3 GB of address space.  The peak RSS is read from VmHWM, the
# high-water mark of the address space the child execs into: ru_maxrss
# carries the parent's over a fork, so a large test process would be
# read instead.  The polyad and fiber builders and the group order are
# named by argv.
HOPF_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from hopfspan import hopf_structures as hs
build, fiber_of = getattr(hs, sys.argv[1]), getattr(hs, sys.argv[2])
start = time.monotonic()
names, mul, unit = hs.cyclic_group(int(sys.argv[3]))
fiber = fiber_of(names, mul, unit)
assert hs.polyad_is_hopf(build(names, mul, unit, fiber))
elapsed = time.monotonic() - start
with open("/proc/self/status") as status:
    (peak,) = [line.split()[1] for line in status
               if line.startswith("VmHWM:")]
print(elapsed, int(peak) / 1024)
"""


def child_output(script, *args):
    """What script prints, run with args in a fresh interpreter that
    imports this package."""
    package = pathlib.Path(hs.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def run_child(script, *args):
    """The numbers script prints, run as child_output runs it: the
    seconds and peak MiB of a Hopf check or of the algebras."""
    return tuple(map(float, child_output(script, *args).split()))


def hopf_in_a_child(build, fiber_of, order, number, label, bound,
                    peak_bound_mib):
    elapsed, peak_mib = run_child(HOPF_CHILD, build, fiber_of, str(order))
    print("criterion %d: peak RSS %.0f MiB of %d MiB"
          % (number, peak_mib, peak_bound_mib))
    finish(number, "Hopf check of the %s over Z_%d, fiber build included"
           % (label, order), time.monotonic() - elapsed, bound)
    assert peak_mib < peak_bound_mib


def test_criterion_21_translation_polyad_z32_hopf_check():
    hopf_in_a_child("translation_opmonoidal", "indiscrete_monoidal_group",
                    32, 21, "translation polyad", 0.5, 100)


# Over the discrete fiber, a thin groupoid, the verdict is the shape's:
# no fusion family is built, where building them read n^4 homs.
def test_criterion_25_identity_polyad_z32_discrete_hopf_check():
    hopf_in_a_child("identity_polyad", "discrete_monoidal_group", 32, 25,
                    "identity polyad on the discrete fiber", 0.1, 50)


# The build dominates a translation Hopf check over the indiscrete
# fiber: no pair of labels composes a table (each composite is read from
# the object maps), and no table of the fiber or the shape is walked by
# triples (Light's test on generators).
def test_criterion_27_translation_polyad_z128_hopf_check():
    hopf_in_a_child("translation_opmonoidal", "indiscrete_monoidal_group",
                    128, 27, "translation polyad", 0.6, 120)


# The Z_n modules or representations in a child process of their own,
# so that no fiber, polyad or composite built by an earlier test is
# reused, its peak RSS read from VmHWM as criterion 21's.  Over the
# indiscrete fiber every object choice is one action and every pair of
# them has one morphism: n modules, and n ** n representations, one
# object per group element.  All the candidates are decided as one
# family, so the peak follows the family's (t o t) o q: n ** 3 atoms
# for Z_n modules.
ALGEBRAS_CHILD = """
import sys, time
from hopfspan import hopf_structures as hs
n, kind, objects = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
start = time.monotonic()
names, mul, unit = hs.cyclic_group(n)
fiber = hs.indiscrete_monoidal_group(names, mul, unit)
comparison = hs.em_algebras_restricted(
    hs.translation_polyad(names, mul, unit, fiber), kind)
assert comparison.report.ok, comparison.report.summary()
assert len(comparison.algebras.objects) == objects
assert len(comparison.algebras.morphisms) == objects * objects
elapsed = time.monotonic() - start
with open("/proc/self/status") as status:
    (peak,) = [line.split()[1] for line in status
               if line.startswith("VmHWM:")]
print(elapsed, int(peak) / 1024)
"""


def algebras_in_a_child(n, kind, number, bound, peak_bound_mib):
    objects = n if kind == "modules" else n ** n
    elapsed, peak_mib = run_child(ALGEBRAS_CHILD, str(n), kind, str(objects))
    print("criterion %d: peak RSS %.0f MiB of %d MiB"
          % (number, peak_mib, peak_bound_mib))
    finish(number, "%s of the translation polyad over Z_%d, fiber and "
           "polyad build included" % (kind, n), time.monotonic() - elapsed,
           bound, objects)
    assert peak_mib < peak_bound_mib


def test_criterion_22_translation_polyad_z24_modules():
    algebras_in_a_child(24, "modules", 22, 0.3, 50)


def test_criterion_23_translation_polyad_z48_modules():
    algebras_in_a_child(48, "modules", 23, 1.4, 150)


def test_criterion_24_translation_polyad_z4_representations():
    algebras_in_a_child(4, "representations", 24, 2.5, 150)


# The first decision after a fresh import against the same decision run
# again, gc.collect() before each, in a child process of its own: the
# builders that _trusted makes on first use compile no source, so the
# first decision costs about what the second does (3.0 times it when
# each builder compiled a def).  The median ratio over five children.
FIRST_DECISION_CHILD = """
import gc, time
from hopfspan import hopf_structures as hs
names, mul, unit = hs.cyclic_group(2)
for _ in range(2):
    gc.collect()
    start = time.perf_counter()
    assert hs.polyad_is_hopf(hs.identity_polyad(
        names, mul, unit, hs.discrete_monoidal_group(names, mul, unit)))
    print(time.perf_counter() - start)
"""


def test_criterion_28_first_decision_after_import():
    start = time.monotonic()
    ratios = sorted(first / second for first, second in (
        run_child(FIRST_DECISION_CHILD) for _ in range(5)))
    print("criterion 28: first over second decision %.2f (median of %s)"
          % (ratios[2], ", ".join("%.2f" % ratio for ratio in ratios)))
    finish(28, "first identity polyad Hopf check over Z_2 after import",
           start, 5)
    assert ratios[2] <= 1.5
