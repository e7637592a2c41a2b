"""The one law rule of CheckReport against the per-key loops it replaced.

The oracles below walk every tuple and decide its equation afresh, the
way the checkers did before they went through CheckReport.  The
checkers walk only the tuples they decide, build each side once per
distinct operands (CheckReport.once) and decide each distinct pair of
sides once (CheckReport.equal), so the two must name the same failures,
in the same order, with the same witnesses, whether the structure maps
are shared or not, on one-object and many-object shapes, and on every
backend the checkers run on: the graded base, its image in Cat and the
finite-category base.  Where every operand of a law is one object
(Uniform), the checkers decide one equation and walk no tuple unless it
fails; the last section holds them to the same oracles there.
"""

import dataclasses
import itertools

import pytest

from hopfspan import hopf_structures as hs
from hopfspan.cat_backend import FinCategory, FunctorData, NatTransData
from hopfspan.cli import load_document
from hopfspan.finset_span import FinSet
from hopfspan.monoidale_duoidal import ComonoidLabeledCell, check_comonoid
from hopfspan.reporting import CheckReport, Verdict
from hopfspan.spanv_core import CatBackend, Uniform, VectBackend
from hopfspan import vect_backend as vb
from hopfspan.vect_backend import VMorphism, VObject, unit_object

from rand import random_vmorphism, seeded
from test_acceptance import Z2, group_algebra_document
from hopfspan.spanv_core import product_category

PROBES = (unit_object(), VObject([(("m",), 1)]))


# ---------------------------------------------------------------------------
# The oracles: one fresh decision per key.


def naive_monad(p):
    failures = []
    be, d, lab = p.backend, p.shape, p.mor_label
    for (h, k) in d.composable_pairs():
        for l in d.morphisms:
            if d.src(k) != d.tgt(l):
                continue
            left = be.vcomp(p.mu[(d.compose(h, k), l)],
                            be.comp2(p.mu[(h, k)], be.id2(lab[l])))
            right = be.vcomp(p.mu[(h, d.compose(k, l))],
                             be.comp2(be.id2(lab[h]), p.mu[(k, l)]))
            if not be.eq2(left, right):
                failures.append(("associativity", ((h, k, l),
                                 be.first_diff(left, right))))
    for h in d.morphisms:
        one = be.id2(lab[h])
        x, y = d.src(h), d.tgt(h)
        left = be.vcomp(p.mu[(d.identities(y), h)], be.comp2(p.eta[y], one))
        if not be.eq2(left, one):
            failures.append(("left unit", (h, be.first_diff(left, one))))
        right = be.vcomp(p.mu[(h, d.identities(x))], be.comp2(one, p.eta[x]))
        if not be.eq2(right, one):
            failures.append(("right unit", (h, be.first_diff(right, one))))
    return failures


def naive_comonoid(com):
    failures = []
    be = com.cell.backend
    for h in com.cell.span.apex:
        d, e = com.delta[h], com.eps[h]
        one = be.id2(com.cell.label[h])
        for law, lhs, rhs in (
                ("coassociativity", be.vcomp(be.tensor2v(d, one), d),
                 be.vcomp(be.tensor2v(one, d), d)),
                ("left counit", be.vcomp(be.tensor2v(e, one), d), one),
                ("right counit", be.vcomp(be.tensor2v(one, e), d), one)):
            if not be.eq2(lhs, rhs):
                failures.append((law, (h, be.first_diff(lhs, rhs))))
    return failures


def naive_antipode(p, c, sigma):
    failures = []
    be, d = p.backend, p.shape
    for h in d.morphisms:
        g, one = d.inverse(h), be.id2(p.mor_label[h])
        squares = (
            (be.vcomp(p.mu[(h, g)], be.vcomp(be.tensor2v(one, sigma[h]),
                                             c.delta[h])),
             be.vcomp(p.eta[d.tgt(h)], c.eps[h])),
            (be.vcomp(p.mu[(g, h)], be.vcomp(be.tensor2v(sigma[h], one),
                                             c.delta[h])),
             be.vcomp(p.eta[d.src(h)], c.eps[h])))
        for law, (lhs, unit) in zip(hs._SQUARE_LAWS, squares):
            if not be.eq2(lhs, unit):
                failures.append((law, (h, be.first_diff(lhs, unit))))
    return failures


def naive_module_squares(e, m, tag):
    failures = []
    X, be = e.objects, e.backend
    for x, y, z, u in itertools.product(X, repeat=4):
        lhs = m.psi[(x, z, u)].compose(vb.tensor_mor(
            e.mu[(x, y, z)], VMorphism.identity(m.v[(z, u)])))
        rhs = m.psi[(x, y, u)].compose(vb.tensor_mor(
            VMorphism.identity(e.hom[(x, y)]), m.psi[(y, z, u)]))
        if lhs != rhs:
            failures.append((tag + " associativity",
                             ((x, y, z, u), be.first_diff(lhs, rhs))))
    for x, y in itertools.product(X, repeat=2):
        one = VMorphism.identity(m.v[(x, y)])
        lhs = m.psi[(x, x, y)].compose(vb.tensor_mor(e.eta[x], one))
        if lhs != one:
            failures.append((tag + " unit", ((x, y), be.first_diff(lhs, one))))
    return failures


def naive_module(e, m, morphism):
    failures = naive_module_squares(e, m, "module")
    for x, y, z in itertools.product(e.objects, repeat=3):
        lhs = m.psi[(x, y, z)].compose(vb.tensor_mor(
            VMorphism.identity(e.hom[(x, y)]), morphism[(y, z)]))
        rhs = morphism[(x, z)].compose(m.psi[(x, y, z)])
        if lhs != rhs:
            failures.append(("morphism square",
                             ((x, y, z), e.backend.first_diff(lhs, rhs))))
    return failures + naive_module_squares(
        e, hs.enriched_module_product(e, m, m), "product")


# ---------------------------------------------------------------------------
# Generated inputs: the right maps and one wrong one, each either one
# object in every slot that carries it or a fresh equal copy per slot.


def placed(slots, right, wrong, broken, shared):
    """right at every slot and wrong at the broken ones, each slot the
    shared map itself or a fresh copy of it."""
    def entry(f):
        return f if shared else VMorphism(f.dom, f.cod, f.entries)
    return {s: entry(wrong if s in broken else right) for s in slots}


def broken_sets(rng, slots):
    slots = sorted(slots)
    return [(), tuple(rng.sample(slots, 1)), tuple(rng.sample(slots, 2)),
            tuple(slots)]


def vect_cases(seed):
    """Z_2 and Z_3 group algebras with zero, one, two or every mu entry
    replaced by one random matrix, shared and unshared."""
    rng = seeded(seed)
    for n in (2, 3):
        pres = hs.cyclic_group_algebra(n)
        mult = pres.mu[(pres.unit, pres.unit)]
        wrong = random_vmorphism(rng, mult.dom, mult.cod)
        for broken in broken_sets(rng, pres.mu):
            for shared in (True, False):
                yield dataclasses.replace(pres, mu=placed(
                    pres.mu, mult, wrong, broken, shared)), rng, shared


def enriched_cases(seed):
    """Indiscrete presentations on 3 and 4 objects and the torsor
    I_3 x Z_2 with zero, one, two or every mu entry replaced by a random
    matrix, one per distinct entry it replaces, shared as the loader
    shares them and unshared."""
    rng = seeded(seed)
    torsor = hs.enriched_from_groupoid(product_category(
        FinCategory.indiscrete(["x", "y", "z"]), FinCategory.from_monoid(*Z2)))
    for e in (hs.indiscrete_enriched(range(3)), hs.indiscrete_enriched(range(4)),
              torsor):
        wrong = {}
        for f in e.mu.values():
            wrong.setdefault(id(f), random_vmorphism(rng, f.dom, f.cod))
        for broken in broken_sets(rng, e.mu):
            for shared in (True, False):
                def entry(slot, f):
                    f = wrong[id(f)] if slot in broken else f
                    return f if shared else VMorphism(f.dom, f.cod, f.entries)
                yield dataclasses.replace(e, mu={
                    slot: entry(slot, f) for slot, f in e.mu.items()}), rng


@pytest.mark.parametrize("seed", range(2))
def test_monad_rule_matches_the_oracle_on_many_objects(seed):
    failing = 0
    for e, _ in enriched_cases(seed):
        expected = naive_monad(e.monad)
        assert hs.check_monad(e.monad).failures == expected
        failing += bool(expected)
    assert failing


@pytest.mark.parametrize("seed", range(2))
def test_antipode_rule_matches_the_oracle_on_many_objects(seed):
    failing = 0
    for e, rng in enriched_cases(seed):
        sigma = e.antipode.sigma
        broken = rng.sample(sorted(sigma), rng.randint(0, 2))
        fam = {pair: random_vmorphism(rng, f.dom, f.cod) if pair in broken
               else f for pair, f in sigma.items()}
        p, c = e.monad, e.comonoid_structure()
        expected = naive_antipode(p, c, e.sigma_by_shape(
            hs.AntipodeFamily(fam)))
        assert hs.check_antipode_group(
            e, hs.AntipodeFamily(fam)).failures == expected
        failing += bool(expected)
    assert failing


@pytest.mark.parametrize("seed", range(4))
def test_monad_rule_matches_the_oracle_on_the_graded_base(seed):
    failing = 0
    for pres, _, _ in vect_cases(seed):
        expected = naive_monad(pres.monad)
        assert hs.check_monad(pres.monad).failures == expected
        failing += bool(expected)
    assert failing


@pytest.mark.parametrize("seed", range(2))
def test_monad_rule_matches_the_oracle_on_the_image(seed):
    failing = 0
    for pres, _, _ in vect_cases(seed):
        imaged, _, _ = hs.image_presentation(pres.monad, PROBES)
        expected = naive_monad(imaged)
        assert hs.check_monad(imaged).failures == expected
        failing += bool(expected)
    assert failing


def cat_presentation(rng, n, broken, shared):
    """The Z_n shape over the one-object category of Z_3, every label
    the identity functor and every mu entry the transformation with one
    component: the unit of Z_3, or a random element at the broken
    slots.  The monad laws are then the 2-cocycle conditions."""
    names, mul, unit = hs.cyclic_group(n)
    shape = FinCategory.from_monoid(names, mul, unit)
    fiber = FinCategory.from_monoid(*hs.cyclic_group(3))
    ident = FunctorData.identity(fiber)
    made = {}

    def entry(component):
        if not shared:
            return NatTransData(ident, ident, {"*": component})
        return made.setdefault(component,
                               NatTransData(ident, ident, {"*": component}))
    elements = list(fiber.morphisms)
    mu = {(h, k): entry(rng.choice(elements) if (h, k) in broken else "e")
          for h in names for k in names}
    return hs.MonadPresentation(CatBackend(), shape, {"*": fiber},
                                {h: ident for h in names}, mu,
                                {"*": entry("e")})


@pytest.mark.parametrize("seed", range(4))
def test_monad_rule_matches_the_oracle_on_the_category_base(seed):
    rng = seeded(seed)
    failing = 0
    for n in (2, 3):
        pairs = list(itertools.product(hs.cyclic_group(n)[0], repeat=2))
        for broken in broken_sets(rng, pairs):
            for shared in (True, False):
                p = cat_presentation(rng, n, set(broken), shared)
                expected = naive_monad(p)
                assert hs.check_monad(p).failures == expected
                failing += bool(expected)
    assert failing


@pytest.mark.parametrize("seed", range(2))
def test_comonoid_and_antipode_rules_match_the_oracles(seed):
    failing = 0
    for pres, rng, shared in vect_cases(seed):
        t = pres.monad.cells[0]
        delta, eps = pres.delta[pres.unit], pres.eps[pres.unit]
        sigma = pres.antipode.sigma[pres.unit]
        elements = list(pres.elements)
        broken = rng.sample(elements, rng.randint(0, len(elements)))
        com = ComonoidLabeledCell(t, placed(
            elements, delta, random_vmorphism(rng, delta.dom, delta.cod),
            broken, shared), placed(
            elements, eps, random_vmorphism(rng, eps.dom, eps.cod),
            broken[:1], shared))
        expected = naive_comonoid(com)
        assert check_comonoid(com).failures == expected
        failing += bool(expected)

        fam = placed(elements, sigma,
                     random_vmorphism(rng, sigma.dom, sigma.cod), broken,
                     shared)
        expected = naive_antipode(pres.monad, pres.comonoid_structure(), fam)
        assert hs.check_antipode_group(
            pres, hs.AntipodeFamily(fam)).failures == expected
        failing += bool(expected)
    assert failing


@pytest.mark.parametrize("seed", range(3))
def test_enriched_module_rule_matches_the_oracle(seed):
    rng = seeded(seed)
    # Every hom and module object is K, and every action the identity.
    e = hs.indiscrete_enriched(["x", "y"])
    reg = hs.regular_enriched_module(e)
    one = VMorphism.identity(unit_object())
    assert all(f is one for f in reg.psi.values())
    pairs = list(itertools.product(e.objects, repeat=2))
    failing = 0
    for broken in broken_sets(rng, reg.psi):
        wrong = random_vmorphism(rng, one.dom, one.cod)
        for shared in (True, False):
            module = hs.EnrichedModule(reg.v, placed(reg.psi, one, wrong,
                                                     broken, shared))
            morphism = placed(pairs, one, one.scale(2),
                              broken[:1] and [rng.choice(pairs)], shared)
            expected = naive_module(e, module, morphism)
            assert hs.check_enriched_module(
                e, module, morphism=morphism).failures == expected
            failing += bool(expected)
    assert failing


def test_one_changed_mu_entry_fails_exactly_where_the_oracle_says():
    names, mul, unit = hs.cyclic_group(4)
    doc = group_algebra_document(names, mul, unit)
    square = [(a, b) for a in names for b in names]
    # Multiply, then translate by b: a map of the right shape that is not
    # the multiplication.
    doc["mu"]["b"]["b2"] = [[str(int(mul[(mul[w], "b")] == v))
                             for w in square] for v in names]
    pres = load_document(doc).presentation
    report = hs.check_monad(pres.monad)
    expected = naive_monad(pres.monad)
    assert report.failures == expected
    assert {law for law, _ in expected} == {"associativity"}

    def reads_the_changed_entry(h, k, l):
        return ("b", "b2") in ((h, k), (k, l), (mul[(h, k)], l),
                               (h, mul[(k, l)]))
    assert all(reads_the_changed_entry(*key) for _, (key, _) in expected)


@pytest.mark.parametrize("n", [3, 5])
def test_a_shared_mu_decides_each_monad_law_once(n, monkeypatch):
    names, mul, unit = hs.cyclic_group(n)
    pres = load_document(group_algebra_document(names, mul, unit)).presentation
    calls = []
    raw = VectBackend.eq2

    def counted(self, f, g):
        calls.append((f, g))
        return raw(self, f, g)

    monkeypatch.setattr(VectBackend, "eq2", counted)
    laws = walked(monkeypatch)
    assert hs.check_monad(pres.monad).ok
    # One pair of operands per law: associativity, left and right unit.
    # Each law is one equation: no tuple is walked (n^3 triples and 2n
    # unit tuples were walked before the presentation was marked).
    assert len(calls) == 3 and laws == []

    # On n objects every hom is one object and every mu entry one
    # matrix: each side is built once for all n^4 triples and n^2
    # morphisms, two composites for associativity and two for the units.
    # Every map is the identity of K, and every side comes out as that
    # one matrix, so the three laws are one decision.
    built = []
    raw_vcomp = VectBackend.vcomp

    def counted_vcomp(self, second, first):
        built.append((second, first))
        return raw_vcomp(self, second, first)

    monkeypatch.setattr(VectBackend, "vcomp", counted_vcomp)
    calls.clear()
    assert hs.check_monad(hs.indiscrete_enriched(range(n)).monad).ok
    assert len(calls) == 1 and len(built) == 4 and laws == []


# ---------------------------------------------------------------------------
# The rule itself.


class CountingBackend:
    def __init__(self):
        self.calls = []

    def eq2(self, f, g):
        self.calls.append(("eq2", f, g))
        return f == g

    def first_diff(self, f, g):
        self.calls.append(("first_diff", f, g))
        return (f, g)


def test_equal_decides_each_pair_of_operands_once():
    be, report = CountingBackend(), CheckReport("r")
    one, two = [1], [2]
    for key in "abc":
        report.equal("law", key, be, one, two)
        report.equal("law", key, be, one, [1])
    assert report.failures == [("law", (key, ([1], [2]))) for key in "abc"]
    assert [c[0] for c in be.calls] == ["eq2", "first_diff"] + ["eq2"] * 3


def test_holds_records_the_witness_with_its_place():
    report = CheckReport("r")
    report.holds("a", Verdict(True), 1)
    report.holds("b", Verdict(False, "w"))
    report.holds("c", Verdict(False, "w"), 0)
    assert report.failures == [("b", "w"), ("c", (0, "w"))]


# ---------------------------------------------------------------------------
# The uniform rule: a law whose operands are one object at every tuple is
# one equation.  Each generated input comes as it is ("passing"), with
# one wrong object in every slot of an operand ("failing": the one
# equation fails), and with one slot given an equal but distinct copy
# ("copy") or the wrong object ("broken"): then no operand of that kind
# is one object and the loop is walked.


def copied(f):
    """An equal but distinct copy of a matrix or a transformation."""
    if isinstance(f, NatTransData):
        return NatTransData(f.source, f.target, dict(f.components))
    return VMorphism(f.dom, f.cod, f.entries)


def variants(rng, structure, right, wrong_of):
    """(kind, the structure dict) for the four kinds, right at every slot
    but where a kind says otherwise."""
    wrong = wrong_of(right)
    slot = rng.choice(sorted(structure, key=repr))
    yield "passing", dict.fromkeys(structure, right)
    yield "failing", dict.fromkeys(structure, wrong)
    yield "copy", {**dict.fromkeys(structure, right), slot: copied(right)}
    yield "broken", {**dict.fromkeys(structure, right), slot: wrong}


def random_like(rng):
    """A random matrix of f's shape other than f."""
    def wrong(f):
        g = f
        while g == f:
            g = random_vmorphism(rng, f.dom, f.cod)
        return g
    return wrong


def walked(monkeypatch):
    """The law of each tuple the checkers walk, in order: one per call
    of CheckReport.equal that records."""
    laws = []
    equal = CheckReport.equal

    def counted(self, law, *args):
        if law is not None:
            laws.append(law)
        return equal(self, law, *args)
    monkeypatch.setattr(CheckReport, "equal", counted)
    return laws


def assert_uniform_rule(kinds):
    """kinds maps each kind to (failures, oracle's failures, laws
    walked): every kind gives the oracle's report; the passing input
    walks no tuple; the failing one walks the loop the copy walks, and
    each law that fails there fails at every tuple."""
    for kind, (failures, expected, laws) in kinds.items():
        assert failures == expected, kind
    assert not kinds["passing"][2] and not kinds["passing"][0]
    failures, _, laws = kinds["failing"]
    assert failures and laws == kinds["copy"][2] == kinds["broken"][2]
    for law in {law for law, _ in failures}:
        assert sum(1 for l, _ in failures if l == law) == laws.count(law)


def uniform_monads(seed):
    """(operand, the four kinds) for the group algebras of Z_2 and Z_3 and
    the indiscrete presentations on 2 and 3 objects, on mu and, with
    more than one object, on eta; and for cat_presentation's Z_2 and Z_3
    shapes on mu, whose wrong transformation has a component other than
    the unit, so that the unit laws fail."""
    rng = seeded(seed)
    for p in (hs.cyclic_group_algebra(2).monad,
              hs.cyclic_group_algebra(3).monad,
              hs.indiscrete_enriched(range(2)).monad,
              hs.indiscrete_enriched(range(3)).monad):
        for operand in ("mu", "eta")[:1 + (len(p.eta) > 1)]:
            structure = getattr(p, operand)
            yield operand, {
                kind: dataclasses.replace(p, **{operand: given})
                for kind, given in variants(rng, structure, structure.value,
                                            random_like(rng))}
    for n in (2, 3):
        p = cat_presentation(rng, n, set(), True)
        right = p.mu.value
        wrong = NatTransData(right.source, right.target, {"*": "b"})
        yield "mu", {kind: dataclasses.replace(p, mu=mu) for kind, mu in
                     variants(rng, p.mu, right, lambda f: wrong)}


@pytest.mark.parametrize("seed", range(2))
def test_uniform_monad_laws_are_one_equation(seed, monkeypatch):
    laws = walked(monkeypatch)
    for operand, cases in uniform_monads(seed):
        kinds = {}
        for kind, p in cases.items():
            assert type(getattr(p, operand)) is (
                Uniform if kind in ("passing", "failing") else dict)
            laws.clear()
            failures = hs.check_monad(p).failures
            kinds[kind] = (failures, naive_monad(p), list(laws))
        assert_uniform_rule(kinds)
    # An equal but distinct label is walked too.
    p = cat_presentation(seeded(seed), 2, set(), True)
    h, ident = next(iter(p.mor_label.items()))
    copy = FunctorData(ident.dom, ident.cod, ident.omap, ident.mmap)
    p = dataclasses.replace(p, mor_label={**p.mor_label, h: copy})
    laws.clear()
    assert hs.check_monad(p).failures == naive_monad(p) == [] and laws


@pytest.mark.parametrize("seed", range(2))
def test_uniform_comonoid_laws_are_one_equation(seed, monkeypatch):
    rng, laws = seeded(seed), walked(monkeypatch)
    for n in (2, 3):
        pres = hs.cyclic_group_algebra(n)
        t, elements = pres.monad.cells[0], list(pres.elements)
        delta, eps = pres.delta[pres.unit], pres.eps[pres.unit]
        for operand in ("delta", "eps"):
            kinds = {}
            for kind, given in variants(rng, elements,
                                        delta if operand == "delta" else eps,
                                        random_like(rng)):
                structure = {"delta": dict.fromkeys(elements, delta),
                             "eps": dict.fromkeys(elements, eps),
                             operand: given}
                com = ComonoidLabeledCell(t, **structure)
                laws.clear()
                failures = check_comonoid(com).failures
                kinds[kind] = (failures, naive_comonoid(com), list(laws))
            assert_uniform_rule(kinds)


@pytest.mark.parametrize("seed", range(2))
def test_uniform_antipode_squares_are_one_equation(seed, monkeypatch):
    rng, laws = seeded(seed), walked(monkeypatch)
    for pres in (hs.cyclic_group_algebra(2), hs.cyclic_group_algebra(3),
                 hs.indiscrete_enriched(range(3))):
        for operand, structure in (("delta", pres.delta), ("eps", pres.eps),
                                   ("antipode", pres.antipode.sigma)):
            kinds = {}
            for kind, given in variants(rng, structure,
                                        next(iter(structure.values())),
                                        random_like(rng)):
                if operand == "antipode":
                    given = hs.AntipodeFamily(given)
                q = dataclasses.replace(pres, **{operand: given})
                laws.clear()
                failures = hs.check_antipode_group(q).failures
                kinds[kind] = (failures, naive_antipode(
                    q.monad, q.comonoid_structure(),
                    q.sigma_by_shape(q.antipode)), list(laws))
            assert_uniform_rule(kinds)


def test_a_shape_without_inverses_walks_its_morphisms():
    # Every operand of the idempotent monoid's squares is one object,
    # but z has no inverse: the loop names it, and decides e.
    p = hs.idempotent_monoid_presentation().monad
    one = p.eta["*"]
    c = hs.ComonoidStructure(dict.fromkeys(p.shape.morphisms, one),
                             dict.fromkeys(p.shape.morphisms, one))
    sigma = Uniform.fromkeys(p.shape.morphisms, one)
    sigma.value = one
    assert hs._antipode_axioms(p, c, sigma).failures == [
        ("no shape inverse", "z")]


def uniform_modules(rng):
    """(presentation, module objects, the action's kinds, the laws the
    failing action fails).  Over the indiscrete presentation every hom
    is K, so an action K . V -> V is one matrix A on V: associativity is
    A = A A and the unit A = 1.  With the group algebra of Z_2 at every
    hom, an action on K is a character chi: the unit chi(e) = 1 holds
    for chi(b) = 2, and associativity chi(b) chi(b) = chi(e) fails."""
    for objects in (["x", "y"], ["x", "y", "z"]):
        space = VObject([(("v",), 0), (("w",), 1)])
        yield (hs.indiscrete_enriched(objects), space,
               variants(rng, list(itertools.product(objects, repeat=3)),
                        VMorphism.identity(space), random_like(rng)),
               {"module associativity", "module unit"})
    z2 = hs.cyclic_group_algebra(2)
    objects, h = ["x", "y"], z2.labels[z2.unit]
    pairs = list(itertools.product(objects, repeat=2))
    triples = list(itertools.product(objects, repeat=3))
    e = hs.EnrichedCatPresentation(
        z2.backend, FinSet(objects), dict.fromkeys(pairs, h),
        dict.fromkeys(triples, z2.mu[(z2.unit, z2.unit)]),
        dict.fromkeys(objects, z2.eta))
    counit = z2.eps[z2.unit]
    chi = VMorphism(counit.dom, counit.cod, [[1, 2]])
    assert h.labels() == [("e",), ("b",)]
    yield (e, unit_object(), variants(rng, triples, counit, lambda f: chi),
           {"module associativity"})


@pytest.mark.parametrize("seed", range(2))
def test_uniform_module_squares_are_one_equation(seed, monkeypatch):
    rng, laws = seeded(seed), walked(monkeypatch)
    for e, space, actions, failing in uniform_modules(rng):
        v = dict.fromkeys(itertools.product(e.objects, repeat=2), space)
        kinds = {}
        for kind, psi in actions:
            m = hs.EnrichedModule(v, psi)
            report = CheckReport("module")
            laws.clear()
            hs._enriched_module_squares(e, m, report, "module")
            kinds[kind] = (report.failures,
                           naive_module_squares(e, m, "module"), list(laws))
        assert_uniform_rule(kinds)
        assert {law for law, _ in kinds["failing"][0]} == failing


def tuple_product(e, a, b):
    """enriched_module_product with a fresh action composed at every key,
    as the tuple loop builds it."""
    q = e.backend.q
    v = {p: vb.tensor_obj(a.v[p], b.v[p]) for p in a.v}
    psi = {}
    for (x, y, z) in a.psi:
        homxy, av, bv = e.hom[(x, y)], a.v[(y, z)], b.v[(y, z)]
        spread = vb.tensor_mor(e.delta[(x, y)],
                               VMorphism.identity(vb.tensor_obj(av, bv)))
        shuffle = vb.tensor_mor(
            VMorphism.identity(homxy),
            vb.tensor_mor(vb.braiding(homxy, av, q), VMorphism.identity(bv)))
        act = vb.tensor_mor(a.psi[(x, y, z)], b.psi[(x, y, z)])
        psi[(x, y, z)] = act.compose(shuffle).compose(spread)
    return hs.EnrichedModule(v, psi)


@pytest.mark.parametrize("seed", range(2))
def test_a_uniform_module_has_a_uniform_product(seed, monkeypatch):
    # Over the indiscrete presentation each action of the product is
    # built once per distinct operands: the product of a module whose
    # action is one matrix is one matrix too, and its squares are one
    # equation each, walked only when it fails; with one action copied
    # or broken the squares are walked, and every action and every
    # failure is the tuple loop's.
    rng, laws = seeded(seed), walked(monkeypatch)
    for e, space, actions, _ in list(uniform_modules(rng))[:2]:
        v = dict.fromkeys(itertools.product(e.objects, repeat=2), space)
        for kind, psi in actions:
            m = hs.EnrichedModule(v, psi)
            product, oracle = hs.enriched_module_product(e, m, m), \
                tuple_product(e, m, m)
            assert product.v == oracle.v
            assert all(product.psi[key] == f for key, f in oracle.psi.items())
            assert (type(product.psi) is Uniform) == (kind in ("passing",
                                                               "failing"))
            laws.clear()
            failures = hs.check_enriched_module(e, m).failures
            assert [f for f in failures if f[0].startswith("product")] == \
                naive_module_squares(e, oracle, "product")
            walked_product = [law for law in laws
                              if law.startswith("product")]
            assert bool(walked_product) == (kind != "passing")
