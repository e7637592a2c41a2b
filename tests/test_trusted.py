"""Checking mode: every trusted constructor replaced by the checking one.

Identities and composites of checked values are built through
``finset_span._trusted``, which sets a frozen value's fields without
running its constructor's checks.  Here it is patched back to the
constructor in every module that binds it, and the goldens, the
acceptance inputs and generated chains of composites are built again:
no constructor may raise, and every composite must equal the one the
trusted path built.  That includes the law chains whose later stages
are built only on the atoms their source reaches.  Mutant composites
show that the mode catches what the trusted path lets through.
"""

import inspect
import sys

import pytest

import test_acceptance
import test_golden
import test_hopf_structures
from hopfspan import cat_backend as cb
from hopfspan import finset_span as fs
from hopfspan import hopf_structures as hs
from hopfspan import spanv_core as sc
from hopfspan.cat_backend import CatError, FinCategory, FunctorData, \
    NatTransData
from hopfspan.finset_span import FinFn, SpanError
from hopfspan.spanv_core import (
    VectBackend, hcomp1, hcomp2, identity_cell2, product_functor,
    product_nat, tensor2, vcomp2,
)
from hopfspan.vect_backend import BraidParam
from rand import (
    random_composable_vect_cell1s, random_vect_cell0, random_vect_cell1,
    random_vect_cell2_from, seeded,
)


def checking(cls, *values):
    return cls(*values)


def enter_checking_mode(monkeypatch):
    """Route every trusted construction through the public constructor,
    and forget the product categories kept on the shared unit category,
    so that they are built again, with checks."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfspan.") and hasattr(module, "_trusted"):
            monkeypatch.setattr(module, "_trusted", checking)
    monkeypatch.setitem(vars(cb.TERMINAL), "_products", {})


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
# inputs run below at Z_3 and Z_4.
TRUST_BOUND = {"test_criterion_11_translation_polyad_z3_to_z5",
               "test_criterion_14_translation_polyad_z6_hopf_check"}
ACCEPTANCE = sorted(name for name in vars(test_acceptance)
                    if name.startswith("test_") and name not in TRUST_BOUND)


@pytest.mark.parametrize("name", ACCEPTANCE)
def test_acceptance_in_checking_mode(name, checking_mode, tmp_path):
    test = getattr(test_acceptance, name)
    test(*[tmp_path for _ in inspect.signature(test).parameters])


@pytest.mark.parametrize("n", [3, 4])
def test_translation_polyad_in_checking_mode(n, checking_mode):
    test_acceptance.translation_polyad_checks(n)


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
        built += [hs._fusion(mp, c, fibers, side)
                  for side in ("left", "right")]
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
