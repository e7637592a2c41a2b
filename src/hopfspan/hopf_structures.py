"""Finite monad presentations on span carriers and their Hopf structure.

A monad on a finite carrier is presented by a shape category: one base
1-cell label per shape morphism, a multiplication 2-cell per composable
pair and a unit 2-cell per object.  The total 1-cell keeps the morphism
set as apex with the target and source maps as legs, so the apex of its
self-composite is exactly the set of composable pairs and each monad
axiom reduces to one base equation per composable triple or morphism.
Every law equation here is recorded through CheckReport, which decides
a base equation once per distinct pair of operands: the triples of a
presentation whose mu entries are one shared matrix are one decision.
The law loops walk only the tuples they decide (associativity only the
composable triples) and build each side once per distinct operands,
keyed by the ids of the mu entries, labels and structure maps it reads.

Over the one-object graded base, labels with per-morphism comonoid
structure make the presentation an opmonoidal monad on the induced
monoid object.  The two fusion 2-cells are assembled from the generic
coherence cells, with the braiding entering only through the interchange
step, and the presentation is Hopf exactly when both are invertible.
Antipode families are checked componentwise (check_antipode_group) and
as assembled 2-cell chains (check_antipode_duoidal), each one
construction over the shape for one-object and hom-enriched
presentations alike.  They are computed as the unique solution of the
stacked antipode squares, built as sparse rows and reduced by the single
elimination routine vect_backend.row_reduce; a system without a unique
solution is reported as ("underdetermined", first pivot-free column) or
("inconsistent", row).  Each solution is cross-checked against the
extraction from the inverted right fusion cell.

Over the finite-category base the same shape data is a polyad: labels
are functors and multiplication is natural.  It is Hopf when its shape
is a groupoid and its fusion families are invertible; into a thin
fiber each family is held by its two functors, with no component
composed.  Modules and representations
are enumerated exhaustively and compared, through a validated functor
pair, with the algebra 2-cells over restricted carrier 1-cells.  A final
section pushes one-object presentations along the tensoring functor into
the lazy-category backend and re-checks them pointwise on probes.
"""

import itertools
from operator import itemgetter
from dataclasses import dataclass, field
from typing import NamedTuple

from . import cat_backend as cb
from . import vect_backend as vb
from .finset_span import FinFn, FinSet, Span, compose_spans
from .monoidale_duoidal import (
    ComonoidLabeledCell,
    MonoidalFiber,
    check_comonoid,
    comonoid_cells,
    diagonal_multiplication,
    duoidal_units,
    _over_m,
    _starred,
)
from .reporting import CheckReport, Verdict
from .spanv_core import (
    CatBackend,
    Cell0,
    Cell1,
    HeldCells,
    SpanVError,
    VectBackend,
    apply_span_F,
    cell2_along,
    differences2,
    eq2,
    hcomp1,
    hcomp2,
    identity_cell1,
    identity_cell2,
    invert_cell2,
    product_category,
    product_functor,
    regroup,
    relabel_cell2,
    right_unitor_cell2,
    tensor1,
    unit_cell0,
    vcomp2,
    vect_to_cat_functor,
    _composite,
    _covers,
    _fill,
    _mark_fields,
    _marked,
    _chained,
    _interchanged,
    _landed,
    _relabeled,
    _run,
    _tensored,
    _values,
    _whiskered,
)


# ---------------------------------------------------------------------------
# Monad presentations.


@dataclass(frozen=True)
class MonadPresentation:
    """A monad on a finite carrier, presented over a shape category.

    base_label assigns a base 0-cell value to every shape object and
    mor_label a base 1-cell value to every morphism; mu[(h, k)] (h after
    k) and eta[x] are base 2-cell values.  Construction builds the monad
    cells once, which validates every boundary, and keeps them as cells
    for every checker to read; the equations themselves are left to
    check_monad.  Each of mu, mor_label and eta becomes a Uniform when it
    holds one object at every key, so that each law on them is one
    equation.
    """

    backend: object
    shape: cb.FinCategory
    base_label: dict
    mor_label: dict
    mu: dict
    eta: dict
    cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cells", monad_cells(self))
        _mark_fields(self, "mu", "mor_label", "eta")


def monad_cells(p):
    """The total 1-cell, whose apex is the morphism set with the target
    map as the left leg and the source map as the right leg, with its
    multiplication and unit 2-cells."""
    d = p.shape
    carrier = Cell0(p.backend, d.objects, dict(p.base_label))
    t = Cell1(p.backend, carrier, carrier,
              Span(d.objects, d.objects, d.morphisms, d.tgt, d.src),
              dict(p.mor_label))
    composite = hcomp1(t, t)
    for pair in composite.span.apex:
        if pair not in p.mu:
            raise SpanVError("multiplication entry missing at %r" % (pair,))
    # The apex of t o t is the composable pairs: each composite is read
    # from the table, which cell2_along checks against the legs.
    mu2 = cell2_along(composite, t, d.composition.__getitem__,
                      {pair: p.mu[pair] for pair in composite.span.apex})
    eta2 = cell2_along(identity_cell1(t.src), t, d.identities,
                       {x: p.eta[x] for x in d.objects})
    return t, mu2, eta2


def check_monad(p):
    """Associativity over composable triples, unitality over morphisms.

    When mu, the labels and eta are each one object (Uniform), each law
    is one equation, decided once; the triples and morphisms are walked
    only if one fails, to record every failing tuple.  l runs over the
    morphisms into src(k) in morphism order, read with what (k, l) gives
    once per composable pair (the tails of k).  Each side is built once
    per distinct mu entries and labels, keyed by their ids:
    CheckReport.once, inlined for the n^4 triples of an n-object
    shape."""
    report = CheckReport("monad axioms")
    be, d, lab, mu, eta = p.backend, p.shape, p.mor_label, p.mu, p.eta
    comp, src, tgt = d.composition, d.src.assignment, d.tgt.assignment

    def associativity(hk_l, h_k, l, h_kl, h, k_l):
        return (be.vcomp(hk_l, be.comp2(h_k, be.id2(l))),
                be.vcomp(h_kl, be.comp2(be.id2(h), k_l)))

    def units(y_h, unit_y, h_x, unit_x, h):
        one = be.id2(h)
        return (be.vcomp(y_h, be.comp2(unit_y, one)),
                be.vcomp(h_x, be.comp2(one, unit_x)), one)

    one = _values(mu, lab, eta)
    if one is not None and len(d.morphisms):
        m, label, unit = one
        left, right, ident = units(m, unit, m, unit, label)
        if report.uniform(be, associativity(m, m, label, m, label, m),
                          (left, ident), (right, ident)):
            return report
    mid = {pair: id(f) for pair, f in mu.items()}
    tails, built = {}, {}
    for (k, l) in d.composable_pairs():
        tails.setdefault(k, []).append(
            (l, comp[(k, l)], mid[(k, l)], id(lab[l])))
    for (h, k) in d.composable_pairs():
        i_hk, hk, i_h = mid[(h, k)], comp[(h, k)], id(lab[h])
        for l, kl, i_kl, i_l in tails.get(k, ()):
            key = (mid[(hk, l)], i_hk, i_l, mid[(h, kl)], i_h, i_kl)
            hit = built.get(key)
            if hit is None:
                operands = (mu[(hk, l)], mu[(h, k)], lab[l], mu[(h, kl)],
                            lab[h], mu[(k, l)])
                hit = built[key] = (operands, associativity(*operands))
            report.equal("associativity", (h, k, l), be, *hit[1])
    ident = d.identities.assignment
    for h in d.morphisms:
        x, y = src[h], tgt[h]
        left, right, one = report.once(units, mu[(ident[y], h)], eta[y],
                                       mu[(h, ident[x])], eta[x], lab[h])
        report.equal("left unit", h, be, left, one)
        report.equal("right unit", h, be, right, one)
    return report


# ---------------------------------------------------------------------------
# Comonoid labels and the opmonoidal structure cells.


@dataclass(frozen=True)
class ComonoidStructure:
    """Per-morphism comultiplication and counit on the 1-cell labels,
    keyed by shape morphisms.  Each is a Uniform when it is one matrix
    at every morphism, so that the binary structure cell is built once
    and each antipode square is one equation."""

    delta: dict
    eps: dict

    def __post_init__(self):
        _mark_fields(self, "delta", "eps")


def _binary_cell(p, c, m):
    """The binary structure cell t o m => m o (t . t) over the
    multiplication m, t . t on just the pairs of atoms m reaches."""
    d, t = p.shape, p.cells[0]
    source, target = hcomp1(t, m), _over_m(m, t, t)
    atoms = source.span.apex.elements
    return cell2_along(source, target,
                       lambda hx: (d.tgt(hx[0]), (hx[0], hx[0])),
                       _fill(atoms, lambda delta: delta, c.delta)
                       or {(h, x): c.delta[h] for (h, x) in atoms})


def check_opmonoidal(p, c):
    """Comonoid laws per label, then the four squares tying the monad
    cells to the convolution comonoid cells.

    Only the one-object graded base is accepted here; category-valued
    structure is validated by PolyadOpmonoidalStructure instead, where
    the compatibility squares live inside the fibers.
    """
    be = p.backend
    if not isinstance(be, VectBackend):
        raise SpanVError("assembled bimonoid squares need the one-object "
                         "graded base")
    t, mu2, eta2 = p.cells
    com = ComonoidLabeledCell(t, dict(c.delta), dict(c.eps))
    report = CheckReport("opmonoidal structure")
    report.merge(check_comonoid(com))
    if not report.ok:
        return report
    delta2, eps2 = comonoid_cells(com)
    units = duoidal_units(p.shape.objects, be)
    square = _landed(_chained(mu2.source, _whiskered(delta2, delta2),
                              _interchanged(t, t, t, t), _starred(mu2, mu2)),
                     delta2.target)
    report.holds("multiplication respects comultiplication", eq2(
        vcomp2(delta2, mu2), square))
    report.holds("multiplication respects counit", eq2(
        vcomp2(eps2, mu2), _landed(_chained(
            mu2.source, _whiskered(eps2, eps2), units.mu_j), eps2.target)))
    report.holds("unit respects comultiplication", eq2(
        vcomp2(delta2, eta2), _landed(_chained(
            eta2.source, units.delta_i, _starred(eta2, eta2)), delta2.target)))
    report.holds("unit respects counit",
                 eq2(vcomp2(eps2, eta2), units.iota_ij))
    return report


# ---------------------------------------------------------------------------
# Fusion 2-cells and the Hopf property.


def _pair_order(side):
    """The tensor pair order of a fusion side: kept on the left, swapped
    on the right."""
    if side not in ("left", "right"):
        raise SpanVError("unknown fusion side %r" % (side,))
    return (lambda a, b: (a, b)) if side == "left" else (lambda a, b: (b, a))


def _fusion_operands(p, c, fibers):
    """What both fusion cells are built from: the multiplication m of
    the monoid object, the binary structure cell over m and the right
    unitor on t."""
    m = diagonal_multiplication(p.shape.objects, p.backend, fibers)
    return m, _binary_cell(p, c, m), right_unitor_cell2(p.cells[0])


def _fusion(p, operands, side):
    """The fusion cell (t o m) o (t . 1) => m o (t . t) on the left and
    (t o m) o (1 . t) => m o (t . t) on the right, from the cells
    _fusion_operands builds: one chain, every tensor pair in the side's
    order, landed once in the binary cell's target.  It whiskers the
    binary structure cell and reassociates; then, whiskered by 1_m,
    applies the interchange (where the braiding acts), multiplies and
    absorbs the identity factor.  Over the graded
    base the component at a composable pair works out to
    (mu tensor 1) (1 tensor braiding) (delta tensor 1) on the left; on
    the right the interchange braids against the unit label, so it is
    (1 tensor mu) (delta tensor 1).  The tests pin both down
    independently.
    """
    order = _pair_order(side)
    t, mu2, _ = p.cells
    m, binary, unitor = operands
    idc = identity_cell1(m.tgt)
    pair = tensor1(*order(t, idc))
    multiply = _run(_interchanged(t, t, *order(t, idc)),
                    _tensored(*order(mu2, unitor)))
    return _landed(_chained(hcomp1(binary.source, pair),
                            _whiskered(binary, pair), _relabeled(regroup),
                            _whiskered(m, multiply)), binary.target)


def left_fusion(p, c, fibers=None):
    """The left fusion cell (t o m) o (t . 1) => m o (t . t), whose
    invertibility is the left half of the Hopf property (see _fusion)."""
    return _fusion(p, _fusion_operands(p, c, fibers), "left")


def right_fusion(p, c, fibers=None):
    """The right fusion cell (t o m) o (1 . t) => m o (t . t): the left
    one with every tensor pair swapped (see _fusion)."""
    return _fusion(p, _fusion_operands(p, c, fibers), "right")


def fusion_cells(p, c, fibers=None):
    """Both fusion cells, left then right, built from one set of
    _fusion_operands."""
    operands = _fusion_operands(p, c, fibers)
    return _fusion(p, operands, "left"), _fusion(p, operands, "right")


def fusion_components(cell, side):
    """The components of a built fusion cell keyed by the fused pair
    (h, k) of shape morphisms, read off its apex atoms: ((h, x), (k, x))
    on the left side and ((h, x), (x, k)) on the right."""
    order = _pair_order(side)
    return {(atom[0][0], order(*atom[1])[0]): cell.components[atom]
            for atom in cell.source.span.apex}


def fusion_verdict(left, right):
    """Both built fusion cells invertible: bijective span maps with
    invertible components.  The witness names the first failing side."""
    for side, cell in (("left", left), ("right", right)):
        res = invert_cell2(cell)
        if not res:
            return Verdict(False, witness=(side,) + tuple(res.witness))
    return Verdict(True)


def is_hopf(p, c, fibers=None):
    """The Hopf property: build both fusion cells and test them."""
    return fusion_verdict(*fusion_cells(p, c, fibers))


# ---------------------------------------------------------------------------
# Antipode families: checking and exact computation.


@dataclass(frozen=True)
class AntipodeFamily:
    """One base 2-cell per element or hom pair, from each label to the
    label of its inverse."""

    sigma: dict


@dataclass(frozen=True)
class AntipodeResult:
    family: object
    witness: object = None

    def __bool__(self):
        return self.family is not None


_SQUARE_LAWS = ("(1, sigma) square", "(sigma, 1) square")


def _antipode_squares(be, h_g, g_h, label, sigma, delta, eps, unit_y,
                      unit_x):
    """Both antipode squares at h: x -> y with shape inverse g, from
    h_g = mu[(h, g)], g_h = mu[(g, h)], the label, sigma, delta and eps
    at h and eta at y and x: mu (1 . sigma) delta with its target
    eta eps at y, then mu (sigma . 1) delta with eta eps at x."""
    one = be.id2(label)
    return ((be.vcomp(h_g, be.vcomp(be.tensor2v(one, sigma), delta)),
             be.vcomp(unit_y, eps)),
            (be.vcomp(g_h, be.vcomp(be.tensor2v(sigma, one), delta)),
             be.vcomp(unit_x, eps)))


def _antipode_axioms(p, c, sigma):
    """The two unit-counit composites per morphism, against eta o eps,
    both built once per distinct operands.  When every operand is one
    object (Uniform), every morphism has a shape inverse and sigma,
    delta and eps are given at each, each square is one equation,
    decided once; the morphisms are walked only if one fails.

    sigma is keyed by shape morphisms, each entry from the label of the
    morphism to the label of its shape inverse; a missing inverse is a
    failure of the shape, not of the family.
    """
    report = CheckReport("antipode axioms")
    be, d, mu, eta = p.backend, p.shape, p.mu, p.eta
    src, tgt = d.src.assignment, d.tgt.assignment
    inverse = {h: d.inverse(h) for h in d.morphisms}
    one = _values(mu, p.mor_label, sigma, c.delta, c.eps, eta)
    if one is not None and inverse and None not in inverse.values() \
            and all(_covers(f, inverse) for f in (sigma, c.delta, c.eps)):
        m, label, s, delta, eps, unit = one
        if report.uniform(be, *_antipode_squares(be, m, m, label, s, delta,
                                                 eps, unit, unit)):
            return report
    for h in d.morphisms:
        g = inverse[h]
        if g is None:
            report.fail("no shape inverse", h)
            continue
        squares = report.once(_antipode_squares, be, mu[(h, g)], mu[(g, h)],
                              p.mor_label[h], sigma[h], c.delta[h], c.eps[h],
                              eta[tgt[h]], eta[src[h]])
        for law, (lhs, unit) in zip(_SQUARE_LAWS, squares):
            report.equal(law, h, be, lhs, unit)
    return report


def _solve_unique(rows, width):
    """Exact elimination (vb.row_reduce) demanding a unique solution.

    rows are sparse rows in width unknowns, augmented with the right-hand
    side in column width.  Returns (solution, None) or (None, witness); a
    pivot-free column is reported as underdetermined since either reading
    (free variable or inconsistency) rules out a unique antipode.
    """
    pivots, _ = vb.row_reduce(rows, width)
    free = set(range(width)).difference(pivots)
    if free:
        return None, ("underdetermined", min(free))
    for r in range(width, len(rows)):
        if width in rows[r]:
            return None, ("inconsistent", r)
    return [rows[r].get(width, vb.ZERO) for r in range(width)], None


def _antipode_rows(p, c, h, g):
    """The stacked antipode system at h, whose shape inverse is g: one
    sparse row per entry of the (1, sigma) square, then per entry of the
    (sigma, 1) square, each row-major; one column per entry of sigma,
    row-major, and the targets eta eps in the last column.

    Both squares are linear in sigma, so the coefficient of sigma[i][q]
    is a sum over x of one entry of mu times one entry of delta: with
    a = dim(h) and b = dim(g), mu[(h, g)] at column x*b + i with delta[h]
    at row x*a + q, and mu[(g, h)] at column i*a + x with delta[h] at
    row q*a + x.
    """
    be, d = p.backend, p.shape
    a, b = p.mor_label[h].dim, p.mor_label[g].dim
    delta = c.delta[h].rows
    rows = []
    for mu, sigma_first, unit in ((p.mu[(h, g)], False, p.eta[d.tgt(h)]),
                                  (p.mu[(g, h)], True, p.eta[d.src(h)])):
        block = [{} for _ in range(mu.cod.dim * a)]
        for r, mu_row in enumerate(mu.rows):
            for k, m in mu_row.items():
                i, x = divmod(k, a) if sigma_first else divmod(k, b)[::-1]
                for q in range(a):
                    drow = delta[q * a + x] if sigma_first else delta[x * a + q]
                    for col, e in drow.items():
                        row, key = block[r * a + col], i * a + q
                        row[key] = row.get(key, vb.ZERO) + m * e
        for r, row in enumerate(be.vcomp(unit, c.eps[h]).rows):
            for col, e in row.items():
                block[r * a + col][b * a] = e
        rows += [{k: e for k, e in row.items() if e} for row in block]
    return rows


def _solve_antipode(p, c):
    """Per-morphism antipode entries as the unique solution of both
    stacked axiom systems, cross-checked against the extraction from the
    inverted right fusion component.  Keys follow the shape."""
    be, d = p.backend, p.shape
    groupoid = cb.is_groupoid(d)
    if not groupoid:
        return None, ("shape not a groupoid", groupoid.witness)
    fused = fusion_components(right_fusion(p, c), "right")
    sigma = {}
    for h in d.morphisms:
        g = d.inverse(h)
        lab_h, lab_g = p.mor_label[h], p.mor_label[g]
        width = lab_g.dim * lab_h.dim
        solution, witness = _solve_unique(_antipode_rows(p, c, h, g), width)
        if solution is None:
            return None, ("linear system", h, witness)
        solved = vb.VMorphism(lab_h, lab_g, [
            solution[k:k + lab_h.dim] for k in range(0, width, lab_h.dim)])
        res = vb.invert(fused[(h, g)])
        if not res:
            return None, ("fusion component singular", h, res.witness)
        extracted = be.vcomp(be.tensor2v(c.eps[h], be.id2(lab_g)),
                             be.vcomp(res.inverse,
                                      be.tensor2v(be.id2(lab_h),
                                                  p.eta[d.tgt(h)])))
        if not be.eq2(extracted, solved):
            return None, ("extraction disagrees with the linear solution", h)
        sigma[h] = solved
    return sigma, None


def compute_antipode(pres, c=None):
    """The antipode family of a group-monoid or hom-enriched
    presentation, or a witness explaining why none exists.

    Two independent routes must agree for every morphism: the unique
    solution of the exact linear system given by both antipode squares,
    and the candidate extracted from the inverted right fusion component.
    The optional c overrides the presentation's comonoid structure and is
    keyed by shape morphisms.
    """
    mp = pres.monad
    cs = c if c is not None else pres.comonoid_structure()
    solved, witness = _solve_antipode(mp, cs)
    if solved is None:
        return AntipodeResult(None, witness)
    return AntipodeResult(AntipodeFamily(pres.sigma_from_shape(solved)))


def check_antipode_group(pres, sigma=None):
    """Both antipode squares, componentwise: element by element for a
    one-object presentation, hom pair by hom pair for a hom-enriched
    one."""
    return _antipode_axioms(*_antipode_inputs(pres, sigma))


def _antipode_inputs(pres, sigma):
    """The monad presentation, comonoid structure and family (the given
    one, else the presentation's), the last two keyed by shape
    morphisms and the family a Uniform when it is one matrix."""
    fam = sigma if sigma is not None else pres.antipode
    if fam is None:
        raise SpanVError("presentation carries no antipode family")
    return (pres.monad, pres.comonoid_structure(),
            _marked(pres.sigma_by_shape(fam)))


def check_antipode_duoidal(pres, sigma=None):
    """The assembled 2-cell form of both antipode squares, one chain over
    the monad's shape for every presentation kind, plus agreement with
    the componentwise verdict.

    The assembled route and the componentwise route share no
    intermediate values: one is a chain of validated span 2-cells
    compared by eq2, the other a family of matrix equations.  Their
    verdicts must coincide.
    """
    inputs = _antipode_inputs(pres, sigma)
    report = _assembled_antipode(*inputs)
    pointwise = _antipode_axioms(*inputs)
    if report.ok != pointwise.ok:
        report.fail("assembled and componentwise verdicts differ",
                    (report.ok, pointwise.ok))
    return report


def _assembled_antipode(p, c, sigma):
    """Both antipode squares as 2-cell chains over a groupoid shape.

    The (1, sigma) square starts from the cell on the shape morphisms
    whose legs are both tgt, the (sigma, 1) square from the one whose
    legs are both src.  Each comultiplies, sends h to (h, h^-1) (or to
    (h^-1, h)) on the source of the multiplication with components
    1 . sigma_h (or sigma_h . 1), and multiplies; the unit path takes the
    counit, collapses onto the identity 1-cell along the leg and applies
    the unit.  Over one object star1 is hcomp1, so this is the
    convolution composite of the group case.  sigma and c are keyed by
    shape morphisms.
    """
    report = CheckReport("assembled antipode squares")
    be, d, lab = p.backend, p.shape, p.mor_label
    t, mu2, eta2 = p.cells
    inverse = {}
    for h in d.morphisms:
        inverse[h] = d.inverse(h)
        if inverse[h] is None:
            report.fail("no shape inverse", h)
            return report
    one = {h: be.id2(lab[h]) for h in d.morphisms}
    squares = (
        (d.tgt, lambda h: (h, inverse[h]),
         {h: be.tensor2v(one[h], sigma[h]) for h in d.morphisms}),
        (d.src, lambda h: (inverse[h], h),
         {h: be.tensor2v(sigma[h], one[h]) for h in d.morphisms}))
    for law, (leg, onto, swap) in zip(_SQUARE_LAWS, squares):
        span = Span(d.objects, d.objects, d.morphisms, leg, leg)
        source = Cell1(be, t.src, t.src, span, lab)
        doubled = Cell1(be, t.src, t.src, span,
                        {h: be.tensor1v(lab[h], lab[h]) for h in d.morphisms})
        units = Cell1(be, t.src, t.src, span,
                      {h: be.id1(t.src.label[leg(h)]) for h in d.morphisms})
        comult = cell2_along(source, doubled, lambda h: h, c.delta)
        swapped = cell2_along(doubled, mu2.source, onto, swap)
        counit = cell2_along(source, units, lambda h: h, c.eps)
        collapse = relabel_cell2(units, eta2.source, leg)
        report.holds(law, eq2(vcomp2(mu2, vcomp2(swapped, comult)),
                              vcomp2(eta2, vcomp2(collapse, counit))))
    return report


# ---------------------------------------------------------------------------
# One-object presentations: a label per monoid element.


@dataclass(frozen=True)
class GroupMonoidPresentation:
    """A one-object presentation over a monoid's multiplication table.

    labels maps each element to its graded object; mu[(a, b)] multiplies
    along the table, eta embeds the unit.  delta/eps and the antipode
    family are optional and keyed by elements, as is everything else, so
    no key translation is ever needed for this kind.  Construction builds
    the monad presentation on the table's one-object category once, as
    monad.
    """

    backend: VectBackend
    elements: FinSet
    mul: dict
    unit: object
    labels: dict
    mu: dict
    eta: vb.VMorphism
    delta: dict = None
    eps: dict = None
    antipode: AntipodeFamily = None
    monad: MonadPresentation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = cb.FinCategory.from_monoid(list(self.elements), self.mul,
                                           self.unit)
        object.__setattr__(self, "monad", MonadPresentation(
            self.backend, shape, {"*": "*"}, dict(self.labels),
            dict(self.mu), {"*": self.eta}))

    def comonoid_structure(self):
        if self.delta is None or self.eps is None:
            raise SpanVError("presentation carries no comonoid structure")
        return ComonoidStructure(dict(self.delta), dict(self.eps))

    def sigma_by_shape(self, fam):
        return dict(fam.sigma)

    def sigma_from_shape(self, sigma):
        return dict(sigma)


def _monoid_inverses(elements, mul, unit):
    out = {}
    for a in elements:
        inv = next((b for b in elements
                    if mul[(a, b)] == unit and mul[(b, a)] == unit), None)
        if inv is None:
            return None
        out[a] = inv
    return out


def grouplike_monoid_algebra(elements, mul, unit, q=None, grades=None):
    """The constant assignment: every element carries the monoid algebra
    itself, with table-driven multiplication and the basis-is-grouplike
    comonoid.  When every element is invertible the inversion antipode
    is attached; otherwise the antipode slot stays empty."""
    elements = list(elements)
    be = VectBackend(q if q is not None else vb.BraidParam(1))
    grades = dict(grades) if grades else {a: 0 for a in elements}
    obj = vb.VObject([((a,), grades[a]) for a in elements])
    square = vb.tensor_obj(obj, obj)
    mult = vb.VMorphism.from_basis_map(square, obj,
                                       lambda w: (mul[(w[0], w[1])],))
    eta = vb.VMorphism.from_basis_map(vb.unit_object(), obj,
                                      lambda w: (unit,))
    delta, eps = vb.grouplike(obj)
    antipode = None
    inverses = _monoid_inverses(elements, mul, unit)
    if inverses is not None:
        sigma = vb.VMorphism.from_basis_map(obj, obj,
                                            lambda w: (inverses[w[0]],))
        antipode = AntipodeFamily({a: sigma for a in elements})
    return GroupMonoidPresentation(
        be, FinSet(elements), dict(mul), unit,
        {a: obj for a in elements},
        {(a, b): mult for a in elements for b in elements},
        eta,
        {a: delta for a in elements},
        {a: eps for a in elements},
        antipode)


def constant_unit_presentation(elements, mul, unit, q=None):
    """Every label the base unit object; all structure maps identities."""
    elements = list(elements)
    be = VectBackend(q if q is not None else vb.BraidParam(1))
    k = vb.unit_object()
    one = vb.VMorphism.identity(k)
    antipode = None
    if _monoid_inverses(elements, mul, unit) is not None:
        antipode = AntipodeFamily({a: one for a in elements})
    return GroupMonoidPresentation(
        be, FinSet(elements), dict(mul), unit,
        {a: k for a in elements},
        {(a, b): one for a in elements for b in elements},
        one,
        {a: one for a in elements},
        {a: one for a in elements},
        antipode)


def cyclic_group(n):
    """Element names, multiplication table, and unit of the cyclic group
    of order n."""
    names = ["e"] + ["b" if k == 1 else "b%d" % k for k in range(1, n)]
    mul = {(names[i], names[j]): names[(i + j) % n]
           for i in range(n) for j in range(n)}
    return names, mul, "e"


def cyclic_group_algebra(n, q=None, graded=False):
    """The group algebra of the cyclic group of order n as a one-object
    presentation; graded puts the k-th power in degree k so a nontrivial
    braiding parameter acts on it."""
    names, mul, unit = cyclic_group(n)
    grades = {names[k]: k for k in range(n)} if graded else None
    return grouplike_monoid_algebra(names, mul, unit, q=q, grades=grades)


def idempotent_monoid_presentation(q=None):
    """The two-element monoid with an idempotent: the smallest shape on
    which the fusion span map collapses two apex elements."""
    elements = ["e", "z"]
    mul = {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z",
           ("z", "z"): "z"}
    return constant_unit_presentation(elements, mul, "e", q=q)


# ---------------------------------------------------------------------------
# Hom-enriched presentations: a label per ordered pair of objects.


@dataclass(frozen=True)
class EnrichedCatPresentation:
    """Hom objects with composition and units over a finite object set.

    hom[(x, y)] composes with hom[(y, z)] into hom[(x, z)] via
    mu[(x, y, z)]; eta[x] embeds the unit into hom[(x, x)].  The shape of
    the induced monad is the one-morphism-per-pair category, whose
    morphism (u, v): u -> v carries hom[(v, u)]; construction builds that
    monad presentation once, as monad, and the key-translation helpers
    keep the orientation in one place.  delta/eps/antipode are optional,
    keyed by hom pairs.  Each of hom, mu and eta becomes a Uniform when
    it holds one object at every key, as the monad's do.
    """

    backend: VectBackend
    objects: FinSet
    hom: dict
    mu: dict
    eta: dict
    delta: dict = None
    eps: dict = None
    antipode: AntipodeFamily = None
    monad: MonadPresentation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = cb.FinCategory.indiscrete(list(self.objects))
        mor_label = {(u, v): self.hom[(v, u)] for (u, v) in shape.morphisms}
        mu = {(g, f): self.mu[(g[1], g[0], f[0])]
              for (g, f) in shape.composable_pairs()}
        object.__setattr__(self, "monad", MonadPresentation(
            self.backend, shape, {x: "*" for x in shape.objects},
            mor_label, mu, dict(self.eta)))
        _mark_fields(self, "hom", "mu", "eta")

    def comonoid_structure(self):
        if self.delta is None or self.eps is None:
            raise SpanVError("presentation carries no comonoid structure")
        delta = {(u, v): self.delta[(v, u)] for (u, v) in self.delta}
        eps = {(u, v): self.eps[(v, u)] for (u, v) in self.eps}
        return ComonoidStructure(delta, eps)

    def sigma_by_shape(self, fam):
        return {(u, v): fam.sigma[(v, u)] for (u, v) in fam.sigma}

    def sigma_from_shape(self, sigma):
        return {(v, u): sigma[(u, v)] for (u, v) in sigma}


def indiscrete_enriched(objects, q=None):
    """Every hom the unit object, every structure map the identity."""
    be = VectBackend(q if q is not None else vb.BraidParam(1))
    X = FinSet(list(objects))
    k = vb.unit_object()
    one = vb.VMorphism.identity(k)
    pairs = [(x, y) for x in X for y in X]
    return EnrichedCatPresentation(
        be, X,
        {p: k for p in pairs},
        {(x, y, z): one for x in X for y in X for z in X},
        {x: one for x in X},
        {p: one for p in pairs},
        {p: one for p in pairs},
        AntipodeFamily({p: one for p in pairs}))


def enriched_from_groupoid(cat, q=None, grades=None):
    """Hom objects spanned by the hom sets of a finite groupoid, with
    linearized composition, grouplike comonoid, and inversion antipode.

    hom[(x, y)] is spanned by the morphisms into x from y, each wrapped
    as a single word atom so splitting tensor words stays unambiguous
    whatever the morphism atoms look like.  Equal structure maps are
    one object."""
    verdict = cb.is_groupoid(cat)
    if not verdict:
        raise SpanVError("inversion structure needs a groupoid; %r has "
                         "no inverse" % (verdict.witness,))
    be = VectBackend(q if q is not None else vb.BraidParam(1))
    shared = {}

    def share(f):
        return shared.setdefault(f, f)

    def basis_map(dom, cod, fn):
        return share(vb.VMorphism.from_basis_map(dom, cod, fn))

    X = FinSet(list(cat.objects))
    grades = dict(grades) if grades else {m: 0 for m in cat.morphisms}
    hom = {}
    for x in X:
        for y in X:
            hom[(x, y)] = vb.VObject([((m,), grades[m])
                                      for m in cat.hom(y, x)])
    mu = {}
    for x in X:
        for y in X:
            for z in X:
                dom = vb.tensor_obj(hom[(x, y)], hom[(y, z)])
                mu[(x, y, z)] = basis_map(
                    dom, hom[(x, z)],
                    lambda w: (cat.compose(w[0], w[1]),))
    eta = {}
    for x in X:
        eta[x] = basis_map(
            vb.unit_object(), hom[(x, x)],
            lambda w: (cat.identities(x),))
    delta, eps = {}, {}
    for p in hom:
        delta[p], eps[p] = map(share, vb.grouplike(hom[p]))
    sigma = {}
    for (x, y) in hom:
        sigma[(x, y)] = basis_map(hom[(x, y)], hom[(y, x)],
                                  lambda w: (cat.inverse(w[0]),))
    return EnrichedCatPresentation(be, X, hom, mu, eta, delta, eps,
                                   AntipodeFamily(sigma))


# ---------------------------------------------------------------------------
# Polyads: strictly monoidal fibers and comparison transformations.


@dataclass(frozen=True)
class MonoidalCatData:
    """A strictly monoidal finite category: the tensor is a functor on
    the product category, associative and unital on the nose at both the
    object and morphism level.  Associativity on objects is Light's test
    on a generating set of the object table (cb.light_associative), n^2
    per generator, and the n^3 triples are walked only when it fails, to
    name the first.  Associativity on morphisms is checked on the
    generators of the triple product only, and in a thin category not at
    all: there the laws on morphisms are decided by their endpoints,
    which the laws on objects fix."""

    cat: cb.FinCategory
    tensor: cb.FunctorData
    unit: object

    def __post_init__(self):
        c, t = self.cat, self.tensor
        if t.dom != product_category(c, c) or t.cod != c:
            raise SpanVError("tensor must be a functor from the product "
                             "category back to the category")
        if self.unit not in c.objects:
            raise SpanVError("unit object %r not present" % (self.unit,))
        e, u = c.identities(self.unit), self.unit
        to, objects = t.omap.assignment, c.objects.elements
        for x in objects:
            if to[(u, x)] != x or to[(x, u)] != x:
                raise SpanVError("unit law fails at %r" % (x,))
        thin = cb.is_thin(c)
        if not thin:
            for m in c.morphisms:
                if t.mmap((e, m)) != m or t.mmap((m, e)) != m:
                    raise SpanVError("unit law fails at morphism %r" % (m,))
        if not cb.light_associative(objects, to):
            for x in objects:
                for y in objects:
                    for z in objects:
                        if to[(to[(x, y)], z)] != to[(x, to[(y, z)])]:
                            raise SpanVError("tensor not associative at %r"
                                             % ((x, y, z),))
        if thin:
            return
        # Both bracketings are functors (C x C) x C -> C that agree on
        # objects, so they agree on morphisms when they agree on the
        # generators ((m, 1), 1), ((1, m), 1) and ((1, 1), m).
        tm = t.mmap.assignment
        for ((a, b), o) in cb.product_generators(t.dom, c):
            if tm[(tm[(a, b)], o)] != tm[(a, tm[(b, o)])]:
                raise SpanVError("tensor not associative at %r"
                                 % ((a, b, o),))

    def obj_tensor(self, x, y):
        return self.tensor.omap((x, y))

    def mor_tensor(self, m, n):
        return self.tensor.mmap((m, n))

    def fiber(self):
        """The fiber triple used by the induced monoid object."""
        return MonoidalFiber(self.cat, self.tensor,
                             cb.point_functor(self.cat, self.unit))


def _thin_monoidal_group(c, mul, unit):
    """The thin category c on a monoid, tensored by the table on
    objects: into a thin category the tensor is held by its object map
    (cb.FunctorData.held), so no morphism of the product is mapped."""
    prod = product_category(c, c)
    omap = FinFn(prod.objects, c.objects,
                 {(x, y): mul[(x, y)] for (x, y) in prod.objects})
    return MonoidalCatData(c, cb.FunctorData.held(prod, c, omap), unit)


def discrete_monoidal_group(elements, mul, unit):
    """The discrete category on a monoid, tensored by the table, the
    tensor held by its object map."""
    return _thin_monoidal_group(cb.FinCategory.discrete(list(elements)),
                                mul, unit)


def indiscrete_monoidal_group(elements, mul, unit):
    """The indiscrete category on a monoid, tensored componentwise, the
    tensor held by its object map: the product category's n^4
    morphisms are never mapped one by one."""
    return _thin_monoidal_group(cb.FinCategory.indiscrete(list(elements)),
                                mul, unit)


@dataclass(frozen=True)
class PolyadOpmonoidalStructure:
    """Binary and nullary structure for a category-valued presentation.

    fibers[x] is the strict monoidal structure on the label of x; d2[h]
    compares the label applied to a tensor with the tensor of its
    values, as a natural transformation; d0[h] is the morphism from the
    label's value on the unit to the unit.  Construction validates the
    per-label coalgebra-shaped axioms and the compatibility of mu and
    eta with them, all inside the fibers.  In a thin fiber these are
    decided by their endpoints: the two sides of each are parallel,
    given the d2 and d0 boundaries checked here and the mu and eta
    boundaries the monad's cells check, so only the boundaries are
    checked there.
    """

    monad: MonadPresentation
    fibers: dict
    d2: dict
    d0: dict

    def __post_init__(self):
        d = self.monad.shape
        for h in d.morphisms:
            self._check_label(h)
        thin = {x: cb.is_thin(f.cat) for x, f in self.fibers.items()}
        tgt = d.tgt.assignment
        for (h, k) in d.composable_pairs():
            if not thin[tgt[h]]:
                self._check_mu(h, k)
        for x in d.objects:
            if not thin[x]:
                self._check_eta(x)

    def _check_label(self, h):
        p, d = self.monad, self.monad.shape
        fs, ft = self.fibers[d.src(h)], self.fibers[d.tgt(h)]
        f = p.mor_label[h]
        if self.d2[h].source != fs.tensor.then(f) or \
                self.d2[h].target != product_functor(f, f).then(ft.tensor):
            raise SpanVError("binary structure boundary at %r" % (h,))
        cod = ft.cat
        z = self.d0[h]
        if cod.src(z) != f.omap(fs.unit) or cod.tgt(z) != ft.unit:
            raise SpanVError("nullary structure boundary at %r" % (h,))
        if cb.is_thin(cod):
            return
        d2 = self.d2[h].components
        for a in fs.cat.objects:
            for b in fs.cat.objects:
                for c0 in fs.cat.objects:
                    left = cod.compose(
                        ft.mor_tensor(d2[(a, b)],
                                      cod.identities(f.omap(c0))),
                        d2[(fs.obj_tensor(a, b), c0)])
                    right = cod.compose(
                        ft.mor_tensor(cod.identities(f.omap(a)),
                                      d2[(b, c0)]),
                        d2[(a, fs.obj_tensor(b, c0))])
                    if left != right:
                        raise SpanVError("binary structure not "
                                         "coassociative at %r"
                                         % ((h, a, b, c0),))
        for a in fs.cat.objects:
            right_unit = cod.compose(
                ft.mor_tensor(cod.identities(f.omap(a)), z),
                d2[(a, fs.unit)])
            left_unit = cod.compose(
                ft.mor_tensor(z, cod.identities(f.omap(a))),
                d2[(fs.unit, a)])
            if right_unit != cod.identities(f.omap(a)) or \
                    left_unit != cod.identities(f.omap(a)):
                raise SpanVError("nullary structure not counital at %r"
                                 % ((h, a),))

    def _check_mu(self, h, k):
        p, d = self.monad, self.monad.shape
        fs = self.fibers[d.src(k)]
        ft = self.fibers[d.tgt(h)]
        fh, fk = p.mor_label[h], p.mor_label[k]
        hk = d.compose(h, k)
        mu = p.mu[(h, k)].components
        cod = ft.cat
        for a in fs.cat.objects:
            for b in fs.cat.objects:
                lhs = cod.compose(self.d2[hk].components[(a, b)],
                                  mu[fs.obj_tensor(a, b)])
                rhs = cod.compose(
                    ft.mor_tensor(mu[a], mu[b]),
                    cod.compose(
                        self.d2[h].components[(fk.omap(a), fk.omap(b))],
                        fh.mmap(self.d2[k].components[(a, b)])))
                if lhs != rhs:
                    raise SpanVError("multiplication not compatible with "
                                     "binary structure at %r"
                                     % ((h, k, a, b),))
        lhs = cod.compose(self.d0[hk], mu[fs.unit])
        rhs = cod.compose(self.d0[h], fh.mmap(self.d0[k]))
        if lhs != rhs:
            raise SpanVError("multiplication not compatible with nullary "
                             "structure at %r" % ((h, k),))

    def _check_eta(self, x):
        p, d = self.monad, self.monad.shape
        fx = self.fibers[x]
        e = d.identities(x)
        eta = p.eta[x].components
        cod = fx.cat
        for a in fx.cat.objects:
            for b in fx.cat.objects:
                lhs = cod.compose(self.d2[e].components[(a, b)],
                                  eta[fx.obj_tensor(a, b)])
                rhs = fx.mor_tensor(eta[a], eta[b])
                if lhs != rhs:
                    raise SpanVError("unit not compatible with binary "
                                     "structure at %r" % ((x, a, b),))
        if cod.compose(self.d0[e], eta[fx.unit]) != \
                cod.identities(fx.unit):
            raise SpanVError("unit not compatible with nullary structure "
                             "at %r" % (x,))

    def comonoid_structure(self):
        """The structure repackaged with the boundaries the generic
        fusion assembly expects; the counit becomes a transformation
        over the one-point domain."""
        p, d = self.monad, self.monad.shape
        eps = {}
        for h in d.morphisms:
            fs, ft = self.fibers[d.src(h)], self.fibers[d.tgt(h)]
            eps[h] = cb.NatTransData(
                cb.point_functor(fs.cat, fs.unit).then(p.mor_label[h]),
                cb.point_functor(ft.cat, ft.unit),
                {"*": self.d0[h]})
        return ComonoidStructure(dict(self.d2), eps)

    def fiber_assignment(self):
        return {x: self.fibers[x].fiber()
                for x in self.monad.shape.objects}


def polyad_fusion(opstr, side="left"):
    """One transformation per composable pair: the outer label's binary
    structure followed by multiplication on the first (left) or second
    (right) tensor factor.  Its source and target are composites of
    checked functors, built without checks.  Into a thin fiber, the
    only kind a translation polyad has, it is the one transformation
    between them, held by the two functors (cb.NatTransData.held): no
    component is composed, and the constructor decides only that every
    component exists, once for the whole family when the fiber has a
    morphism between any two objects.  Into any other fiber (an
    identity polyad's) its components are composed from mu and d2 and
    built by the public NatTransData constructor, which checks their
    endpoints and naturality.  polyad_is_hopf builds these families only
    when some fiber is not a groupoid."""
    order = _pair_order(side)
    p, d = opstr.monad, opstr.monad.shape
    out = {}
    for (h, k) in d.composable_pairs():
        fmid = opstr.fibers[d.src(h)]
        ftop = opstr.fibers[d.tgt(h)]
        fh, fk = p.mor_label[h], p.mor_label[k]
        fhk = p.mor_label[d.compose(h, k)]
        cod = ftop.cat
        ident = cb.FunctorData.identity(fmid.cat)
        source = product_functor(*order(fk, ident)).then(fmid.tensor).then(fh)
        target = product_functor(*order(fhk, fh)).then(ftop.tensor)
        if cb.is_thin(cod):
            out[(h, k)] = cb.NatTransData.held(source, target)
            continue
        mu = p.mu[(h, k)].components
        d2 = opstr.d2[h].components
        comps = {}
        for pair in source.dom.objects:
            a, c0 = order(*pair)
            comps[pair] = cod.compose(
                ftop.mor_tensor(*order(mu[a], cod.identities(fh.omap(c0)))),
                d2[order(fk.omap(a), c0)])
        out[(h, k)] = cb.NatTransData(source, target, comps)
    return out


def polyad_is_hopf(opstr):
    """Shape a groupoid and every component of both fusion families an
    isomorphism in its fiber; the witness names the first failing side,
    pair and fiber object.  Each component is the composite of a mu and
    a d2 component that construction validated, so every family exists,
    and in a groupoid every morphism is invertible: when every fiber is
    one, thin or not, the verdict is the shape's and no family is
    built."""
    verdict = cb.is_groupoid(opstr.monad.shape)
    if not verdict:
        return Verdict(False,
                       witness=("shape not a groupoid", verdict.witness))
    if all(cb.is_groupoid(f.cat) for f in opstr.fibers.values()):
        return Verdict(True)
    for side in ("left", "right"):
        for pair, nat in polyad_fusion(opstr, side).items():
            v = cb.nat_is_iso(nat)
            if not v:
                return Verdict(False, witness=(side, pair, v.witness))
    return Verdict(True)


def identity_polyad(elements, mul, unit, fiber):
    """Every label the identity functor on one strict monoidal fiber;
    trivially opmonoidal whatever the fiber."""
    shape = cb.FinCategory.from_monoid(list(elements), mul, unit)
    ident = cb.FunctorData.identity(fiber.cat)
    one = cb.NatTransData.identity(ident)
    p = MonadPresentation(
        CatBackend(), shape, {"*": fiber.cat},
        {h: ident for h in shape.morphisms},
        {pair: one for pair in shape.composable_pairs()},
        {"*": one})
    return PolyadOpmonoidalStructure(
        p, {"*": fiber},
        {h: cb.NatTransData.identity(fiber.tensor)
         for h in shape.morphisms},
        {h: fiber.cat.identities(fiber.unit) for h in shape.morphisms})


def translation_polyad(elements, mul, unit, fiber):
    """Labels translate the fiber by the acting element; the fiber's
    objects must be the monoid elements, and each label sends m: x -> y
    to the one morphism between the translates of x and y.  Translation
    by the unit fixes every object, so it sends m into hom(x, y), which
    contains m: a translation exists only on a thin fiber.  There each
    label is held by its object map (cb.FunctorData.held), and mu and
    eta by their functors (cb.NatTransData.held): no morphism or
    component is looked up.  mu is read from the object maps: by the
    shape's associativity, translating by v and then by u moves every
    object as translating by uv does, so that composite is the label of
    uv itself, kept as it (cb.FunctorData.keep_then), never composed,
    and mu at (u, v) is the one transformation from it to itself.  A
    fiber object that is no element is refused first; on any other
    fiber, or where a label misses a hom, the first label in shape order
    and its first morphism whose hom is not one morphism are named."""
    shape = cb.FinCategory.from_monoid(list(elements), mul, unit)
    c = fiber.cat
    stray = next((a for a in c.objects if a not in shape.morphisms), None)
    if stray is not None:
        raise SpanVError("fiber object %r is not a monoid element"
                         % (stray,))
    mor_label = {}
    for u in shape.morphisms:
        omap = FinFn(c.objects, c.objects,
                     {a: mul[(u, a)] for a in c.objects})
        try:
            mor_label[u] = cb.FunctorData.held(c, c, omap)
        except cb.CatError:
            u, m = next(
                (v, m) for v in shape.morphisms for m in c.morphisms
                if len(c.hom(mul[(v, c.src(m))], mul[(v, c.tgt(m))])) != 1)
            raise SpanVError("translation by %r is not determined at %r"
                             % (u, m)) from None
    same = {u: cb.NatTransData.held(f, f) for u, f in mor_label.items()}
    mu = {}
    for (u, v) in shape.composable_pairs():
        uv = mul[(u, v)]
        mor_label[v].keep_then(mor_label[u], mor_label[uv])
        mu[(u, v)] = same[uv]
    eta = cb.NatTransData.held(cb.FunctorData.identity(c), mor_label[unit])
    return MonadPresentation(CatBackend(), shape, {"*": c}, mor_label, mu,
                             {"*": eta})


def translation_opmonoidal(elements, mul, unit, fiber):
    """The translation polyad with its comparison structure, when the
    fiber admits one: each d2 component must be the unique morphism from
    the translated tensor to the tensor of translates, which exists in
    the indiscrete fiber but not in the discrete one away from the
    unit.  The fiber is thin, or translation_polyad refuses it, so d2
    and d0 are read from the object maps: each d2 is held by its
    functors (cb.NatTransData.held), their composites by the ComposedMap
    of their object maps, and each d0 is the one morphism from the
    translated unit to the unit.  A missing component is named by its
    first object."""
    p = translation_polyad(elements, mul, unit, fiber)
    c = fiber.cat
    d2, d0 = {}, {}
    for u in p.shape.morphisms:
        f = p.mor_label[u]
        source = fiber.tensor.then(f)
        target = product_functor(f, f).then(fiber.tensor)
        try:
            d2[u] = cb.NatTransData.held(source, target)
        except cb.CatError:
            raise SpanVError(
                "no comparison morphism for translation by %r at %r"
                % (u, cb.ThinMap.components(source, target).gap())) from None
        pool = c.hom(f.omap(fiber.unit), fiber.unit)
        if len(pool) != 1:
            raise SpanVError("no comparison morphism for translation by "
                             "%r at the unit" % (u,))
        d0[u] = pool[0]
    return PolyadOpmonoidalStructure(p, {"*": fiber}, d2, d0)


# ---------------------------------------------------------------------------
# Modules and representations of a polyad, by exhaustive search.
#
# Both are actions of the polyad on one fiber object per key.  A module
# keys its objects by shape object, a representation by shape morphism,
# sitting over its target.  The keys are the apex of a carrier 1-cell
# from the unit 0-cell (_restricted_carriers), and each apex point (f,
# c) of the composite t o carrier is a slot holding one action morphism.


@dataclass(frozen=True)
class _ActionShape:
    """Keys with their leg to the shape objects, the slots (f, c) with
    src(f) == left(c), and out[(f, c)], the key receiving the action."""

    keys: FinSet
    left: FinFn
    slots: tuple
    out: dict

    def fiber(self, p, c):
        return p.base_label[self.left(c)]

    def thin(self, p):
        return all(cb.is_thin(self.fiber(p, c)) for c in self.keys)


def _action_shape(p, kind):
    """Modules: the shape objects with the identity leg, and f acting at
    c lands at tgt(f).  Representations: the shape morphisms with the
    target leg, and f acting at c lands at f o c.  Slots follow the apex
    order of hcomp1(t, carrier)."""
    d = p.shape
    if kind == "modules":
        keys, left = d.objects, FinFn.identity(d.objects)
        out = lambda f, c: d.tgt(f)
    elif kind == "representations":
        keys, left, out = d.morphisms, d.tgt, d.compose
    else:
        raise SpanVError("unknown kind %r" % (kind,))
    slots = tuple((f, c) for f in d.morphisms for c in keys
                  if left(c) == d.src(f))
    return _ActionShape(keys, left, slots, {s: out(*s) for s in slots})


class PolyadAction(NamedTuple):
    """A module or representation: one fiber object per key and one
    action morphism per slot, stored as aligned pair tuples so actions
    can serve as atoms of a finite category (hashed as a plain tuple)."""

    objects: tuple
    actions: tuple


def _candidates(p, shape):
    """Every candidate action as (q, rho, atom): each choice q of one
    fiber object per key, then each choice rho of one fiber hom per slot
    (f, c), from f applied to q[c] into q[out(f, c)], with its atom,
    built once, so that both sides of em_algebras_restricted decide the
    same atoms.  The candidates on one q share it."""
    d, keys, found = p.shape, list(shape.keys), []
    for combo in itertools.product(*[list(shape.fiber(p, c).objects)
                                     for c in keys]):
        q = dict(zip(keys, combo))
        pools = [p.base_label[d.tgt(f)].hom(p.mor_label[f].omap(q[c]),
                                            q[shape.out[(f, c)]])
                 for (f, c) in shape.slots]
        for acts in itertools.product(*pools):
            rho = dict(zip(shape.slots, acts))
            found.append((q, rho, _action_of(shape, q, rho)))
    return found


def _arrows(p, shape, actions, holds=None):
    """Every arrow candidate (a, b, chi) between two of actions, in
    order, that holds(a, b, chi) accepts, if given: each family of one
    fiber hom per key from a's object to b's, read from the key's hom
    buckets by source object, then by target object."""
    rows = []
    for c in shape.keys:
        row = {}
        for (x, y), bucket in shape.fiber(p, c)._homs_by_ends().items():
            row.setdefault(x, {})[y] = bucket
        rows.append(row)
    keys, found = shape.keys.elements, []
    objects = [[x for _, x in a.objects] for a in actions]
    for a, xs in zip(actions, objects):
        out = [row.get(x, {}) for row, x in zip(rows, xs)]
        for b, ys in zip(actions, objects):
            for combo in itertools.product(*[
                    hom.get(y, ()) for hom, y in zip(out, ys)]):
                chi = tuple(zip(keys, combo))
                if holds is None or holds(a, b, chi):
                    found.append((a, b, chi))
    return found


def _action_of(shape, q, rho):
    return PolyadAction(tuple((c, q[c]) for c in shape.keys),
                        tuple((s, rho[s]) for s in shape.slots))


def _action_laws_hold(p, shape, q, rho):
    """Associativity at every slot (g, c) and every f after g, and the
    unit at every key, each composed in a fiber."""
    d = p.shape
    after = d.morphisms_by(d.src)
    for (g, c) in shape.slots:
        for f in after.get(d.tgt(g), ()):
            cat = p.base_label[d.tgt(f)]
            lhs = cat.compose(rho[(d.compose(f, g), c)],
                              p.mu[(f, g)].components[q[c]])
            rhs = cat.compose(rho[(f, shape.out[(g, c)])],
                              p.mor_label[f].mmap(rho[(g, c)]))
            if lhs != rhs:
                return False
    for c in shape.keys:
        x = shape.left(c)
        cat = p.base_label[x]
        if cat.compose(rho[(d.identities(x), c)],
                       p.eta[x].components[q[c]]) != cat.identities(q[c]):
            return False
    return True


def _action_morphism_ok(p, shape, a, b, chi):
    d = p.shape
    rho_a, rho_b = dict(a.actions), dict(b.actions)
    for (g, c) in shape.slots:
        cat = p.base_label[d.tgt(g)]
        if cat.compose(rho_b[(g, c)], p.mor_label[g].mmap(chi[c])) != \
                cat.compose(chi[shape.out[(g, c)]], rho_a[(g, c)]):
            return False
    return True


def _enumerate_actions(p, kind, candidates=None):
    """Exhaustive search for actions and their morphisms among the
    candidates (_candidates); returns the finite category they form,
    revalidated.  Over thin fibers, where both sides of each equation
    are parallel, an action is an object family with a non-empty hom at
    every slot and every arrow candidate is an arrow; elsewhere each
    law is composed in the fibers."""
    shape = _action_shape(p, kind)
    candidates = candidates or _candidates(p, shape)
    if shape.thin(p):
        actions, holds = [atom for (_, _, atom) in candidates], None
    else:
        actions = [atom for (q, rho, atom) in candidates
                   if _action_laws_hold(p, shape, q, rho)]
        holds = lambda a, b, chi: _action_morphism_ok(p, shape, a, b,
                                                      dict(chi))
    return _category_of_actions(p, shape, actions,
                                _arrows(p, shape, actions, holds))


def enumerate_modules(p):
    """Modules: one fiber object per shape object, acted on along every
    shape morphism."""
    return _enumerate_actions(p, "modules")


def enumerate_representations(p):
    """Representations: one fiber object per shape morphism, acted on
    along composition."""
    return _enumerate_actions(p, "representations")


def _category_of_actions(p, shape, objects, arrows):
    """Assemble actions and their morphisms, one fiber morphism per key,
    into a finite category, on a thin table over thin fibers.  Its end
    maps are tabulated, each distinct end checked once."""
    objects_f = FinSet(objects)
    morphisms_f = FinSet(arrows)
    fiber = {c: shape.fiber(p, c) for c in shape.keys}
    src, tgt = (FinFn.tabulate(morphisms_f, objects_f, itemgetter(k))
                for k in (0, 1))
    identities = {a: (a, a, tuple((c, fiber[c].identities(x))
                                  for (c, x) in a.objects))
                  for a in objects}
    if all(map(cb.is_thin, fiber.values())):
        composition = cb.ThinTable(src, tgt)
    else:
        into = {}
        for m1 in arrows:
            into.setdefault(m1[1], []).append(m1)
        composition = {}
        for m2 in arrows:
            left = dict(m2[2])
            for m1 in into.get(m2[0], ()):
                composition[(m2, m1)] = (m1[0], m2[1], tuple(
                    (c, fiber[c].compose(left[c], right))
                    for (c, right) in m1[2]))
    return cb.FinCategory(objects_f, morphisms_f, src, tgt,
                          FinFn(objects_f, morphisms_f, identities),
                          composition)


# ---------------------------------------------------------------------------
# Restricted algebra 2-cells and the comparison with enumeration.


@dataclass(frozen=True)
class RestrictedAlgebraComparison:
    kind: str
    algebras: cb.FinCategory
    enumerated: cb.FinCategory
    forward: object
    backward: object
    report: CheckReport


def _restricted_carriers(p, shape, actions):
    """The candidate actions as one family (q, t o q, xi): q from the unit
    0-cell on the disjoint union of their keys, atom (i, c) labeled by
    the point at actions[i]'s object at c (cb.point_functor), xi sending
    slot (f, (i, c)) to (i, out[(f, c)]) by actions[i]'s action, over
    thin fibers the one morphism in its hom.  Spans compose atom by
    atom, so a chain on the family is, on each candidate's atoms, that
    candidate's own chain."""
    be, t, one0 = p.backend, p.cells[0], unit_cell0(p.backend)
    objects = {(i, c): x for i, action in enumerate(actions)
               for (c, x) in action.objects}
    apex = FinSet(objects)
    span = Span(one0.carrier, p.shape.objects, apex, FinFn(
        apex, p.shape.objects, {(i, c): shape.left(c) for (i, c) in apex}),
        FinFn.constant(apex, one0.carrier, "*"))
    q = Cell1(be, one0, t.src, span, {
        (i, c): cb.point_functor(shape.fiber(p, c), x)
        for (i, c), x in objects.items()})
    tq = _composite(t, q, compose_spans(t.span, span))
    rho = [dict(action.actions) for action in actions]
    land = {(f, (i, c)): (i, shape.out[(f, c)])
            for (f, (i, c)) in tq.span.apex}
    return q, tq, cell2_along(tq, q, land.__getitem__, HeldCells(
        tq, q, land) if shape.thin(p) else {
        (f, (i, c)): cb.NatTransData(tq.label[(f, (i, c))], q.label[d],
                                     {"*": rho[i][(f, c)]})
        for (f, (i, c)), d in land.items()})


def _verdicts(candidates, *laws):
    """The candidates that hold every law, a pair of chains on their
    family from one source: candidate i fails at each atom (d, (i, c))
    where differences2, the walk eq2 reports the first of, finds them
    apart."""
    refused = {w[1][1][0] for u, v in laws for w in differences2(u, v)}
    return [x for i, x in enumerate(candidates) if i not in refused]


def _lawful(p, shape, actions):
    """The candidate actions that are algebras, on the family of all of
    them: xi (1_t o xi) alpha against xi (mu o 1_q), both whiskers built
    from (t o t) o q into t o q (the first read through regroup, no alpha
    built: identities at each atom's unit slot reach every atom of t o
    q), and xi (eta o 1_q), on t o q's identity slots alone (_whiskered),
    against the unitor."""
    t, mu2, eta2 = p.cells
    q, tq, xi = _restricted_carriers(p, shape, actions)
    ttq = hcomp1(mu2.source, q)
    idq, iq = identity_cell2(q), hcomp1(eta2.source, q)
    return _verdicts(actions, (
        vcomp2(xi, hcomp2(identity_cell2(t), xi, ttq, tq, regroup)),
        vcomp2(xi, hcomp2(mu2, idq, ttq, tq))), (
        vcomp2(xi, _landed(_chained(iq, _whiskered(eta2, q)), tq)),
        _landed(_chained(iq, _relabeled(lambda d: d[1])), q)))


def _arrows_hold(p, shape, arrows):
    """The arrow candidates (a, b, chi) that respect the actions, as one
    chain between the families of the a and of the b, with the chi
    components between: xi_b (1_t o chi) against chi xi_a."""
    (aq, atq, axi), (bq, btq, bxi) = [_restricted_carriers(
        p, shape, [arrow[end] for arrow in arrows]) for end in (0, 1)]
    cell = cell2_along(aq, bq, lambda c: c, {
        (k, c): cb.NatTransData(aq.label[(k, c)], bq.label[(k, c)], {"*": m})
        for k, (_, _, chi) in enumerate(arrows) for (c, m) in chi})
    return _verdicts(arrows, (
        vcomp2(bxi, hcomp2(identity_cell2(p.cells[0]), cell, atq, btq)),
        vcomp2(cell, axi)))


def _inclusion_functor(src, tgt):
    """The functor sending each object and morphism of src to itself in
    tgt, which holds the same object and morphism sets: by the identity
    maps of tgt's own sets, so that the constructor decides every
    morphism's ends by comparing the two categories' src and tgt; the
    identity functor when they are one category."""
    if src is tgt:
        return cb.FunctorData.identity(src)
    return cb.FunctorData(src, tgt, FinFn.identity(tgt.objects),
                          FinFn.identity(tgt.morphisms))


def em_algebras_restricted(p, kind="modules"):
    """Algebras over restricted carrier 1-cells, with both laws checked
    as 2-cell equations, compared with the enumerated category through a
    validated functor pair in each direction.

    The carrier morphisms are restricted to the identity reindexing of
    the apex, matching the enumerated morphisms, which are one component
    per key.  Both sides decide the same candidate atoms (_candidates,
    _arrows) independently: the search on objects over thin
    fibers and in the fibers elsewhere (_enumerate_actions), the
    algebras as one family (_restricted_carriers), one chain per law
    (_lawful), and their arrows, off thin fibers, as one chain between
    two families (_arrows_hold).  Over thin fibers every arrow candidate
    is an arrow, its equation's sides parallel: when both sides accept
    the same atoms, they are one category, the functor pair its identity.
    """
    shape = _action_shape(p, kind)
    if not isinstance(p.backend, CatBackend):
        raise SpanVError("restricted algebras live over the finite-"
                         "category base")
    candidates = _candidates(p, shape)
    objects = _lawful(p, shape, [atom for (_, _, atom) in candidates])
    enumerated = _enumerate_actions(p, kind, candidates)
    thin = shape.thin(p)
    if thin and list(map(id, objects)) == list(map(id, enumerated.objects)):
        # The same atoms, and every arrow candidate between them an
        # arrow on both sides: one category.
        algebra_cat = enumerated
    else:
        arrows = _arrows(p, shape, objects)
        if not thin:
            arrows = _arrows_hold(p, shape, arrows)
        algebra_cat = _category_of_actions(p, shape, objects, arrows)
    arrows = algebra_cat.morphisms
    report = CheckReport("restricted algebras (%s)" % kind)
    if len(enumerated.objects) != len(objects):
        report.fail("object count", (len(enumerated.objects), len(objects)))
    if len(enumerated.morphisms) != len(arrows):
        report.fail("morphism count",
                    (len(enumerated.morphisms), len(arrows)))
    forward = backward = None
    if report.ok:
        missing = [m for m in enumerated.objects
                   if m not in algebra_cat.objects]
        if missing:
            report.fail("object missing on the algebra side", missing[0])
        elif algebra_cat is not enumerated and \
                set(enumerated.morphisms) != set(arrows):
            report.fail("morphism mismatch", None)
        else:
            forward = _inclusion_functor(enumerated, algebra_cat)
            backward = _inclusion_functor(algebra_cat, enumerated)
            if forward.then(backward) != \
                    cb.FunctorData.identity(enumerated) or \
                    backward.then(forward) != \
                    cb.FunctorData.identity(algebra_cat):
                report.fail("functor pair does not invert", kind)
    return RestrictedAlgebraComparison(kind, algebra_cat, enumerated,
                                       forward, backward, report)


# ---------------------------------------------------------------------------
# Modules over a hom-enriched presentation.


@dataclass(frozen=True)
class EnrichedModule:
    """Objects v[(x, y)] with action maps psi[(x, y, z)] from
    hom[(x, y)] tensor v[(y, z)] to v[(x, z)].  Each of v and psi
    becomes a Uniform when it holds one object at every key."""

    v: dict
    psi: dict

    def __post_init__(self):
        _mark_fields(self, "v", "psi")


def _module_associativity(xz_u, xy_z, zu, xy_u, xy, yz_u):
    """Both sides of the associativity square at (x, y, z, u) from the
    action maps psi at (x, z, u), (x, y, u) and (y, z, u), mu at
    (x, y, z) and the objects v[(z, u)] and hom[(x, y)]."""
    return (xz_u.compose(vb.tensor_mor(xy_z, vb.VMorphism.identity(zu))),
            xy_u.compose(vb.tensor_mor(vb.VMorphism.identity(xy), yz_u)))


def _module_unit(xx_y, unit_x, xy):
    one = vb.VMorphism.identity(xy)
    return xx_y.compose(vb.tensor_mor(unit_x, one)), one


def _enriched_module_squares(e, m, report, tag):
    """Every associativity and unit square of m, each side built once
    per distinct operands.  When the operands are each one object
    (Uniform) and m is given at every key, each square is one equation,
    decided once; the tuples are walked only if one fails."""
    X, be, psi, v = e.objects, e.backend, m.psi, m.v
    one = _values(psi, e.mu, v, e.hom, e.eta)
    if one is not None and len(X) \
            and _covers(psi, itertools.product(X, repeat=3)) \
            and _covers(v, itertools.product(X, repeat=2)):
        acts, mult, obj, hom, unit = one
        if report.uniform(be, _module_associativity(acts, mult, obj, acts,
                                                    hom, acts),
                          _module_unit(acts, unit, obj)):
            return
    for x, y, z, u in itertools.product(X, repeat=4):
        lhs, rhs = report.once(_module_associativity, psi[(x, z, u)],
                               e.mu[(x, y, z)], v[(z, u)], psi[(x, y, u)],
                               e.hom[(x, y)], psi[(y, z, u)])
        report.equal(tag + " associativity", (x, y, z, u), be, lhs, rhs)
    for x, y in itertools.product(X, repeat=2):
        lhs, one = report.once(_module_unit, psi[(x, x, y)], e.eta[x],
                               v[(x, y)])
        report.equal(tag + " unit", (x, y), be, lhs, one)


def enriched_module_product(e, a, b):
    """The pointwise tensor of two modules, acted on by comultiplying the
    hom factor and braiding it past the first module.  Each action is
    built once per distinct operands, keyed by their ids, so that the
    product of modules whose operands are each one object is one too
    (a Uniform)."""
    if e.delta is None:
        raise SpanVError("the module product needs comonoid structure on "
                         "the presentation")
    q = e.backend.q
    v = {p: vb.tensor_obj(a.v[p], b.v[p]) for p in a.v}
    psi, built = {}, {}
    for (x, y, z) in a.psi:
        homxy, av, bv = e.hom[(x, y)], a.v[(y, z)], b.v[(y, z)]
        operands = (homxy, e.delta[(x, y)], av, bv, a.psi[(x, y, z)],
                    b.psi[(x, y, z)])
        key = tuple(map(id, operands))
        if key not in built:
            spread = vb.tensor_mor(operands[1], vb.VMorphism.identity(
                vb.tensor_obj(av, bv)))
            shuffle = vb.tensor_mor(
                vb.VMorphism.identity(homxy),
                vb.tensor_mor(vb.braiding(homxy, av, q),
                              vb.VMorphism.identity(bv)))
            act = vb.tensor_mor(operands[4], operands[5])
            built[key] = act.compose(shuffle).compose(spread)
        psi[(x, y, z)] = built[key]
    return EnrichedModule(v, psi)


def check_enriched_module(e, m, other=None, morphism=None):
    """Associativity and unit squares for m; the compatibility square for
    an optional morphism into `other`; and closure of the product of m
    with `other` (or with itself) under the same squares."""
    report = CheckReport("enriched module")
    _enriched_module_squares(e, m, report, "module")
    partner = other if other is not None else m
    if morphism is not None:
        for x, y, z in itertools.product(e.objects, repeat=3):
            report.equal("morphism square", (x, y, z), e.backend,
                         partner.psi[(x, y, z)].compose(vb.tensor_mor(
                             vb.VMorphism.identity(e.hom[(x, y)]),
                             morphism[(y, z)])),
                         morphism[(x, z)].compose(m.psi[(x, y, z)]))
    if other is not None:
        _enriched_module_squares(e, other, report, "partner")
    _enriched_module_squares(e, enriched_module_product(e, m, partner),
                             report, "product")
    return report


def unit_enriched_module(e):
    """Every v the unit object, acted on by the counit."""
    if e.eps is None:
        raise SpanVError("the unit module needs comonoid structure on the "
                         "presentation")
    X = e.objects
    k = vb.unit_object()
    return EnrichedModule(
        {(x, y): k for x in X for y in X},
        {(x, y, z): e.eps[(x, y)] for x in X for y in X for z in X})


def regular_enriched_module(e):
    """The presentation acting on its own hom objects by composition."""
    return EnrichedModule(dict(e.hom), dict(e.mu))


# ---------------------------------------------------------------------------
# The image under the tensoring functor, checked on probes.


def image_presentation(p, probes):
    """The presentation over the image of the tensoring functor: the
    same labels, each object labeled by the lazy category of graded
    objects."""
    be = p.backend
    if not isinstance(be, VectBackend):
        raise SpanVError("only presentations over the one-object graded "
                         "base are exported")
    F, image = vect_to_cat_functor(be.q, probes)
    imaged = MonadPresentation(
        image, p.shape, {x: image.category for x in p.shape.objects},
        p.mor_label, p.mu, p.eta)
    return imaged, F, image


def image_polyad_report(pres, probes):
    """Push a one-object presentation along the tensoring functor and
    re-check it over the lazy-category backend: the monad axioms decided
    exactly over the image, then image_hopf_report."""
    if not probes:
        raise SpanVError("at least one probe object is needed")
    image = image_presentation(pres.monad, probes)
    imaged, _, backend = image
    report = CheckReport("image polyad")
    report.merge(check_monad(imaged))
    report.merge(image_hopf_report(pres, image, probes))
    return report, imaged, backend


def image_hopf_report(pres, image, probes):
    """The image checks past the monad axioms, on the image (imaged, F,
    backend) of pres from image_presentation: the functor's comparison
    cells are inverted; and both fusion cells are pushed through and
    inverted as image 2-cells, with every component also evaluated and
    inverted at each probe object."""
    imaged, F, backend = image
    report = CheckReport("image hopf")
    d = imaged.shape
    for (h, k) in d.composable_pairs():
        comparison = F.comparison(imaged.mor_label[h], imaged.mor_label[k])
        inv, witness = backend.invert2(comparison)
        if inv is None:
            report.fail("comparison cell", ((h, k), witness))
    verdict = cb.is_groupoid(d)
    if not verdict:
        report.fail("shape not a groupoid", verdict.witness)
        return report
    cells = fusion_cells(pres.monad, pres.comonoid_structure())
    for side, cell in zip(("left", "right"), cells):
        pushed = apply_span_F(F, cell)
        res = invert_cell2(pushed)
        if not res:
            report.fail("%s fusion over the image" % side, res.witness)
        for atom in pushed.source.span.apex:
            for x in probes:
                component = backend.evaluate2(pushed.components[atom], x)
                outcome = vb.invert(component)
                if not outcome:
                    report.fail("%s fusion at probe" % side,
                                (atom, x, outcome.witness))
    return report
