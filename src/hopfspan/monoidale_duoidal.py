"""Monoid objects on span 0-cells, and the two products on endo-hom cells.

Every finite carrier X carries a multiplication 1-cell (the diagonal span,
read backwards) and a unit 1-cell (the collapse span); together with
relabeling 2-cells these form a monoid object whose multiplication has a
left adjoint given by the reversed span, and the resulting comparison
2-cells are invertible.  On endo-cells X -> X this induces a second
product: the convolution b * a whose apex keeps only the pairs of apex
elements with equal legs.  The interchange 2-cell between composition and
convolution carries the base braiding, and over a one-point carrier the
two products literally coincide.

Coherence checking here leans on one structural fact: all cells of
interest live in the class where (i) every apex element of a span is
determined by its pair of legs, and (ii) labels agree on the nose along
any leg-preserving map (the base tensors are strict).  In that class a
parallel leg-preserving 2-cell with identity components is unique when it
exists, so each coherence axiom (pentagon, triangle, and the adjunction
and convolution variants) reduces to building the forced cells between
explicitly composed 1-cells and comparing composites with eq2.  The
forced-cell constructor fails loudly when either uniqueness or label
agreement breaks, so nothing outside the class is silently accepted.
"""

import itertools
from dataclasses import dataclass

from .finset_span import FinFn, Span, convolution_span
from .reporting import Verdict, CheckReport
from . import vect_backend as vb
from .spanv_core import (
    SpanVError, VectBackend,
    Cell0, Cell1, Cell2, cell2_along, identity_cell1, identity_cell2,
    vcomp2, hcomp1, hcomp2, unit_cell0, tensor0, tensor1,
    regroup_cell1, relabel_cell2, regroup, ungroup, associator_cell2,
    left_unitor_cell2, right_unitor_cell2, interchange_cell2,
    interchange_atoms, invert_cell2, eq2, part, _chained, _fill, _landed,
    _mark_fields, _pair_labeled, _pairwise, _relabeled, _run, _tensored,
    _values, _whiskered,
)


# ---------------------------------------------------------------------------
# Carrier-level coherence 1-cells.


def tensor_associator_cell1(x, y, z, atoms=None):
    """The regrouping 1-cell (x . y) . z -> x . (y . z); given points of
    (x . y) . z, just the sub-span on them (spanv_core.regroup_cell1)."""
    return regroup_cell1(tensor0(tensor0(x, y), z),
                         tensor0(x, tensor0(y, z)), regroup, atoms)


def tensor_associator_inv_cell1(x, y, z, atoms=None):
    """The regrouping 1-cell x . (y . z) -> (x . y) . z; given points of
    x . (y . z), just the sub-span on them."""
    return regroup_cell1(tensor0(x, tensor0(y, z)),
                         tensor0(tensor0(x, y), z), ungroup, atoms)


def tensor_left_unitor_cell1(x):
    """The projection 1-cell K . x -> x."""
    return regroup_cell1(tensor0(unit_cell0(x.backend), x), x,
                         lambda t: t[1])


def tensor_right_unitor_cell1(x):
    """The projection 1-cell x . K -> x."""
    return regroup_cell1(tensor0(x, unit_cell0(x.backend)), x,
                         lambda t: t[0])


def unique_relabel_cell2(source, target):
    """The unique leg-preserving identity-component 2-cell, when forced.

    Each source apex element must have exactly one target apex element
    with the same pair of legs, and labels must agree along that match;
    SpanVError otherwise.  Within the class described in the module
    docstring any parallel identity-component cell equals this one.
    """
    s, t = source.span, target.span
    over = {}
    for d in t.apex:
        over.setdefault((t.left(d), t.right(d)), []).append(d)
    assignment = {}
    for c in s.apex:
        matches = over.get((s.left(c), s.right(c)), ())
        if len(matches) != 1:
            raise SpanVError(
                "%d leg matches at %r, need exactly one" % (len(matches), c))
        assignment[c] = matches[0]
    return relabel_cell2(source, target, assignment.__getitem__)


# ---------------------------------------------------------------------------
# Monoid objects on a carrier.


@dataclass(frozen=True)
class MonoidalFiber:
    """Per-point base data: the fiber with its tensor and unit 1-cells."""

    obj: object
    tensor: object
    unit: object


def _trivial_fiber(be):
    """The base unit, tensored by the projection off its square."""
    one = be.unit0()
    return MonoidalFiber(
        one, be.reshape1(be.tensor0v(one, one), one, lambda t: t[0]),
        be.id1(one))


def _duplicate_label(be, obj):
    """The comultiplication label at a point whose fiber is obj."""
    return be.reshape1(obj, be.tensor0v(obj, obj), lambda t: (t, t))


def _labeled(X, be, fibers=None):
    """X labeled by its fibers' objects, with the fibers.  fibers, when
    given, assigns each point a MonoidalFiber whose tensor must be
    strict; by default everything is labeled with the base unit."""
    if fibers is None:
        fibers = dict.fromkeys(X, _trivial_fiber(be))
    return Cell0(be, X, {x: fibers[x].obj for x in X}), fibers


@dataclass(frozen=True)
class MonoidaleData:
    """A monoid object: multiplication and unit 1-cells with coherence.

    alpha : m o (m . 1)  =>  (m o (1 . m)) o assoc
    lam   : m o (u . 1)  =>  left projection
    rho   : m o (1 . u)  =>  right projection
    """

    base: Cell0
    m: Cell1
    u: Cell1
    alpha: Cell2
    lam: Cell2
    rho: Cell2

    def __post_init__(self):
        be = self.base.backend
        if self.m.src != tensor0(self.base, self.base) or self.m.tgt != self.base:
            raise SpanVError("multiplication must go base . base -> base")
        if self.u.src != unit_cell0(be) or self.u.tgt != self.base:
            raise SpanVError("unit must go K -> base")


def _fibres(cell, leg):
    """The atoms of cell's apex over each point that its leg reaches."""
    over = {}
    for c, p in getattr(cell.span, leg).assignment.items():
        over.setdefault(p, []).append(c)
    return over


def _tensor_over(a, b, points, leg="left"):
    """a . b on just the atoms whose leg lands on one of the points."""
    fa, fb = _fibres(a, leg), _fibres(b, leg)
    return tensor1(a, b, [(c, d) for (p, q) in points
                          for c in fa.get(p, ()) for d in fb.get(q, ())])


def _over_m(m, a, b):
    """m o (a . b), whole, with a . b built on just its atoms over the
    points m reaches."""
    return hcomp1(m, _tensor_over(a, b, m.span.right.assignment.values()))


def _alpha_boundary(base, m):
    """The source and target of alpha for the multiplication m on base."""
    idc = identity_cell1(base)
    right_side = _over_m(m, idc, m)
    return _over_m(m, m, idc), hcomp1(
        right_side, tensor_associator_cell1(base, base, base, map(
            ungroup, right_side.span.right.assignment.values())))


def _coherence_boundaries(base, m, u):
    """The (name, source, target) of alpha, lam and rho for the
    multiplication m and unit u on base.  Each is a whole composite, but
    its tensor and regrouping factors are built only on the atoms over
    the points their partner reaches, never over all of base^3."""
    idc = identity_cell1(base)
    return [
        ("alpha", *_alpha_boundary(base, m)),
        ("lam", _over_m(m, u, idc), tensor_left_unitor_cell1(base)),
        ("rho", _over_m(m, idc, u), tensor_right_unitor_cell1(base)),
    ]


def _multiplication(base, fibers):
    """The reversed diagonal span, labeled by the fibers' tensors."""
    X, square = base.carrier, tensor0(base, base)
    return Cell1(base.backend, square, base, Span(
        square.carrier, X, X, FinFn.identity(X),
        FinFn(X, square.carrier, {x: (x, x) for x in X})),
        {x: fibers[x].tensor for x in X})


def _unit(base, fibers):
    """The reversed collapse span, labeled by the fibers' units."""
    X, unit = base.carrier, unit_cell0(base.backend)
    return Cell1(base.backend, unit, base, Span(
        unit.carrier, X, X, FinFn.identity(X),
        FinFn.constant(X, unit.carrier, "*")),
        {x: fibers[x].unit for x in X})


def diagonal_multiplication(X, be, fibers=None):
    """The multiplication m of the monoid object on X (see _labeled):
    the reversed diagonal span, labeled by the fibers' tensors."""
    return _multiplication(*_labeled(X, be, fibers))


def induced_monoidale(X, be, fibers=None):
    """The monoid object on X: m as in diagonal_multiplication, u the
    reversed collapse span, labeled by the fibers (see _labeled)."""
    base, fibers = _labeled(X, be, fibers)
    m, u = _multiplication(base, fibers), _unit(base, fibers)
    bounds = _coherence_boundaries(base, m, u)
    alpha, lam, rho = (unique_relabel_cell2(s, t) for _, s, t in bounds)
    return MonoidaleData(base, m, u, alpha, lam, rho)


def check_monoidale(mon):
    """Verify the coherence data of a monoid object.

    Boundaries and invertibility of alpha/lam/rho, agreement with the
    forced cells, then the pentagon and triangle in the reduced form of
    the module docstring: both composite chains between explicitly
    bracketed 1-cells, compared with eq2.
    """
    report = CheckReport("monoidale")
    A = mon.base
    idc = identity_cell1(A)
    AA = tensor0(A, A)

    for name, source, target in _coherence_boundaries(A, mon.m, mon.u):
        cell = getattr(mon, name)
        if cell.source != source or cell.target != target:
            report.fail(name + " boundary", "does not match canonical shape")
            continue
        res = invert_cell2(cell)
        if not res:
            report.fail(name + " invertible", res.witness)
        try:
            forced = unique_relabel_cell2(source, target)
        except SpanVError as e:
            report.fail(name + " forced", str(e))
            continue
        report.holds(name + " canonical", eq2(cell, forced))
    if not report.ok:
        return report

    a3 = tensor_associator_cell1(A, A, A)
    v1 = hcomp1(hcomp1(mon.m, tensor1(mon.m, idc)),
                tensor1(tensor1(mon.m, idc), idc))
    v5 = hcomp1(hcomp1(mon.m, tensor1(idc, mon.m)),
                tensor1(idc, tensor1(idc, mon.m)))
    chain_short = hcomp1(tensor_associator_cell1(A, A, AA),
                         tensor_associator_cell1(AA, A, A))
    chain_long = hcomp1(hcomp1(tensor1(idc, a3),
                               tensor_associator_cell1(A, AA, A)),
                        tensor1(a3, idc))
    try:
        target_a = hcomp1(v5, chain_short)
        target_b = hcomp1(v5, chain_long)
        r1 = unique_relabel_cell2(v1, target_a)
        r2 = unique_relabel_cell2(v1, target_b)
        t = unique_relabel_cell2(target_a, target_b)
        verdict = eq2(vcomp2(t, r1), r2)
    except SpanVError as e:
        verdict = Verdict(False, witness=str(e))
    report.holds("pentagon", verdict)

    w = hcomp1(hcomp1(mon.m, tensor1(mon.m, idc)),
               tensor1(tensor1(idc, mon.u), idc))
    side_a = hcomp1(mon.m, tensor1(tensor_right_unitor_cell1(A), idc))
    side_b = hcomp1(hcomp1(mon.m, tensor1(idc, tensor_left_unitor_cell1(A))),
                    tensor_associator_cell1(A, unit_cell0(A.backend), A))
    try:
        ra = unique_relabel_cell2(w, side_a)
        rb = unique_relabel_cell2(w, side_b)
        tt = unique_relabel_cell2(side_a, side_b)
        verdict = eq2(vcomp2(tt, ra), rb)
    except SpanVError as e:
        verdict = Verdict(False, witness=str(e))
    report.holds("triangle", verdict)
    return report


# ---------------------------------------------------------------------------
# The adjoints of the induced multiplication and unit.


@dataclass(frozen=True)
class OpmapAdjunctions:
    """m_star -| m and u_star -| u for the induced monoid object on
    base, with alpha, the one coherence cell the Frobenius check reads."""

    base: Cell0
    m: Cell1
    u: Cell1
    alpha: Cell2
    m_star: Cell1
    u_star: Cell1
    m_unit: Cell2
    m_counit: Cell2
    u_unit: Cell2
    u_counit: Cell2


def opmap_adjunctions(X, be):
    """The induced multiplication and unit, alpha, and their left
    adjoints with their unit and counit 2-cells (all forced relabelings).

    The adjoints are the reversed spans, on the monoidale's own 0-cells,
    labeled by the diagonal of each point's label (m_star) and by its
    identity (u_star)."""
    A, fibers = _labeled(X, be)
    m, u = _multiplication(A, fibers), _unit(A, fibers)
    m_star = Cell1(be, A, m.src, m.span.reverse(),
                   {x: _duplicate_label(be, A.label[x]) for x in X})
    u_star = Cell1(be, A, u.src, u.span.reverse(),
                   {x: be.id1(A.label[x]) for x in X})
    idc = identity_cell1(A)
    return OpmapAdjunctions(
        A, m, u, unique_relabel_cell2(*_alpha_boundary(A, m)), m_star, u_star,
        m_unit=unique_relabel_cell2(idc, hcomp1(m, m_star)),
        m_counit=unique_relabel_cell2(hcomp1(m_star, m),
                                      identity_cell1(m.src)),
        u_unit=unique_relabel_cell2(idc, hcomp1(u, u_star)),
        u_counit=unique_relabel_cell2(hcomp1(u_star, u),
                                      identity_cell1(u.src)))


def _triangle_left(left, right, unit, counit):
    """(counit o 1) . (1 o unit) on the left adjoint, with unitors, as one
    chain from left into left; the zigzag identity says it is 1_left."""
    return _landed(_chained(
        left, _relabeled(lambda c: (c, left.span.right(c))),
        _whiskered(left, unit), _relabeled(ungroup),
        _whiskered(counit, left), _relabeled(lambda t: t[1])), left)


def _triangle_right(left, right, unit, counit):
    """(1 o counit) . (unit o 1) on the right adjoint, with unitors, as
    one chain from right into right; the zigzag identity says it is
    1_right."""
    return _landed(_chained(
        right, _relabeled(lambda c: (right.span.left(c), c)),
        _whiskered(unit, right), _relabeled(regroup),
        _whiskered(right, counit), _relabeled(lambda t: t[0])), right)


_MISMATCH = "vertical composition boundary mismatch"


def _fits(adj, *names):
    """Whether the cells of adj that each name checks run between the
    1-cells opmap_adjunctions gives them: the unit and counit of the
    adjunction "m" or "u", or the monoidale's "alpha".  A chain whiskers
    such a cell onto 1-cells built from those and takes that as given."""
    for name in names:
        if name == "alpha":
            bounds = [(adj.alpha, *_alpha_boundary(adj.base, adj.m))]
        else:
            left, right = getattr(adj, name + "_star"), getattr(adj, name)
            bounds = [(getattr(adj, name + "_unit"),
                       identity_cell1(adj.base), hcomp1(right, left)),
                      (getattr(adj, name + "_counit"),
                       hcomp1(left, right), identity_cell1(right.src))]
        if any(cell.source != source or cell.target != target
               for cell, source, target in bounds):
            return False
    return True


def check_adjunction_triangles(adj):
    """Both zigzag identities for both adjunctions, as exact 2-cell
    equalities; SpanVError unless each unit and counit runs between the
    1-cells opmap_adjunctions gives it."""
    if not _fits(adj, "m", "u"):
        raise SpanVError(_MISMATCH)
    return _triangles(adj)


def _triangles(adj):
    """check_adjunction_triangles on an adj whose boundaries are right."""
    report = CheckReport("opmap adjunctions")
    for name, left, right, unit, counit in [
            ("m", adj.m_star, adj.m, adj.m_unit, adj.m_counit),
            ("u", adj.u_star, adj.u, adj.u_unit, adj.u_counit)]:
        for side, triangle, one in (
                ("left", _triangle_left, identity_cell2(left)),
                ("right", _triangle_right, identity_cell2(right))):
            report.holds("%s-adjunction %s triangle" % (name, side), eq2(
                triangle(left, right, unit, counit), one))
    return report


# ---------------------------------------------------------------------------
# The Frobenius comparison 2-cells.


def _alpha_reversed(adj):
    """m o (1 . m)  =>  (m o (m . 1)) o reverse-assoc, derived from alpha.

    Whisker alpha with the reverse regrouping cell, on its atoms over the
    points alpha's source reaches; one relabeling then collapses the
    regroup/ungroup pair and the unitor onto m o (1 . m), and the
    composite is inverted.
    """
    A, alpha = adj.base, adj.alpha
    a_rev = tensor_associator_inv_cell1(
        A, A, A, map(regroup, alpha.source.span.right.assignment.values()))
    res = invert_cell2(_landed(_chained(
        hcomp1(alpha.source, a_rev), _whiskered(alpha, a_rev),
        _relabeled(lambda t: t[0][0])),
        _over_m(adj.m, adj.m_unit.source, adj.m)))
    if not res:
        raise SpanVError("reversed coherence is not invertible: %r"
                         % (res.witness,))
    return res.inverse


def _comparison_target(adj, mirrored):
    """The whole 1-cell (freed o regroup) o outer that a side's
    comparison cells land in, and its factors freed, regroup and outer.
    The regrouping factor is built on the points that both tensors
    reach, and the tensors on their atoms over those, so no factor is
    built over all of base^3."""
    A, m = adj.base, adj.m
    idc, ms = adj.m_unit.source, adj.m_star
    freed, outer = ((m, idc), (idc, ms)) if mirrored else \
        ((idc, m), (ms, idc))
    build, fn = (tensor_associator_inv_cell1, ungroup) if mirrored else \
        (tensor_associator_cell1, regroup)
    ra, rb = _fibres(freed[0], "right"), _fibres(freed[1], "right")
    points = [g for g in itertools.product(_fibres(outer[0], "left"),
                                           _fibres(outer[1], "left"))
              if fn(g)[0] in ra and fn(g)[1] in rb]
    freed = _tensor_over(*freed, map(fn, points), "right")
    moved = build(A, A, A, points)
    outer = _tensor_over(*outer, points)
    return hcomp1(hcomp1(freed, moved), outer), freed, moved, outer


def _frobenius_shared_prefix(adj, mirrored):
    """The opening moves of both mate composites, as a chain from
    m_star o m: pad with the identity, insert the adjunction unit on one
    tensor factor, split off the composite with the inverse interchange
    cell (built on the atoms the padding reaches), and rebracket so the
    multiplication sits next to its freshly inserted partner, against
    the tensored m_star.  The mirrored side swaps every tensor pair."""
    m, ms, unit = adj.m, adj.m_star, adj.m_unit
    idc, s0 = unit.source, adj.m_counit.source
    def order(a, b):
        return (b, a) if mirrored else (a, b)
    right, inserted = s0.span.right.assignment, unit.morphism.map.assignment
    fix = (lambda t: ((t[0], t[0]), t[1])) if mirrored else \
        (lambda t: (t[0], (t[1], t[1])))
    def split(point):  # the atom of the interchange's source it reaches
        a, b = order(*point)
        return interchange_atoms(fix(order(inserted[a], b)))
    atoms = [split(right[c]) for c in s0.span.apex.elements]
    swap = interchange_cell2(*order(m, idc), *order(ms, idc), source=hcomp1(
        tensor1(*order(m, idc), part(atoms, 0)),
        tensor1(*order(ms, idc), part(atoms, 1)), atoms))
    padded = _run(_tensored(*order(unit, idc)), _relabeled(fix),
                  invert_cell2(swap).inverse)
    def rebracket(t):
        return ((t[0][0], (t[0][1], t[1][0])), t[1][1])
    return _chained(s0, _relabeled(lambda c: (c, right[c])),
                    _whiskered(s0, padded), _relabeled(rebracket))


def _core_steps(adj, coherence, freed, moved):
    """The vertical steps of the mate's core m_star o (m o (m-bracket))
    => (1-bracket) o regroup: fire, the whiskered coherence cell, a
    rebracketing, the counit's collapse, and a unitor that drops the
    identity it leaves; each relabeling as its atom map."""
    return (_whiskered(adj.m_star, coherence),
            lambda t: (((t[0], t[1][0][0]), t[1][0][1]), t[1][1]),
            _whiskered(_whiskered(adj.m_counit, freed), moved),
            lambda t: (t[0][1], t[1]))


def frobenius_comparison_cells(adj):
    """The two mate composites m_star o m => (1 . m) o assoc o (m_star . 1)
    and its mirror with (m . 1) and reverse-assoc, each side as the pair
    (unit-first, counit-first); SpanVError unless the m-adjunction's unit
    and counit and alpha run between the 1-cells opmap_adjunctions gives
    them.

    Unit-first applies every core step as its own whiskered vertical
    step; counit-first composes the core first and whiskers it once.
    Both continue one prefix chain with one list of core steps per side
    and land in the side's whole target, against which invertibility
    is decided; check_frobenius compares them.
    """
    if not _fits(adj, "m", "alpha"):
        raise SpanVError(_MISMATCH)
    return _comparison_cells(adj)


def _comparison_cells(adj):
    """frobenius_comparison_cells on an adj whose boundaries are right."""
    sides = []
    for mirrored in (False, True):
        coherence = _alpha_reversed(adj) if mirrored else adj.alpha
        target, freed, moved, outer = _comparison_target(adj, mirrored)
        prefix = _frobenius_shared_prefix(adj, mirrored)
        fire, rebracket, collapse, finish = _core_steps(
            adj, coherence, freed, moved)
        # Unit-first relabels the first factor of the whiskered composite.
        unit_first = _chained(
            prefix, _whiskered(fire, outer),
            _relabeled(lambda t: (rebracket(t[0]), t[1])),
            _whiskered(collapse, outer),
            _relabeled(lambda t: (finish(t[0]), t[1])))
        counit_first = _chained(prefix, _whiskered(_run(
            fire, _relabeled(rebracket), collapse, _relabeled(finish)),
            outer))
        sides.append((_landed(unit_first, target),
                      _landed(counit_first, target)))
    return tuple(sides)


def check_frobenius(X, be, adj=None):
    """Build both Frobenius comparison cells in both mate conventions and
    verify invertibility; also re-checks the adjunction triangles so a
    corrupted unit or counit is located by name.

    Every chain is built on the atoms its source reaches, so over n
    points no span apex exceeds n^2 atoms.  Equal cells invert alike,
    so a side whose two conventions agree inverts one of them and
    reports both.  A given adj is first compared with the boundaries
    opmap_adjunctions gives its cells: a unit, counit or alpha off them
    fails the comparison construction (a unit or counit before the
    triangles, which are built on those boundaries)."""
    given = adj is not None
    adj = adj or opmap_adjunctions(X, be)
    report = CheckReport("frobenius")
    if given and not _fits(adj, "m", "u"):
        report.fail("comparison construction", _MISMATCH)
        return report
    report.merge(_triangles(adj))
    try:
        if given and not _fits(adj, "alpha"):
            raise SpanVError(_MISMATCH)
        sides = _comparison_cells(adj)
    except SpanVError as e:
        report.fail("comparison construction", str(e))
        return report
    for side, cells in zip(("left", "right"), sides):
        agree = eq2(*cells)
        first = invert_cell2(cells[0])
        for convention, res in zip(("unit-first", "counit-first"), (
                first, first if agree else invert_cell2(cells[1]))):
            if not res:
                report.fail("%s comparison invertible (%s)"
                            % (side, convention), res.witness)
        report.holds(side + " mate conventions agree", agree)
    return report


# ---------------------------------------------------------------------------
# Convolution of parallel 1- and 2-cells.


def _diagonal_labels(b):
    """The labels m and d of the diagonal multiplication and
    comultiplication, the same at every point of b's boundary carriers,
    whose labels must all be the base unit."""
    be = b.backend
    fib = _trivial_fiber(be)
    for z in (b.src, b.tgt):
        if not all(be.eq0(z.label[p], fib.obj) for p in z.carrier):
            raise SpanVError("convolution needs boundary labels at the unit")
    return fib.tensor, _duplicate_label(be, fib.obj)


def star1(b, a):
    """The convolution b * a of parallel 1-cells.

    The apex is the pairs (c, h) with equal legs, ordered by the point
    x = left(c) in carrier order, then c, then h, in apex order: the
    order of the pullback composite m o (b . a) o d
    (finset_span.convolution_span).  The label at (c, h) is
    m o (b(c) . a(h)) o d.  Over a one-object base this is just the
    label tensor."""
    if b.src != a.src or b.tgt != a.tgt:
        raise SpanVError("convolution needs parallel 1-cells")
    be = b.backend
    m, d = _diagonal_labels(b)
    return _pair_labeled(
        a.src, a.tgt, convolution_span(b.span, a.span),
        lambda p, q: be.comp1(be.comp1(m, be.tensor1v(p, q)), d), b, a)


def star2(v, u):
    """The convolution of parallel 2-cells: (c, h) goes to (v(c), u(h))
    with component 1_m o (v(c) . u(h)) o 1_d (_starred)."""
    return _landed(_chained(star1(v.source, u.source), _starred(v, u)),
                   star1(v.target, u.target))


def _starred(v, u):
    """The convolution step v * u: at (c, h), 1_m o (v(c) . u(h)) o 1_d."""
    m, d = _diagonal_labels(v.source)
    return _pairwise(lambda be, f, g: be.comp2(be.comp2(
        be.id2(m), be.tensor2v(f, g)), be.id2(d)), v, u)


def complete_unit_cell1(src0, tgt0):
    """The convolution unit between two 0-cells: the complete span with
    identity-like labels (requires matching base labels pointwise)."""
    be = src0.backend
    span = Span.complete(src0.carrier, tgt0.carrier)
    label = {}
    for (p, q) in span.apex:
        if not be.eq0(src0.label[q], tgt0.label[p]):
            raise SpanVError("no canonical unit label at %r" % ((p, q),))
        label[(p, q)] = be.id1(src0.label[q])
    return Cell1(be, src0, tgt0, span, label)


def star_associator_cell2(c, b, a):
    """(c * b) * a  =>  c * (b * a), identity components."""
    return relabel_cell2(star1(star1(c, b), a), star1(c, star1(b, a)),
                         regroup)


def star_left_unitor_cell2(a):
    """J * a  =>  a, dropping the forced complete-span component."""
    return relabel_cell2(star1(complete_unit_cell1(a.src, a.tgt), a), a,
                         lambda t: t[1])


def star_right_unitor_cell2(a):
    """a * J  =>  a."""
    return relabel_cell2(star1(a, complete_unit_cell1(a.src, a.tgt)), a,
                         lambda t: t[0])


# ---------------------------------------------------------------------------
# The duoidal structure on endo-hom cells.


@dataclass(frozen=True)
class DuoidalUnits:
    """Units and structure maps tying composition to convolution."""

    i: Cell1
    j: Cell1
    mu_j: Cell2
    delta_i: Cell2
    iota_ij: Cell2


def duoidal_units(X, be):
    """I (identity span), J (complete span), the J-multiplication, the
    I-comultiplication, and the diagonal comparison I => J."""
    base, _ = _labeled(X, be)
    i = identity_cell1(base)
    j = complete_unit_cell1(base, base)
    mu_j = unique_relabel_cell2(hcomp1(j, j), j)
    delta_i = unique_relabel_cell2(i, star1(i, i))
    iota_ij = unique_relabel_cell2(i, j)
    return DuoidalUnits(i, j, mu_j, delta_i, iota_ij)


def duoidal_interchange(a, b, h, d):
    """(a * b) o (h * d)  =>  (a o h) * (b o d): the interchange cell of
    spanv_core with the convolution as its product, on endo-cells of one
    carrier."""
    for cell in (a, b, h, d):
        if cell.src != a.src or cell.tgt != a.src:
            raise SpanVError("interchange needs endo-cells on one carrier")
    return interchange_cell2(a, b, h, d, product=star1)


def _take(cells, n, offset=0):
    return [cells[(offset + k) % len(cells)] for k in range(n)]


def check_duoidal(un, cells):
    """All structure-morphism axioms of the two-product structure.

    J is a monoid for composition, I a comonoid for convolution, the
    interchange cell is associative against both products and compatible
    with all four units (un, the DuoidalUnits on the carrier); the
    product-shape checks run over the supplied endo 1-cells.
    """
    if not cells:
        raise SpanVError("need at least one sample cell")
    report = CheckReport("duoidal")
    i, j = un.i, un.j

    left = vcomp2(un.mu_j, hcomp2(un.mu_j, identity_cell2(j)))
    right = vcomp2(un.mu_j, hcomp2(identity_cell2(j), un.mu_j))
    report.holds("J multiplication associative",
                 eq2(vcomp2(right, associator_cell2(j, j, j)), left))
    report.holds("J left unit", eq2(
        vcomp2(un.mu_j, hcomp2(un.iota_ij, identity_cell2(j))),
        left_unitor_cell2(j)))
    report.holds("J right unit", eq2(
        vcomp2(un.mu_j, hcomp2(identity_cell2(j), un.iota_ij)),
        right_unitor_cell2(j)))

    left = vcomp2(star2(un.delta_i, identity_cell2(i)), un.delta_i)
    right = vcomp2(star2(identity_cell2(i), un.delta_i), un.delta_i)
    report.holds("I comultiplication coassociative", eq2(
        left, right, transport=(star_associator_cell2(i, i, i),)))
    report.holds("I left counit", eq2(
        vcomp2(star2(un.iota_ij, identity_cell2(i)), un.delta_i),
        identity_cell2(i), transport=(star_left_unitor_cell2(i),)))
    report.holds("I right counit", eq2(
        vcomp2(star2(identity_cell2(i), un.iota_ij), un.delta_i),
        identity_cell2(i), transport=(star_right_unitor_cell2(i),)))

    for offset in range(min(len(cells), 3)):
        a, b, h, d, f, e = _take(cells, 6, offset)
        route1 = vcomp2(
            duoidal_interchange(hcomp1(a, h), hcomp1(b, d), f, e),
            hcomp2(duoidal_interchange(a, b, h, d),
                   identity_cell2(star1(f, e))))
        route2 = vcomp2(
            duoidal_interchange(a, b, hcomp1(h, f), hcomp1(d, e)),
            vcomp2(hcomp2(identity_cell2(star1(a, b)),
                          duoidal_interchange(h, d, f, e)),
                   associator_cell2(star1(a, b), star1(h, d), star1(f, e))))
        report.holds("interchange vs composition associativity", eq2(
            route1, route2, transport=(star2(associator_cell2(a, h, f),
                                             associator_cell2(b, d, e)),)),
            offset)

        a, b, c, h, d, e = _take(cells, 6, offset + 1)
        route1 = vcomp2(
            star2(duoidal_interchange(a, b, h, d),
                  identity_cell2(hcomp1(c, e))),
            duoidal_interchange(star1(a, b), c, star1(h, d), e))
        route2 = vcomp2(
            star2(identity_cell2(hcomp1(a, h)),
                  duoidal_interchange(b, c, d, e)),
            vcomp2(duoidal_interchange(a, star1(b, c), h, star1(d, e)),
                   hcomp2(star_associator_cell2(a, b, c),
                          star_associator_cell2(h, d, e))))
        report.holds("interchange vs convolution associativity", eq2(
            route1, route2, transport=(star_associator_cell2(
                hcomp1(a, h), hcomp1(b, d), hcomp1(c, e)),)), offset)

    for offset in range(min(len(cells), 4)):
        a, b = _take(cells, 2, offset)
        ab_star = star1(a, b)
        cell = vcomp2(duoidal_interchange(a, b, i, i),
                      hcomp2(identity_cell2(ab_star), un.delta_i))
        report.holds("interchange vs I on the right", eq2(
            vcomp2(star2(right_unitor_cell2(a), right_unitor_cell2(b)),
                   cell), right_unitor_cell2(ab_star)), offset)
        cell = vcomp2(duoidal_interchange(i, i, a, b),
                      hcomp2(un.delta_i, identity_cell2(ab_star)))
        report.holds("interchange vs I on the left", eq2(
            vcomp2(star2(left_unitor_cell2(a), left_unitor_cell2(b)),
                   cell), left_unitor_cell2(ab_star)), offset)

        ab = hcomp1(a, b)
        cell = vcomp2(star2(identity_cell2(ab), un.mu_j),
                      duoidal_interchange(a, j, b, j))
        report.holds("interchange vs J on the right", eq2(
            vcomp2(star_right_unitor_cell2(ab), cell),
            hcomp2(star_right_unitor_cell2(a), star_right_unitor_cell2(b))),
            offset)
        cell = vcomp2(star2(un.mu_j, identity_cell2(ab)),
                      duoidal_interchange(j, a, j, b))
        report.holds("interchange vs J on the left", eq2(
            vcomp2(star_left_unitor_cell2(ab), cell),
            hcomp2(star_left_unitor_cell2(a), star_left_unitor_cell2(b))),
            offset)
    return report


# ---------------------------------------------------------------------------
# Comonoid-labeled cells.


@dataclass(frozen=True)
class ComonoidLabeledCell:
    """A 1-cell whose every label carries comonoid structure in the base:
    delta[h] : a(h) -> a(h) . a(h) and eps[h] : a(h) -> K.  Each of delta
    and eps becomes a Uniform when it holds one object at every key."""

    cell: Cell1
    delta: dict
    eps: dict

    def __post_init__(self):
        be = self.cell.backend
        for h in self.cell.span.apex:
            p = self.cell.label[h]
            d, e = self.delta[h], self.eps[h]
            if not be.eq1(be.src2(d), p) or \
                    not be.eq1(be.tgt2(d), be.tensor1v(p, p)):
                raise SpanVError("comultiplication boundary at %r" % (h,))
            if not be.eq1(be.src2(e), p) or \
                    not be.eq1(be.tgt2(e), be.id1(be.unit0())):
                raise SpanVError("counit boundary at %r" % (h,))
        _mark_fields(self, "delta", "eps")


_COMONOID_LAWS = ("coassociativity", "left counit", "right counit")


def _comonoid_sides(be, label, d, e):
    """Both sides of each comonoid law on one label with comultiplication
    d and counit e."""
    one = be.id2(label)
    return ((be.vcomp(be.tensor2v(d, one), d),
             be.vcomp(be.tensor2v(one, d), d)),
            (be.vcomp(be.tensor2v(e, one), d), one),
            (be.vcomp(be.tensor2v(one, e), d), one))


def check_comonoid(com):
    """Coassociativity and both counit laws, per apex element, each side
    built once per distinct label, delta and eps.  When the labels,
    delta and eps are each one object (Uniform), each law is one
    equation, decided once; the apex is walked only if one fails."""
    report = CheckReport("comonoid labels")
    be = com.cell.backend
    one = _values(com.cell.label, com.delta, com.eps)
    if one is not None and len(com.cell.span.apex) \
            and report.uniform(be, *_comonoid_sides(be, *one)):
        return report
    for h in com.cell.span.apex:
        sides = report.once(_comonoid_sides, be, com.cell.label[h],
                            com.delta[h], com.eps[h])
        for law, (lhs, rhs) in zip(_COMONOID_LAWS, sides):
            report.equal(law, h, be, lhs, rhs)
    return report


def comonoid_cells(com):
    """The comultiplication a => a * a and counit a => J induced by
    per-label comonoid structure."""
    a = com.cell
    delta2 = cell2_along(a, star1(a, a), lambda h: (h, h), dict(com.delta))
    eps2 = cell2_along(a, complete_unit_cell1(a.src, a.tgt),
                       lambda h: (a.span.left(h), a.span.right(h)),
                       dict(com.eps))
    return delta2, eps2


def grouplike_comonoid(cell):
    """The basis comonoid on every label of a graded-vector cell: each
    basis vector is sent to its own tensor square, the counit is the sum
    of coordinates."""
    be = cell.backend
    if not isinstance(be, VectBackend):
        raise SpanVError("grouplike comonoids need a one-object graded base")
    delta, eps = {}, {}
    for h in cell.span.apex:
        delta[h], eps[h] = vb.grouplike(cell.label[h])
    return ComonoidLabeledCell(cell, delta, eps)


# ---------------------------------------------------------------------------
# The one-point carrier, where the two products coincide.


def zunino_braiding(a, b):
    """The swap a * b  =>  b * a over a one-point carrier, with the base
    braiding as components."""
    be = a.backend
    if not isinstance(be, VectBackend):
        raise SpanVError("the braiding needs a one-object graded base")
    lhs, rhs = star1(a, b), star1(b, a)
    atoms = lhs.span.apex.elements
    comps = _fill(atoms, be.braid1, a.label, b.label) or {
        (c, h): be.braid1(a.label[c], b.label[h]) for (c, h) in atoms}
    return cell2_along(lhs, rhs, lambda t: (t[1], t[0]), comps)


def zunino_check(X, be, cells):
    """Over a one-point carrier: convolution literally equals composition
    on 1-cells, the unit comparison I => J is invertible, the braiding is
    invertible and natural-free hexagon-coherent on the samples."""
    if len(X) != 1:
        raise SpanVError("the comparison lives over a one-point carrier")
    report = CheckReport("zunino")
    res = invert_cell2(duoidal_units(X, be).iota_ij)
    if not res:
        report.fail("unit comparison invertible", res.witness)
    for k, a in enumerate(cells):
        b = cells[(k + 1) % len(cells)]
        c = cells[(k + 2) % len(cells)]
        if star1(b, a) != hcomp1(b, a):
            report.fail("products agree", k)
        braid = zunino_braiding(a, b)
        res = invert_cell2(braid)
        if not res:
            report.fail("braiding invertible", (k, res.witness))

        direct = zunino_braiding(a, star1(b, c))
        onestep = vcomp2(
            invert_cell2(star_associator_cell2(b, c, a)).inverse,
            vcomp2(star2(identity_cell2(b), zunino_braiding(a, c)),
                   vcomp2(star_associator_cell2(b, a, c),
                          star2(braid, identity_cell2(c)))))
        report.holds("hexagon", eq2(
            vcomp2(direct, star_associator_cell2(a, b, c)), onestep), k)
    return report
