"""The unrestricted Frobenius construction, kept as an oracle.

Every step of these chains is built whole, over the full products of the
carrier, and each step's source 1-cell is built again and compared with
the step before it.  That is how ``monoidale_duoidal`` built the
adjunction triangles, the Frobenius prefix and the comparison cells
before it built each chain on the atoms its source reaches, each 1-cell
once.  The differential tests compare the two constructions.  The
direct inverses of the associator and unitors, and the restriction of a
cell to the sub-span of its target that it reaches, which only the
tests use, live here too.
"""

from hopfspan.finset_span import FinFn, FinSet, Span, SpanMorphism
from hopfspan.monoidale_duoidal import (
    tensor_associator_cell1, tensor_associator_inv_cell1,
    unique_relabel_cell2,
)
from hopfspan.reporting import CheckReport
from hopfspan.spanv_core import (
    Cell1, Cell2, SpanVError, associator_cell2, eq2, hcomp1, hcomp2, identity_cell1,
    identity_cell2, interchange_cell2, invert_cell2, left_unitor_cell2,
    relabel_cell2, right_unitor_cell2, tensor1, tensor2, ungroup, vcomp2,
)


def associator_inv_cell2(c, b, a):
    """c o (b o a) => (c o b) o a, the inverse of associator_cell2."""
    return relabel_cell2(hcomp1(c, hcomp1(b, a)), hcomp1(hcomp1(c, b), a),
                         ungroup)


def left_unitor_inv_cell2(a):
    """a => identity(tgt) o a, the inverse of left_unitor_cell2."""
    return relabel_cell2(a, hcomp1(identity_cell1(a.tgt), a),
                         lambda c: (a.span.left(c), c))


def right_unitor_inv_cell2(a):
    """a => a o identity(src), the inverse of right_unitor_cell2."""
    return relabel_cell2(a, hcomp1(a, identity_cell1(a.src)),
                         lambda c: (c, a.span.right(c)))


def onto_image(u):
    """u as a 2-cell into the sub-span of its target that it reaches,
    built by the checked constructors."""
    t, reached = u.target, set(u.morphism.map.image())
    s = t.span
    apex = FinSet([x for x in s.apex if x in reached])
    span = Span(s.src, s.tgt, apex,
                FinFn(apex, s.tgt, {x: s.left(x) for x in apex}),
                FinFn(apex, s.src, {x: s.right(x) for x in apex}))
    target = Cell1(t.backend, t.src, t.tgt, span,
                   {x: t.label[x] for x in apex})
    return Cell2(u.source, target, SpanMorphism(
        u.source.span, span, FinFn(u.source.span.apex, apex,
                                   u.morphism.map.assignment)), u.components)


def triangle_left(left, right, unit, counit):
    """(counit o 1) . (1 o unit) on the left adjoint, with unitors."""
    start = right_unitor_inv_cell2(left)
    insert = hcomp2(identity_cell2(left), unit)
    rebracket = associator_inv_cell2(left, right, left)
    collapse = hcomp2(counit, identity_cell2(left))
    finish = left_unitor_cell2(left)
    return vcomp2(finish, vcomp2(collapse, vcomp2(rebracket,
                                                  vcomp2(insert, start))))


def triangle_right(left, right, unit, counit):
    """(1 o counit) . (unit o 1) on the right adjoint, with unitors."""
    start = left_unitor_inv_cell2(right)
    insert = hcomp2(unit, identity_cell2(right))
    rebracket = associator_cell2(right, left, right)
    collapse = hcomp2(identity_cell2(right), counit)
    finish = right_unitor_cell2(right)
    return vcomp2(finish, vcomp2(collapse, vcomp2(rebracket,
                                                  vcomp2(insert, start))))


def check_adjunction_triangles(adj):
    report = CheckReport("opmap adjunctions")
    for name, left, right, unit, counit in [
            ("m", adj.m_star, adj.m, adj.m_unit, adj.m_counit),
            ("u", adj.u_star, adj.u, adj.u_unit, adj.u_counit)]:
        report.holds(name + "-adjunction left triangle", eq2(
            triangle_left(left, right, unit, counit), identity_cell2(left)))
        report.holds(name + "-adjunction right triangle", eq2(
            triangle_right(left, right, unit, counit),
            identity_cell2(right)))
    return report


def alpha_reversed(adj):
    """m o (1 . m)  =>  (m o (m . 1)) o reverse-assoc, derived from alpha."""
    A = adj.base
    idc = identity_cell1(A)
    a_fwd = tensor_associator_cell1(A, A, A)
    a_rev = tensor_associator_inv_cell1(A, A, A)
    right_side = hcomp1(adj.m, tensor1(idc, adj.m))
    w = hcomp2(adj.alpha, identity_cell2(a_rev))
    w = vcomp2(associator_cell2(right_side, a_fwd, a_rev), w)
    collapse = unique_relabel_cell2(hcomp1(a_fwd, a_rev),
                                    identity_cell1(a_rev.src))
    w = vcomp2(hcomp2(identity_cell2(right_side), collapse), w)
    w = vcomp2(right_unitor_cell2(right_side), w)
    res = invert_cell2(w)
    if not res:
        raise SpanVError("reversed coherence is not invertible: %r"
                         % (res.witness,))
    return res.inverse


def shared_prefix(adj, mirrored):
    """The prefix 2-cell of one side and the tensored m_star it ends
    against."""
    A = adj.base
    idc = identity_cell1(A)
    s0 = hcomp1(adj.m_star, adj.m)
    mm = hcomp1(adj.m, adj.m_star)

    def order(a, b):
        return (b, a) if mirrored else (a, b)
    pad = tensor2(*order(adj.m_unit, identity_cell2(idc)))
    split = invert_cell2(interchange_cell2(
        *order(adj.m, idc), *order(adj.m_star, idc))).inverse
    fixup = tensor2(*order(identity_cell2(mm), left_unitor_inv_cell2(idc)))
    inner = tensor1(*order(adj.m, idc))
    outer = tensor1(*order(adj.m_star, idc))
    cell = right_unitor_inv_cell2(s0)
    cell = vcomp2(hcomp2(identity_cell2(s0),
                         vcomp2(vcomp2(split, fixup), pad)), cell)
    cell = vcomp2(associator_inv_cell2(s0, inner, outer), cell)
    cell = vcomp2(hcomp2(associator_cell2(adj.m_star, adj.m, inner),
                         identity_cell2(outer)), cell)
    return cell, outer


def core_steps(adj, mirrored):
    A = adj.base
    idc = identity_cell1(A)
    if mirrored:
        coherence = alpha_reversed(adj)
        regroup = tensor_associator_inv_cell1(A, A, A)
        freed = tensor1(adj.m, idc)
    else:
        coherence = adj.alpha
        regroup = tensor_associator_cell1(A, A, A)
        freed = tensor1(idc, adj.m)
    return [
        hcomp2(identity_cell2(adj.m_star), coherence),
        associator_inv_cell2(adj.m_star, hcomp1(adj.m, freed), regroup),
        hcomp2(associator_inv_cell2(adj.m_star, adj.m, freed),
               identity_cell2(regroup)),
        hcomp2(hcomp2(adj.m_counit, identity_cell2(freed)),
               identity_cell2(regroup)),
        hcomp2(left_unitor_cell2(freed), identity_cell2(regroup)),
    ]


def frobenius_comparison_cells(adj):
    """Each side's (unit-first, counit-first) mate composites."""
    sides = []
    for mirrored in (False, True):
        prefix, outer = shared_prefix(adj, mirrored)
        steps = core_steps(adj, mirrored)
        whisker = identity_cell2(outer)
        unit_first, core = prefix, steps[0]
        for step in steps:
            unit_first = vcomp2(hcomp2(step, whisker), unit_first)
        for step in steps[1:]:
            core = vcomp2(step, core)
        sides.append((unit_first, vcomp2(hcomp2(core, whisker), prefix)))
    return tuple(sides)


def check_frobenius(adj):
    """The report of the unrestricted check on adj: every cell inverted."""
    report = CheckReport("frobenius")
    report.merge(check_adjunction_triangles(adj))
    try:
        sides = frobenius_comparison_cells(adj)
    except SpanVError as e:
        report.fail("comparison construction", str(e))
        return report
    for side, cells in zip(("left", "right"), sides):
        for convention, cell in zip(("unit-first", "counit-first"), cells):
            res = invert_cell2(cell)
            if not res:
                report.fail("%s comparison invertible (%s)"
                            % (side, convention), res.witness)
        report.holds(side + " mate conventions agree", eq2(*cells))
    return report
