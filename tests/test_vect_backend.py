import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfspan.hopf_structures import _solve_unique
from hopfspan.vect_backend import (
    VObject, VMorphism, BraidParam, unit_object,
    tensor_obj, tensor_mor, braiding, invert, determinant, row_reduce,
    first_diff,
)


def test_unit_is_strict():
    a = VObject([("x", 1), ("y", 2)])
    k = unit_object()
    assert tensor_obj(k, a) == a
    assert tensor_obj(a, k) == a


def test_tensor_obj_row_major_and_grades():
    a = VObject([("x", 1), ("y", 0)])
    b = VObject([("u", 2), ("v", 0), ("w", 1)])
    t = tensor_obj(a, b)
    assert t.dim == 6
    assert t.basis[0] == (("x", "u"), 3)
    # pair (i, j) sits at index i * b.dim + j
    for i, (la, ga) in enumerate(a.basis):
        for j, (lb, gb) in enumerate(b.basis):
            assert t.basis[i * b.dim + j] == (la + lb, ga + gb)


def test_tensor_obj_strictly_associative():
    a = VObject([("x", 1)])
    b = VObject([("u", 0), ("v", 2)])
    c = VObject([("s", 1), ("t", 0)])
    assert tensor_obj(tensor_obj(a, b), c) == tensor_obj(a, tensor_obj(b, c))


def test_tensor_mor_elementary_entries():
    a = VObject.ungraded(["0", "1"])
    e01 = VMorphism(a, a, [[0, 1], [0, 0]])
    e10 = VMorphism(a, a, [[0, 0], [1, 0]])
    k = tensor_mor(e01, e10)
    # only entry: row r1*2+r2 = 0*2+1, column c1*2+c2 = 1*2+0
    for r in range(4):
        for c in range(4):
            expected = 1 if (r, c) == (1, 2) else 0
            assert k[r, c] == expected
    ida = VMorphism.identity(a)
    assert tensor_mor(ida, ida) == VMorphism.identity(tensor_obj(a, a))
    assert tensor_mor(e01, VMorphism.zero(a, a)).is_zero()


def test_braiding_ungraded_is_swap():
    a = VObject.ungraded(["x", "y"])
    b = VObject.ungraded(["u"])
    c = braiding(a, b, BraidParam(2))
    assert c.is_permutation()
    assert c[0, 0] == 1 and c[1, 1] == 1


def test_braiding_graded_scaling():
    q = BraidParam(2)
    a = VObject([("x", 1)])
    b = VObject([("u", 1)])
    c = braiding(a, b, q)
    assert c[0, 0] == 2
    neg = VObject([("m", -1)])
    assert braiding(a, neg, q)[0, 0] == Fraction(1, 2)


def test_braiding_inverse_is_qsquared():
    q = BraidParam(3)
    a = VObject([("x", 1), ("y", 0)])
    b = VObject([("u", 2)])
    round_trip = braiding(b, a, q).compose(braiding(a, b, q))
    for i, (_, ga) in enumerate(a.basis):
        for j, (_, gb) in enumerate(b.basis):
            idx = i * b.dim + j
            assert round_trip[idx, idx] == Fraction(3) ** (2 * ga * gb)
    for qsym in (1, -1):
        c = braiding(a, b, BraidParam(qsym))
        assert braiding(b, a, BraidParam(qsym)).compose(c) == \
            VMorphism.identity(tensor_obj(a, b))


def grade_preserving(dom, cod, values):
    """Fill a matrix with the given values only where grades agree."""
    it = iter(values)
    rows = []
    for _, gr in cod.basis:
        row = []
        for _, gc in dom.basis:
            row.append(next(it) if gr == gc else 0)
        rows.append(row)
    return VMorphism(dom, cod, rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=16, max_size=16),
       st.sampled_from([1, -1, 2, Fraction(1, 3)]))
def test_braiding_natural_on_grade_preserving_maps(vals, q):
    a = VObject([("x", 0), ("y", 1)])
    b = VObject([("u", 1), ("v", 2)])
    f = grade_preserving(a, a, vals[:4])
    g = grade_preserving(b, b, vals[4:8])
    c_ab = braiding(a, b, BraidParam(q))
    lhs = c_ab.compose(tensor_mor(f, g))
    rhs = tensor_mor(g, f).compose(c_ab)
    assert lhs == rhs


def test_invert_hand_example():
    a = VObject.ungraded(["0", "1"])
    f = VMorphism(a, a, [[1, 1], [0, 1]])
    res = invert(f)
    assert res
    assert res.inverse.entries == ((1, -1), (0, 1))
    assert res.inverse.compose(f) == VMorphism.identity(a)
    assert f.compose(res.inverse) == VMorphism.identity(a)


def test_invert_identity_and_failures():
    a = VObject.ungraded(["0", "1"])
    assert invert(VMorphism.identity(a)).inverse == VMorphism.identity(a)
    singular = VMorphism(a, a, [[1, 2], [2, 4]])
    res = invert(singular)
    assert not res
    assert res.witness == 1  # rank
    b = VObject.ungraded(["0"])
    res = invert(VMorphism.zero(a, b))
    assert not res
    assert res.witness == (1, 2)  # shape


def test_invert_returns_the_shared_identity():
    """The shared identity is its own inverse as the same object, so the
    identity shortcuts of compose and tensor_mor still see it; an equal
    identity built afresh is inverted to an equal matrix."""
    for x in (unit_object(), VObject([("x", 1), ("y", 0), ("z", 2)])):
        one = VMorphism.identity(x)
        assert invert(one).inverse is one
        f = one.scale(2)
        assert invert(one).inverse.compose(f) is f
    a = VObject.ungraded(["0", "1"])
    fresh = VMorphism(a, a, [[1, 0], [0, 1]])
    assert fresh is not VMorphism.identity(a)
    assert invert(fresh).inverse == VMorphism.identity(a)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                min_size=4, max_size=4))
def test_invert_round_trip(vals):
    a = VObject.ungraded(["0", "1"])
    f = VMorphism(a, a, [vals[:2], vals[2:]])
    res = invert(f)
    det = determinant(f)
    assert bool(res) == (det != 0)
    if res:
        assert res.inverse.compose(f) == VMorphism.identity(a)
        assert f.compose(res.inverse) == VMorphism.identity(a)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=16, max_size=16))
def test_tensor_mor_interchange(vals):
    a = VObject.ungraded(["0", "1"])
    f1 = VMorphism(a, a, [vals[0:2], vals[2:4]])
    f2 = VMorphism(a, a, [vals[4:6], vals[6:8]])
    g1 = VMorphism(a, a, [vals[8:10], vals[10:12]])
    g2 = VMorphism(a, a, [vals[12:14], vals[14:16]])
    lhs = tensor_mor(f2.compose(f1), g2.compose(g1))
    rhs = tensor_mor(f2, g2).compose(tensor_mor(f1, g1))
    assert lhs == rhs


def test_determinant_permutation_signs():
    a = VObject.ungraded(["0", "1"])
    swap = VMorphism(a, a, [[0, 1], [1, 0]])
    assert determinant(swap) == -1
    assert determinant(VMorphism.identity(a)) == 1
    with pytest.raises(ValueError):
        determinant(VMorphism.zero(a, unit_object()))


# ---------------------------------------------------------------------------
# The elimination routine against closed forms.


def leibniz(m):
    """The permutation expansion of the determinant of a square matrix."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for i, j in itertools.combinations(perm, 2)
                         if i > j)
        term = Fraction(-1) ** inversions
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


def minor_rank(m, cols):
    """The rank of the first cols columns of m: the largest k with a
    nonzero k x k minor."""
    for k in range(min(len(m), cols), 0, -1):
        for rs in itertools.combinations(range(len(m)), k):
            for cs in itertools.combinations(range(cols), k):
                if leibniz([[m[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def sparse(rows, rhs=None):
    """Dense rows, optionally augmented with rhs, as the kernel's sparse
    rows: dicts column -> nonzero Fraction."""
    if rhs is not None:
        rows = [list(row) + [b] for row, b in zip(rows, rhs)]
    return [{c: Fraction(e) for c, e in enumerate(row) if e} for row in rows]


# Small integers make singular matrices common; fractions exercise the
# exact arithmetic.
ENTRY = st.one_of(st.integers(-1, 1).map(Fraction),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def square_systems(draw):
    """A random square system; one draw in three has one nonzero in each
    row, either in distinct columns (monomial) or in columns drawn with
    repetition (singular unless they happen to be distinct)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.integers(0, 5))
    if kind < 4:
        rows = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    else:
        cols = draw(st.permutations(range(n)) if kind == 4 else
                    st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        values = draw(st.lists(NONZERO, min_size=n, max_size=n))
        rows = [[values[r] if c == cols[r] else Fraction(0)
                 for c in range(n)] for r in range(n)]
    rhs = draw(st.lists(ENTRY, min_size=n, max_size=n))
    return rows, rhs


@settings(max_examples=80, deadline=None)
@given(square_systems())
# monomial: an odd permutation with entries other than 1
@example(([[0, Fraction(2, 3), 0], [-1, 0, 0], [0, 0, 5]], [1, 0, 2]))
# one nonzero per row, but column 1 twice: singular, not monomial
@example(([[0, 2, 0], [0, Fraction(-1, 2), 0], [3, 0, 0]], [1, 0, 0]))
def test_elimination_matches_closed_forms(system):
    rows, rhs = system
    n = len(rows)
    a = VObject.ungraded([str(i) for i in range(n)])
    f = VMorphism(a, a, rows)
    det = determinant(f)
    assert det == leibniz(rows)
    res = invert(f)
    assert bool(res) == (det != 0)
    solution, witness = _solve_unique(sparse(rows, rhs), n)
    if res:
        assert res.inverse.compose(f) == VMorphism.identity(a)
        assert witness is None
        assert [sum(row[c] * solution[c] for c in range(n))
                for row in rows] == rhs
    else:
        assert res.witness == minor_rank(rows, n)
        free = next(c for c in range(n)
                    if minor_rank(rows, c + 1) == minor_rank(rows, c))
        assert (solution, witness) == (None, ("underdetermined", free))


# ---------------------------------------------------------------------------
# Sparse elimination against the dense Gauss-Jordan it replaced.  These
# three functions are that elimination and the inverse and solver built
# on it, kept as the oracle.


def dense_row_reduce(rows, width):
    pivots = []
    det = Fraction(1)
    for col in range(width):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        lead = rows[rank][col]
        if lead != 1:
            det *= lead
            rows[rank] = [e / lead for e in rows[rank]]
        support = [(c, p) for c, p in enumerate(rows[rank]) if p != 0]
        for r, row in enumerate(rows):
            if r != rank and row[col] != 0:
                factor = row[col]
                row = rows[r] = list(row)
                for c, p in support:
                    row[c] -= factor * p
        pivots.append(col)
    return pivots, det


def dense_invert(rows):
    """(inverse rows, None), or (None, rank) for a singular square matrix."""
    n = len(rows)
    m = [list(row) + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(rows)]
    pivots, _ = dense_row_reduce(m, n)
    if len(pivots) < n:
        return None, len(pivots)
    return tuple(tuple(row[n:]) for row in m), None


def dense_solve_unique(rows, rhs):
    cols = len(rows[0]) if rows else 0
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, _ = dense_row_reduce(m, cols)
    free = set(range(cols)).difference(pivots)
    if free:
        return None, ("underdetermined", min(free))
    for r in range(cols, len(m)):
        if m[r][cols] != 0:
            return None, ("inconsistent", r)
    return [m[r][cols] for r in range(cols)], None


@st.composite
def elimination_inputs(draw):
    """(rows, width): a random matrix, sparse or dense, with 1 to 5 rows,
    width leading columns and up to two augmented ones.  Some draws zero
    the leading entry of the first row, so the first pivot needs a swap;
    some copy one row into another as a multiple, or the first column
    into the last leading one, so the leading block is singular."""
    m, width, extra = (draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                       draw(st.integers(0, 2)))
    entry = draw(st.sampled_from([ENTRY, SPARSE_ENTRY]))
    rows = [[draw(entry) for _ in range(width + extra)] for _ in range(m)]
    kind = draw(st.integers(0, 3))
    if kind == 1:
        rows[0][0] = Fraction(0)
    elif kind == 2:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        scale = draw(ENTRY)
        rows[i] = [scale * e for e in rows[j]]
    elif kind == 3:
        for row in rows:
            row[width - 1] = row[0]
    return rows, width


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
# the first pivot is found in the last row
@example(([[0, 1], [0, 2], [3, 0]], 1))
# full column rank, inconsistent in the last row
@example(([[1, 0, 1], [0, 1, 1], [1, 1, 2], [1, 0, 5]], 2))
# a swap at every column
@example(([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3))
def test_sparse_elimination_matches_the_dense_oracle(case):
    rows, width = case
    rows = [[Fraction(e) for e in row] for row in rows]
    reduced = [list(row) for row in rows]
    expected = dense_row_reduce(reduced, width)
    given_rows = sparse(rows)
    copies = [dict(row) for row in given_rows]
    work = list(given_rows)
    assert row_reduce(work, width) == expected
    assert work == sparse(reduced)
    assert given_rows == copies  # rows are replaced, never mutated
    rhs = [row[width] if len(row) > width else Fraction(0) for row in rows]
    leading = [row[:width] for row in rows]
    assert _solve_unique(sparse(leading, rhs), width) == \
        dense_solve_unique(leading, rhs)
    if len(rows) == width:
        a = obj(width)
        f = VMorphism(a, a, leading)
        res = invert(f)
        inverse, rank = dense_invert(leading)
        assert res.witness == rank
        assert (res.inverse.entries if res else None) == inverse
        assert determinant(f) == dense_row_reduce(
            [list(row) for row in leading], width)[1]


# ---------------------------------------------------------------------------
# The sparse kernel against the dense kernel it replaced.  A dense matrix
# is a tuple of Fraction rows; these few functions are that kernel, and
# leibniz and minor_rank above stand in for its elimination.


def dense_compose(a, b, width):
    return tuple(tuple(sum((row[k] * b[k][c] for k in range(len(b))),
                           Fraction(0)) for c in range(width))
                 for row in a)


def dense_tensor(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def dense_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_scale(a, s):
    return tuple(tuple(s * x for x in row) for row in a)


def dense_is_permutation(a):
    return (len(a) == len(a[0])
            and all(sorted(row) == [0] * (len(row) - 1) + [1] for row in a)
            and all(sorted(col) == [0] * (len(col) - 1) + [1]
                    for col in zip(*a)))


# At least 60% zeros; 1 and -1 are common, so sums cancel to zero often.
NONZERO = st.one_of(st.sampled_from([1, -1, 2]).map(Fraction),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4).filter(bool))
SPARSE_ENTRY = st.integers(0, 9).flatmap(
    lambda k: st.just(Fraction(0)) if k < 6 else NONZERO)


def obj(n, tag="v"):
    return VObject.ungraded(["%s%d" % (tag, i) for i in range(n)])


@st.composite
def dense_matrices(draw, rows, cols):
    """A random sparse matrix, or (one draw in three) a monomial one:
    a permutation with nonzero scalars, inverted by elimination like any
    other."""
    if rows == cols and draw(st.integers(0, 2)) == 0:
        perm = draw(st.permutations(range(cols)))
        values = draw(st.lists(NONZERO, min_size=rows, max_size=rows))
        return tuple(tuple(values[r] if c == perm[r] else Fraction(0)
                           for c in range(cols)) for r in range(rows))
    return tuple(tuple(draw(SPARSE_ENTRY) for _ in range(cols))
                 for _ in range(rows))


@st.composite
def kernel_cases(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return (n, k, m, draw(dense_matrices(n, k)), draw(dense_matrices(k, m)),
            draw(dense_matrices(n, k)), draw(dense_matrices(k, k)),
            draw(NONZERO | st.just(Fraction(0))))


def built(m, dom, cod):
    """The kernel morphism of a dense matrix, checked to round-trip."""
    f = VMorphism(dom, cod, m)
    assert f.entries == m
    assert all(v != 0 for row in f.rows for v in row.values())
    return f


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_sparse_kernel_matches_the_dense_oracle(case):
    n, k, m, a, b, c, sq, s = case
    dn, dk, dm = obj(n, "n"), obj(k, "k"), obj(m, "m")
    f, g, h, q = built(a, dk, dn), built(b, dm, dk), built(c, dk, dn), \
        built(sq, dk, dk)
    ident = tuple(tuple(Fraction(int(r == c)) for c in range(k))
                  for r in range(k))
    # Each memoized call twice: the repeat must give the very same
    # object, and both must match the dense oracle.
    memoized = [
        (lambda: f.compose(g), dense_compose(a, b, m)),
        (lambda: f.compose(q).compose(g),
         dense_compose(dense_compose(a, sq, k), b, m)),
        (lambda: tensor_mor(f, g), dense_tensor(a, b)),
        (lambda: tensor_mor(q, q), dense_tensor(sq, sq)),
        (lambda: VMorphism.identity(dk), ident),
        (lambda: f.compose(VMorphism.identity(dk)), a),
        (lambda: tensor_mor(VMorphism.identity(unit_object()), g), b),
    ]
    results = []
    for call, dense in memoized:
        first, again = call(), call()
        assert again is first
        results += [(first, dense), (again, dense)]
    # An equal but distinct operand is a separate memo entry with an
    # equal result.
    twin = VMorphism(dm, dk, b)
    assert twin is not g and f.compose(twin) == f.compose(g)
    assert tensor_mor(f, twin) == tensor_mor(f, g)
    results += [
        (f + h, dense_add(a, c)),
        (f + f.scale(-1), dense_add(a, dense_scale(a, Fraction(-1)))),
        (f.scale(s), dense_scale(a, s)),
    ]
    for kernel, dense in results:
        assert kernel.entries == dense
        assert kernel.is_zero() == all(e == 0 for row in dense for e in row)
        twin = VMorphism(kernel.dom, kernel.cod, dense)
        assert kernel == twin and hash(kernel) == hash(twin)
    assert (f + f.scale(-1)).is_zero() and f.scale(0).is_zero()
    diff = next(((r, col) for r in range(n) for col in range(k)
                 if a[r][col] != c[r][col]), None)
    assert first_diff(f, h) == diff and first_diff(f, f) is None
    assert first_diff(f, g) == "boundary"
    assert q.is_permutation() == dense_is_permutation(sq)
    det, res = leibniz(sq), invert(q)
    assert determinant(q) == det and bool(res) == (det != 0)
    if res:
        one = tuple(tuple(Fraction(int(r == c)) for c in range(k))
                    for r in range(k))
        inverse = res.inverse.entries
        assert dense_compose(inverse, sq, k) == one == \
            dense_compose(sq, inverse, k)
    else:
        assert res.witness == minor_rank(sq, k)


def test_invert_singular_monomial_rows_fall_through_to_elimination():
    # One nonzero per row, but rows 0 and 1 share column 0: not monomial.
    a = obj(3)
    rows = [[2, 0, 0], [Fraction(1, 3), 0, 0], [0, 0, -1]]
    res = invert(VMorphism(a, a, rows))
    assert not res
    pivots, _ = row_reduce(sparse(rows), 3)
    assert res.witness == len(pivots) == 2


def test_tensor_obj_is_built_once_per_pair():
    a = VObject([("x", 1), ("y", 0)])
    b = VObject([("u", 2)])
    twin = VObject([("u", 2)])
    assert tensor_obj(a, b) is tensor_obj(a, twin)
    assert hash(tensor_obj(a, b)) == hash(VObject(tensor_obj(a, b).basis))
    k = unit_object()
    assert tensor_obj(a, k) is a and tensor_obj(k, a) is a
    assert not k._memo


def test_objects_are_hash_consed():
    a = VObject([("x", 1), (("y", "z"), 0)])
    assert VObject([(("x",), 1), (("y", "z"), 0)]) is a
    assert VObject([("x", 1), ("y", 0)]) is not a
    assert VObject([((), 0)]) is unit_object()
    assert a != VObject([("x", 2), (("y", "z"), 0)])
    with pytest.raises(ValueError):
        VObject([("x", 0), (("x",), 1)])
    with pytest.raises(AttributeError):
        a.basis = ()
