"""Graded rational vector spaces: the braided monoidal label category.

Objects are finite ordered bases whose labels are words (flat tuples of
atoms) carrying integer grades.  Tensor concatenates words and adds grades,
so the tensor is strictly associative and the one-dimensional empty-word
object K is a strict unit.  Morphisms are dense matrices of exact rationals
(fractions.Fraction), rows indexed by the codomain basis.

The braiding depends on a nonzero rational parameter q and sends the basis
pair (a_i, b_j) to q^(grade(a_i) * grade(b_j)) times the swapped pair.
q = 1 is the symmetric ungraded case, q = -1 the super case, any other q a
genuinely non-symmetric braiding.

All exact linear algebra goes through one elimination routine,
row_reduce, which reduces the leading columns of an augmented matrix and
returns its pivot columns and determinant.  invert reports the rank of a
singular square matrix and (cod dim, dom dim) of a non-square one;
determinant refuses a non-square one; the antipode solver in
hopf_structures reports ("underdetermined", first pivot-free column) or
("inconsistent", row).  Each reported value is unique (inverse,
determinant, rank, unique solution, first free column), so it does not
depend on the pivoting order.
"""

from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_word(label):
    if isinstance(label, tuple):
        return label
    return (label,)


@dataclass(frozen=True)
class VObject:
    """An ordered graded basis; each entry is (word label, integer grade)."""

    basis: tuple

    def __init__(self, basis):
        basis = tuple((_as_word(label), int(grade)) for label, grade in basis)
        labels = [label for label, _ in basis]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_index", {label: i for i, (label, _) in enumerate(basis)})

    @property
    def dim(self):
        return len(self.basis)

    def labels(self):
        return [label for label, _ in self.basis]

    def grades(self):
        return [grade for _, grade in self.basis]

    def index(self, label):
        return self._index[_as_word(label)]

    def __eq__(self, other):
        return isinstance(other, VObject) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return "VObject(%r)" % (list(self.basis),)

    @staticmethod
    def ungraded(labels):
        return VObject([(label, 0) for label in labels])


def unit_object():
    """The strict monoidal unit K: one-dimensional, empty word, grade 0."""
    return VObject([((), 0)])


def tensor_obj(a, b):
    """Concatenate label words and add grades; a-index major order."""
    return VObject([(la + lb, ga + gb)
                    for (la, ga) in a.basis for (lb, gb) in b.basis])


@dataclass(frozen=True)
class VMorphism:
    """A dense matrix dom -> cod over exact rationals."""

    dom: VObject
    cod: VObject
    entries: tuple

    def __init__(self, dom, cod, entries):
        entries = tuple(tuple(Fraction(e) for e in row) for row in entries)
        if len(entries) != cod.dim or any(len(row) != dom.dim for row in entries):
            raise ValueError(
                "entry shape %s does not match cod dim %d, dom dim %d"
                % ((len(entries), len(entries[0]) if entries else 0),
                   cod.dim, dom.dim)
            )
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other):
        return (isinstance(other, VMorphism) and self.dom == other.dom
                and self.cod == other.cod and self.entries == other.entries)

    def __hash__(self):
        return hash((self.dom, self.cod, self.entries))

    def __repr__(self):
        return "VMorphism(%d x %d)" % (self.cod.dim, self.dom.dim)

    def compose(self, other):
        """self after other (matrix product)."""
        if other.cod != self.dom:
            raise ValueError("composition mismatch: %r then %r" % (other, self))
        rows = []
        for r in range(self.cod.dim):
            row = []
            for c in range(other.dom.dim):
                acc = ZERO
                for k in range(self.dom.dim):
                    acc += self.entries[r][k] * other.entries[k][c]
                row.append(acc)
            rows.append(tuple(row))
        return VMorphism(other.dom, self.cod, rows)

    __mul__ = compose

    def __add__(self, other):
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("sum shape mismatch")
        return VMorphism(self.dom, self.cod,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, s):
        s = Fraction(s)
        return VMorphism(self.dom, self.cod,
                         [[s * e for e in row] for row in self.entries])

    def is_zero(self):
        return all(e == 0 for row in self.entries for e in row)

    def is_permutation(self):
        """Exactly one 1 in every row and every column, all else 0."""
        if self.dom.dim != self.cod.dim:
            return False
        seen_cols = set()
        for row in self.entries:
            ones = [c for c, e in enumerate(row) if e == 1]
            if len(ones) != 1 or any(e not in (0, 1) for e in row):
                return False
            if ones[0] in seen_cols:
                return False
            seen_cols.add(ones[0])
        return True

    @staticmethod
    def identity(obj):
        return VMorphism(obj, obj,
                         [[ONE if r == c else ZERO for c in range(obj.dim)]
                          for r in range(obj.dim)])

    @staticmethod
    def zero(dom, cod):
        return VMorphism(dom, cod, [[ZERO] * dom.dim for _ in range(cod.dim)])

    @staticmethod
    def from_basis_map(dom, cod, fn):
        """Matrix of the map sending each dom basis label to the cod label
        fn(label), with coefficient 1."""
        rows = [[ZERO] * dom.dim for _ in range(cod.dim)]
        for c, (label, _) in enumerate(dom.basis):
            rows[cod.index(fn(label))][c] = ONE
        return VMorphism(dom, cod, rows)


@dataclass(frozen=True)
class BraidParam:
    q: Fraction

    def __init__(self, q):
        q = Fraction(q)
        if q == 0:
            raise ValueError("braid parameter must be nonzero")
        object.__setattr__(self, "q", q)


def tensor_mor(f, g):
    """Kronecker product, row-major: row r1*n2+r2, column c1*m2+c2."""
    dom = tensor_obj(f.dom, g.dom)
    cod = tensor_obj(f.cod, g.cod)
    n2, m2 = g.cod.dim, g.dom.dim
    rows = []
    for r in range(cod.dim):
        r1, r2 = divmod(r, n2)
        row = []
        for c in range(dom.dim):
            c1, c2 = divmod(c, m2)
            row.append(f.entries[r1][c1] * g.entries[r2][c2])
        rows.append(tuple(row))
    return VMorphism(dom, cod, rows)


def braiding(a, b, q):
    """The braid morphism a tensor b -> b tensor a, q^(grade * grade) swap."""
    dom = tensor_obj(a, b)
    cod = tensor_obj(b, a)
    rows = [[ZERO] * dom.dim for _ in range(cod.dim)]
    for i, (_, ga) in enumerate(a.basis):
        for j, (_, gb) in enumerate(b.basis):
            col = i * b.dim + j
            row = j * a.dim + i
            rows[row][col] = q.q ** (ga * gb)
    return VMorphism(dom, cod, rows)


@dataclass(frozen=True)
class InverseResult:
    """Either the exact inverse, or a witness for why there is none."""

    inverse: VMorphism | None
    witness: object = None

    def __bool__(self):
        return self.inverse is not None


def row_reduce(rows, width):
    """Gauss-Jordan elimination on the leading width columns of rows, a
    list of rational rows; any further columns are the augmented part.

    Column by column, the first row at or below the current rank with a
    nonzero entry is swapped up, scaled to a leading one and cleared from
    every other row.  rows is reduced in place (its rows are replaced,
    never mutated).  Returns (pivots, det): the pivot columns in
    increasing order, and the determinant of the leading width x width
    block, which is ZERO when a column has no pivot and means something
    only when there are width rows.
    """
    pivots = []
    det = ONE
    for col in range(width):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            det = ZERO
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        lead = rows[rank][col]
        det *= lead
        top = rows[rank] = [e / lead for e in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col] != 0:
                factor = row[col]
                rows[r] = [e - factor * p for e, p in zip(row, top)]
        pivots.append(col)
    return pivots, det


def invert(f):
    """Exact inverse, by row_reduce on f augmented with the identity.

    Returns an empty result with witness = (cod dim, dom dim) for a
    non-square matrix, or witness = rank for a singular square one.
    """
    n = f.dom.dim
    if f.cod.dim != n:
        return InverseResult(None, witness=(f.cod.dim, f.dom.dim))
    rows = [list(row) + [ONE if r == c else ZERO for c in range(n)]
            for r, row in enumerate(f.entries)]
    pivots, _ = row_reduce(rows, n)
    if len(pivots) < n:
        return InverseResult(None, witness=len(pivots))
    return InverseResult(VMorphism(f.cod, f.dom, [row[n:] for row in rows]))


def determinant(f):
    """Exact determinant of a square morphism, by row_reduce."""
    if f.cod.dim != f.dom.dim:
        raise ValueError("determinant of a non-square morphism")
    return row_reduce(list(f.entries), f.dom.dim)[1]
