"""Graded rational vector spaces: the braided monoidal label category.

Objects are finite ordered bases whose labels are words (flat tuples of
atoms) carrying integer grades.  Tensor concatenates words and adds grades,
so the tensor is strictly associative and the one-dimensional empty-word
object K is a strict unit.  tensor_obj builds each product once: the
result is kept in a dict on the left operand, keyed by the right one, so
equal operands share one VObject (with its label index and cached hash)
for as long as the left operand lives.

A morphism is a matrix of exact rationals (fractions.Fraction), rows
indexed by the codomain basis, stored as the nonzero entries of each row:
a dict column -> Fraction.  Every structure map of the bundled
presentations (grouplike comultiplication and counit, table
multiplication, units, braidings, the interchange, identities) is a
monomial matrix, one nonzero in each row and column, so composition,
tensor, sum and scaling touch only nonzeros; they never re-wrap a Fraction
and never multiply by 1.  The dense matrix stays available as the
read-only tuple-of-tuples view entries, and indexing, equality and hashing
agree with it.

The braiding depends on a nonzero rational parameter q and sends the basis
pair (a_i, b_j) to q^(grade(a_i) * grade(b_j)) times the swapped pair.
q = 1 is the symmetric ungraded case, q = -1 the super case, any other q a
genuinely non-symmetric braiding.

invert inverts a monomial matrix directly, by transposing it and taking
reciprocals.  All other exact linear algebra goes through one elimination
routine, row_reduce, which reduces the leading columns of an augmented
matrix and returns its pivot columns and determinant.  invert reports the
rank of a singular square matrix and (cod dim, dom dim) of a non-square
one; determinant refuses a non-square one; the antipode solver in
hopf_structures reports ("underdetermined", first pivot-free column) or
("inconsistent", row).  Each reported value is unique (inverse,
determinant, rank, unique solution, first free column), so it does not
depend on the pivoting order.
"""

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_word(label):
    if isinstance(label, tuple):
        return label
    return (label,)


def _fraction(value):
    """value as a Fraction; a value equal to 1 becomes ONE itself, which the
    kernel recognises by identity to skip multiplying by it."""
    value = value if type(value) is Fraction else Fraction(value)
    return ONE if value == 1 else value


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
        object.__setattr__(self, "_hash", hash(basis))
        object.__setattr__(self, "_tensors", {})

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
        return self is other or (isinstance(other, VObject)
                                 and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "VObject(%r)" % (list(self.basis),)

    @staticmethod
    def ungraded(labels):
        return VObject([(label, 0) for label in labels])


_UNIT = VObject([((), 0)])


def unit_object():
    """The strict monoidal unit K: one-dimensional, empty word, grade 0."""
    return _UNIT


def tensor_obj(a, b):
    """Concatenate label words and add grades; a-index major order.

    K tensor b is b itself and a tensor K is a.  Any other product is
    built once per pair of operands and kept on a, keyed by b."""
    if a == _UNIT:
        return b
    if b == _UNIT:
        return a
    t = a._tensors.get(b)
    if t is None:
        t = a._tensors[b] = VObject([(la + lb, ga + gb)
                                     for (la, ga) in a.basis
                                     for (lb, gb) in b.basis])
    return t


class VMorphism:
    """A matrix dom -> cod over exact rationals.

    rows[r] holds the nonzero entries of codomain row r as a dict
    column -> Fraction.  Rows are never mutated once built, so morphisms
    share them.  The constructor takes dense rows and checks their shape;
    the kernel builds its results through _from_rows.
    """

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom, cod, entries):
        entries = [tuple(row) for row in entries]
        if len(entries) != cod.dim or any(len(row) != dom.dim for row in entries):
            raise ValueError(
                "entry shape %s does not match cod dim %d, dom dim %d"
                % ((len(entries), len(entries[0]) if entries else 0),
                   cod.dim, dom.dim)
            )
        rows = []
        for row in entries:
            nonzero = {}
            for c, e in enumerate(row):
                e = _fraction(e)
                if e:
                    nonzero[c] = e
            rows.append(nonzero)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(cls, dom, cod, rows):
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "rows", tuple(rows))
        return f

    def __setattr__(self, name, value):
        raise AttributeError("VMorphism is immutable")

    @property
    def entries(self):
        """The dense matrix, as a tuple of codomain rows."""
        width = range(self.dom.dim)
        return tuple(tuple(row.get(c, ZERO) for c in width)
                     for row in self.rows)

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r].get(range(self.dom.dim)[c], ZERO)

    def __eq__(self, other):
        return (isinstance(other, VMorphism) and self.dom == other.dom
                and self.cod == other.cod and self.rows == other.rows)

    def __hash__(self):
        return hash((self.dom, self.cod,
                     tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        return "VMorphism(%d x %d)" % (self.cod.dim, self.dom.dim)

    def compose(self, other):
        """self after other (matrix product)."""
        if other.cod != self.dom:
            raise ValueError("composition mismatch: %r then %r" % (other, self))
        right = other.rows
        rows = []
        for row in self.rows:
            if len(row) == 1:
                ((k, a),) = row.items()
                rows.append(right[k] if a is ONE else
                            {c: a if b is ONE else a * b
                             for c, b in right[k].items()})
                continue
            acc = {}
            for k, a in row.items():
                for c, b in right[k].items():
                    b = b if a is ONE else a if b is ONE else a * b
                    acc[c] = acc[c] + b if c in acc else b
            rows.append({c: e for c, e in acc.items() if e})
        return VMorphism._from_rows(other.dom, self.cod, rows)

    __mul__ = compose

    def __add__(self, other):
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("sum shape mismatch")
        rows = []
        for r1, r2 in zip(self.rows, other.rows):
            if not r1 or not r2:
                rows.append(r1 or r2)
                continue
            acc = dict(r1)
            for c, b in r2.items():
                acc[c] = acc[c] + b if c in acc else b
            rows.append({c: e for c, e in acc.items() if e})
        return VMorphism._from_rows(self.dom, self.cod, rows)

    def scale(self, s):
        s = _fraction(s)
        if s is ONE:
            return self
        if not s:
            return VMorphism.zero(self.dom, self.cod)
        return VMorphism._from_rows(
            self.dom, self.cod,
            [{c: s if e is ONE else s * e for c, e in row.items()}
             for row in self.rows])

    def is_zero(self):
        return not any(self.rows)

    def is_permutation(self):
        """Exactly one 1 in every row and every column, all else 0."""
        if self.dom.dim != self.cod.dim:
            return False
        seen_cols = set()
        for row in self.rows:
            if len(row) != 1:
                return False
            ((c, e),) = row.items()
            if e != 1 or c in seen_cols:
                return False
            seen_cols.add(c)
        return True

    @staticmethod
    def identity(obj):
        return VMorphism._from_rows(obj, obj,
                                    [{i: ONE} for i in range(obj.dim)])

    @staticmethod
    def zero(dom, cod):
        return VMorphism._from_rows(dom, cod, [{} for _ in range(cod.dim)])

    @staticmethod
    def from_basis_map(dom, cod, fn):
        """Matrix of the map sending each dom basis label to the cod label
        fn(label), with coefficient 1."""
        rows = [{} for _ in range(cod.dim)]
        for c, (label, _) in enumerate(dom.basis):
            rows[cod.index(fn(label))][c] = ONE
        return VMorphism._from_rows(dom, cod, rows)


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
    m2 = g.dom.dim
    rows = []
    for row1 in f.rows:
        left = [(c1 * m2, a) for c1, a in row1.items()]
        for row2 in g.rows:
            rows.append({base + c2: b if a is ONE else a if b is ONE else a * b
                         for base, a in left for c2, b in row2.items()})
    return VMorphism._from_rows(dom, cod, rows)


def braiding(a, b, q):
    """The braid morphism a tensor b -> b tensor a, q^(grade * grade) swap."""
    dom = tensor_obj(a, b)
    cod = tensor_obj(b, a)
    rows = [None] * cod.dim
    for i, (_, ga) in enumerate(a.basis):
        for j, (_, gb) in enumerate(b.basis):
            power = ga * gb
            rows[j * a.dim + i] = {i * b.dim + j: _fraction(q.q ** power)}
    return VMorphism._from_rows(dom, cod, rows)


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
    every other row; only the pivot row's nonzero columns are touched.
    rows is reduced in place (its rows are replaced, never mutated).
    Returns (pivots, det): the pivot columns in increasing order, and the
    determinant of the leading width x width block, which is ZERO when a
    column has no pivot and means something only when there are width
    rows.
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


def invert(f):
    """Exact inverse, or an empty result with witness = (cod dim, dom dim)
    for a non-square matrix, or witness = rank for a singular square one.

    A monomial matrix (one nonzero in each row, in distinct columns) is
    inverted directly: transposed, with each entry replaced by its
    reciprocal.  Any other square matrix goes through row_reduce on f
    augmented with the identity.
    """
    n = f.dom.dim
    if f.cod.dim != n:
        return InverseResult(None, witness=(f.cod.dim, f.dom.dim))
    transpose = [None] * n
    for r, row in enumerate(f.rows):
        if len(row) != 1:
            break
        ((c, e),) = row.items()
        if transpose[c] is not None:
            break
        transpose[c] = {r: e if e is ONE else _fraction(1 / e)}
    else:
        return InverseResult(VMorphism._from_rows(f.cod, f.dom, transpose))
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
