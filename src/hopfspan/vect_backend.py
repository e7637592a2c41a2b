"""Graded rational vector spaces: the braided monoidal label category.

Objects are finite ordered bases whose labels are words (flat tuples of
atoms) carrying integer grades.  Tensor concatenates words and adds grades,
so the tensor is strictly associative and the one-dimensional empty-word
object K is a strict unit.

Equal values are shared and the kernel is memoized on operand identity
(finset_span._kept), so its work grows with the number of distinct
matrices, not with the places they appear.  VObject construction is
hash-consed through a weak table keyed by the normalized basis, so equal
objects are one object and compare by identity; the table keeps nothing
alive.  An identity on either side of compose, or the identity on K on
either side of tensor_mor, gives back the other operand, and the tensor
of two identities is the identity on their tensor.  Morphisms built
apart compare by exact Fraction equality.

A morphism is a matrix of exact rationals (fractions.Fraction), rows
indexed by the codomain basis, stored as the nonzero entries of each row:
a dict column -> Fraction.  Composition, tensor, sum and scaling touch
only nonzeros; they never re-wrap a Fraction and never multiply by 1.
The dense matrix stays available as the read-only tuple-of-tuples view
entries, and indexing, equality and hashing agree with it.

The braiding depends on a nonzero rational parameter q and sends the basis
pair (a_i, b_j) to q^(grade(a_i) * grade(b_j)) times the swapped pair.
q = 1 is the symmetric ungraded case, q = -1 the super case, any other q a
genuinely non-symmetric braiding.

All exact linear algebra goes through one elimination routine,
row_reduce, on the sparse rows themselves, so a monomial matrix costs only
its nonzeros.  invert runs it once per matrix and keeps the result,
determinant included, on the morphism, where determinant reads it.
invert reports the rank of a singular square matrix and (cod dim, dom
dim) of a non-square one; determinant refuses a non-square one; the
antipode solver in hopf_structures reports ("underdetermined", first
pivot-free column) or ("inconsistent", row).  Each reported value is
unique, so it does not depend on the pivoting order.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction

from .finset_span import _kept, _owns_no_memo

ZERO = Fraction(0)
ONE = Fraction(1)

# The live VObjects, keyed by normalized basis.
_OBJECTS = weakref.WeakValueDictionary()


def _as_word(label):
    if isinstance(label, tuple):
        return label
    return (label,)


def _fraction(value):
    """value as a Fraction; a value equal to 1 becomes ONE itself, which the
    kernel recognises by identity to skip multiplying by it."""
    value = value if type(value) is Fraction else Fraction(value)
    return ONE if value == 1 else value


class VObject:
    """An ordered graded basis; each entry is (word label, integer grade).

    Hash-consed: while a VObject with a given basis lives, constructing
    that basis again returns it.  Equality is therefore identity (the
    inherited object equality); the hash is the basis hash."""

    __slots__ = ("basis", "_index", "_hash", "_memo", "_identity",
                 "__weakref__")

    def __new__(cls, basis):
        basis = tuple((_as_word(label), int(grade)) for label, grade in basis)
        self = _OBJECTS.get(basis)
        if self is not None:
            return self
        index = {label: i for i, (label, _) in enumerate(basis)}
        if len(index) != len(basis):
            raise ValueError("duplicate basis labels")
        self = object.__new__(cls)
        for name, value in (("basis", basis), ("_index", index),
                            ("_hash", hash(basis)), ("_identity", None)):
            object.__setattr__(self, name, value)
        _OBJECTS[basis] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("VObject is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def labels(self):
        return [label for label, _ in self.basis]

    def grades(self):
        return [grade for _, grade in self.basis]

    def index(self, label):
        return self._index[_as_word(label)]

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "VObject(%r)" % (list(self.basis),)

    @staticmethod
    def ungraded(labels):
        return VObject([(label, 0) for label in labels])

    def _tensor(self, other):
        return VObject([(la + lb, ga + gb) for (la, ga) in self.basis
                        for (lb, gb) in other.basis])


_UNIT = _owns_no_memo(VObject([((), 0)]), process_wide=True)


def unit_object():
    """The strict monoidal unit K: one-dimensional, empty word, grade 0."""
    return _UNIT


def tensor_obj(a, b):
    """Concatenate label words and add grades; a-index major order.
    K tensor b is b itself and a tensor K is a."""
    if a is _UNIT:
        return b
    if b is _UNIT:
        return a
    return _kept(VObject._tensor, a, b)


class VMorphism:
    """A matrix dom -> cod over exact rationals.

    rows[r] holds the nonzero entries of codomain row r as a dict
    column -> Fraction.  Rows are never mutated once built, so morphisms
    share them.  The constructor takes dense rows and checks their shape;
    the kernel builds its results through _from_rows, and so does the
    file loader's matrix reader, from rows of nonzeros it has parsed and
    checked itself (no zero stored, every 1 stored as ONE).  _inverse is
    the result of invert.
    """

    __slots__ = ("dom", "cod", "rows", "_memo", "_inverse")

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
        self._set(dom, cod, rows)

    @classmethod
    def _from_rows(cls, dom, cod, rows):
        f = object.__new__(cls)
        f._set(dom, cod, rows)
        return f

    def _set(self, dom, cod, rows):
        for name, value in (("dom", dom), ("cod", cod), ("rows", tuple(rows)),
                            ("_inverse", None)):
            object.__setattr__(self, name, value)

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
        return self is other or (
            isinstance(other, VMorphism) and self.dom is other.dom
            and self.cod is other.cod and self.rows == other.rows)

    def __hash__(self):
        return hash((self.dom, self.cod,
                     tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        return "VMorphism(%d x %d)" % (self.cod.dim, self.dom.dim)

    def compose(self, other):
        """self after other (matrix product).  An identity on either
        side gives the other operand."""
        if other.cod is not self.dom:
            raise ValueError("composition mismatch: %r then %r" % (other, self))
        if self is self.dom._identity:
            return other
        if other is other.dom._identity:
            return self
        return _kept(VMorphism._product, self, other)

    def _product(self, other):
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
        if self.dom is not other.dom or self.cod is not other.cod:
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
        """The identity on obj, built once and kept on obj."""
        f = obj._identity
        if f is None:
            f = _owns_no_memo(VMorphism._from_rows(
                obj, obj, [{i: ONE} for i in range(obj.dim)]))
            object.__setattr__(obj, "_identity", f)
        return f

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
    """Kronecker product, row-major: row r1*n2+r2, column c1*m2+c2.  The
    identity on K on either side gives the other operand, and the product
    of two identities is the identity on the tensor of their objects."""
    k = _UNIT._identity
    if f is k:
        return g
    if g is k:
        return f
    if f is f.dom._identity and g is g.dom._identity:
        return VMorphism.identity(tensor_obj(f.dom, g.dom))
    return _kept(_kronecker, f, g)


def _kronecker(f, g):
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


def grouplike(obj):
    """The comonoid (delta, eps) on obj whose basis vectors are grouplike:
    delta sends each one to its tensor square, eps is the sum of the
    coordinates."""
    return (VMorphism.from_basis_map(obj, tensor_obj(obj, obj),
                                     lambda w: w + w),
            VMorphism.from_basis_map(obj, _UNIT, lambda w: ()))


@dataclass(frozen=True)
class InverseResult:
    """Either the exact inverse, or a witness for why there is none; det is
    the determinant of a square matrix."""

    inverse: VMorphism | None
    witness: object = None
    det: Fraction | None = None

    def __bool__(self):
        return self.inverse is not None


def row_reduce(rows, width):
    """Gauss-Jordan elimination on the leading width columns of rows, a
    list of sparse rows (dict column -> nonzero Fraction); any further
    columns are the augmented part.

    Column by column, the first row at or below the current rank that
    holds the column is swapped up, scaled to a leading one and cleared
    from every other row holding it, found through an index of the rows
    holding each column.  rows is reduced in place (its rows are replaced,
    never mutated).  Returns (pivots, det): the pivot columns in
    increasing order, and the determinant of the leading width x width
    block (ZERO when a column has no pivot; meaningful for width rows).
    """
    holding = {}
    for r, row in enumerate(rows):
        for c in row:
            holding.setdefault(c, set()).add(r)
    pivots = []
    det = ONE
    for col in range(width):
        rank = len(pivots)
        pivot = min((r for r in holding.get(col, ()) if r >= rank),
                    default=None)
        if pivot is None:
            det = ZERO
            continue
        if pivot != rank:
            # A column held by just one of the two rows changes holder.
            for c in rows[rank].keys() ^ rows[pivot].keys():
                holding[c] ^= {rank, pivot}
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        lead = rows[rank][col]
        if lead != 1:
            det *= lead
            rows[rank] = {c: e / lead for c, e in rows[rank].items()}
        support = rows[rank].items()
        for r in [r for r in holding[col] if r != rank]:
            row = rows[r] = dict(rows[r])
            factor = row[col]
            for c, p in support:
                e = row.pop(c, ZERO) - factor * p
                if e:
                    row[c] = e
                    holding[c].add(r)
                else:
                    holding[c].discard(r)
        pivots.append(col)
    return pivots, det


def invert(f):
    """Exact inverse, or an empty result with witness = (cod dim, dom dim)
    for a non-square matrix, or witness = rank for a singular square one.

    The shared identity is returned as its own inverse, which the
    identity shortcuts of compose and tensor_mor recognise.  Any other
    square matrix goes through row_reduce on its rows augmented with the
    identity, once: the result, determinant included, is kept on f.
    """
    if f is f.dom._identity:
        return InverseResult(f, det=ONE)
    if f._inverse is None:
        object.__setattr__(f, "_inverse", _invert(f))
    return f._inverse


def _invert(f):
    n = f.dom.dim
    if f.cod.dim != n:
        return InverseResult(None, witness=(f.cod.dim, f.dom.dim))
    rows = [{**row, n + r: ONE} for r, row in enumerate(f.rows)]
    pivots, det = row_reduce(rows, n)
    if len(pivots) < n:
        return InverseResult(None, witness=len(pivots), det=det)
    return InverseResult(
        VMorphism._from_rows(f.cod, f.dom, [
            {c - n: _fraction(e) for c, e in row.items() if c >= n}
            for row in rows]), det=det)


def determinant(f):
    """Exact determinant of a square morphism, read off its inversion."""
    if f.cod.dim != f.dom.dim:
        raise ValueError("determinant of a non-square morphism")
    return invert(f).det


def first_diff(f, g):
    """The first (row, column), in row-major order, where f and g differ;
    "boundary" when their domains or codomains differ, None when equal."""
    if f.dom is not g.dom or f.cod is not g.cod:
        return "boundary"
    for r, (a, b) in enumerate(zip(f.rows, g.rows)):
        if a != b:
            return r, min(c for c in a.keys() | b.keys()
                          if a.get(c, ZERO) != b.get(c, ZERO))
    return None
