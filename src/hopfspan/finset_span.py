"""Finite sets, finite functions, spans and span morphisms.

A span here points from ``src`` to ``tgt`` and is written tgt <-left- apex
-right-> src, so spans compose like functions: compose_spans(b, a) needs
b.src == a.tgt.  Composition is by pullback, with the apex enumerated in
lexicographic order of constituent indices.  That fixed order is what makes
every construction downstream deterministic and lets 2-cell equality be
decided by plain list comparison.

Apex elements of composites and products are pairs, so atoms are strings,
integers, or (nested) tuples of atoms.

Public constructors check their data.  Operations that compose values
already checked build their result through _trusted instead, which sets
the fields without the checks; each still checks the boundary it
composes across, once.  _trusted is the only way to a value without
its checks: it calls a builder made for each class on first use, which
stores the fields straight into the new value.  A builder is made from
a template written below, one for each number of fields, with no source
compiled.
"""

from dataclasses import dataclass, field
from types import FunctionType, MappingProxyType


class SpanError(ValueError):
    """Raised on boundary mismatches and malformed span data."""


_BUILDERS = {}


def _trusted(cls, *values):
    """cls(*values) without the constructor's checks, for a value composed
    of parts that were checked already.  Replacing it by the constructor
    must change nothing but the time taken.  It calls cls's builder,
    made on first use, which takes exactly one value per field, in
    field order, and raises TypeError on any other number."""
    build = _BUILDERS.get(cls)
    if build is None:
        build = _BUILDERS[cls] = _builder(cls)
    return build(*values)


def _builder(cls):
    """A function of cls's fields, in order, named after cls, that makes
    a cls and stores each field by name straight into its __dict__, as
    a def written for cls would, raising that def's TypeError on any
    other number of values: the template for their number (KeyError if
    none), its parameters and keys renamed, with cls and object.__new__
    as globals.  No source is compiled.  The fields are read as those
    __init__ takes by position (__match_args__, cheaper than fields()),
    which are all of them for each class built through _trusted."""
    names = cls.__match_args__
    template = _TEMPLATES[len(names)].__code__
    # The parameters come first among the locals, and the keys, used in
    # order, lie together among the constants.
    consts, keys = template.co_consts, template.co_consts.index("f0")
    build = FunctionType(template.replace(
        co_name=cls.__name__,
        co_varnames=names + template.co_varnames[len(names):],
        co_consts=consts[:keys] + names + consts[keys + len(names):]),
        {"new": object.__new__, "cls": cls})
    build.__qualname__ = cls.__name__  # named in TypeErrors from 3.11 on
    return build


# The builders' templates, one for each number of fields of a class built
# through _trusted; keys are constants, as a global costs each call a read.
def _fields1(f0):
    attrs = (value := new(cls)).__dict__
    attrs["f0"] = f0
    return value


def _fields3(f0, f1, f2):
    attrs = (value := new(cls)).__dict__
    attrs["f0"] = f0
    attrs["f1"] = f1
    attrs["f2"] = f2
    return value


def _fields4(f0, f1, f2, f3):
    attrs = (value := new(cls)).__dict__
    attrs["f0"] = f0
    attrs["f1"] = f1
    attrs["f2"] = f2
    attrs["f3"] = f3
    return value


def _fields5(f0, f1, f2, f3, f4):
    attrs = (value := new(cls)).__dict__
    attrs["f0"] = f0
    attrs["f1"] = f1
    attrs["f2"] = f2
    attrs["f3"] = f3
    attrs["f4"] = f4
    return value


def _fields6(f0, f1, f2, f3, f4, f5):
    attrs = (value := new(cls)).__dict__
    attrs["f0"] = f0
    attrs["f1"] = f1
    attrs["f2"] = f2
    attrs["f3"] = f3
    attrs["f4"] = f4
    attrs["f5"] = f5
    return value


_TEMPLATES = {1: _fields1, 3: _fields3, 4: _fields4, 5: _fields5,
              6: _fields6}


# The memos of the values that own none (see _kept), and that of the
# values built of process-wide values alone, which live as long as those.
_NO_MEMO = MappingProxyType({})
_PROCESS_WIDE = MappingProxyType({})
_PROCESS_WIDE_MEMO = {}


def _kept(build, first, second, *more, made=None):
    """build(*operands), built once per tuple of operands: the one
    keep-rule of the package.  Given made, a value known to equal it,
    that is kept instead, unless a result is kept already.  The result
    is kept in the memo of the first operand that may own one (its
    _memo, a dict set on first use), under build and the other operands'
    ids (all the operands' ids when the owner is not the first), holding
    the other operands, so that no id is reused while it lives.  An
    identity owns no memo, nor does a value that lives as long as the
    process (cat_backend.TERMINAL, vect_backend._UNIT), where a memo
    would keep every operand it met alive: _owns_no_memo marks them; nor
    does an atom, which takes no attribute.  What is built of
    process-wide values and atoms alone is process-wide too, kept in
    _PROCESS_WIDE_MEMO under build and all the ids; with no owner
    otherwise, the result is built at every call."""
    # The first operand's memo comes first, with no tuple built when
    # there are two operands, as there are at most sites; when the first
    # owns none (an identity), the hit on the second's comes next.  A
    # getattr with a default raises nothing for a fresh operand.
    mine = getattr(first, "_memo", None)
    if mine is None and not isinstance(first, (str, int, tuple)):
        object.__setattr__(first, "_memo", mine := {})
    rest = (id(second), *map(id, more)) if more else id(second)
    if type(mine) is dict:
        kept = mine.get(build)
        if kept is None:
            kept = mine[build] = {}
        else:
            hit = kept.get(rest)
            if hit is not None:
                return hit[1]
        held = (second,) if not more and second is not first else tuple(
            operand for operand in (second, *more) if operand is not first)
        hit = kept[rest] = (held, build(first, second, *more)
                            if made is None else made)
        return hit[1]
    if not more and type(theirs := getattr(second, "_memo", None)) is dict:
        kept = theirs.get(build)
        if kept is not None:
            hit = kept.get((id(first), rest))
            if hit is not None:
                return hit[1]
    operands = (first, second, *more)
    for owner in operands[1:]:
        memo = getattr(owner, "_memo", None)
        if memo is None:
            try:
                object.__setattr__(owner, "_memo", memo := {})
            except AttributeError:
                if not isinstance(owner, (str, int, tuple)):
                    raise
                continue
        if type(memo) is dict:
            memo, key = memo.setdefault(build, {}), tuple(map(id, operands))
            break
    else:
        if any(getattr(operand, "_memo", _PROCESS_WIDE)
               is not _PROCESS_WIDE for operand in operands):
            return build(*operands) if made is None else made
        memo, owner = _PROCESS_WIDE_MEMO, None
        key = (build, *map(id, operands))
    hit = memo.get(key)
    if hit is None:
        held = tuple(operand for operand in operands if operand is not owner)
        hit = memo[key] = (held, build(*operands) if made is None else made)
        if owner is None:
            _owns_no_memo(hit[1], process_wide=True)
    return hit[1]


def _owns_no_memo(value, process_wide=False):
    """value, an identity or a value that lives as long as the process,
    marked as owning no memo (see _kept)."""
    object.__setattr__(value, "_memo",
                       _PROCESS_WIDE if process_wide else _NO_MEMO)
    return value


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of atoms.  A set built through _trusted,
    from atoms distinct by construction, indexes them on first use."""

    elements: tuple

    def __init__(self, elements):
        elements = tuple(elements)
        index = {a: i for i, a in enumerate(elements)}
        if len(index) != len(elements):
            raise SpanError("duplicate atom %r" % (next(
                a for i, a in enumerate(elements) if elements.index(a) != i),))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)

    # A set built through _trusted has no index until positions() builds
    # it.  Not a cached_property, which takes a lock on first use, nor a
    # __getattr__, which slows every attribute read of every set.
    _index = None

    def positions(self):
        """Each atom's index, built on first use."""
        index = self._index
        if index is None:
            index = self.__dict__["_index"] = {
                a: i for i, a in enumerate(self.elements)}
        return index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, atom):
        return atom in (self._index or self.positions())

    def index(self, atom):
        return self.positions()[atom]

    def __repr__(self):
        return "FinSet(%r)" % (list(self.elements),)

    def __eq__(self, other):
        return self is other or (isinstance(other, FinSet)
                                 and self.elements == other.elements)

    def __hash__(self):
        return hash(self.elements)

    @staticmethod
    def singleton(atom="*"):
        return FinSet((atom,))

    @staticmethod
    def product(x, y):
        """Cartesian product, lexicographic in (index in x, index in y)."""
        return _trusted(FinSet, tuple([(a, b) for a in x.elements
                                       for b in y.elements]))


class _Pairs(FinSet):
    """FinSet.product(x, y), listed when its elements are first read
    (the one attribute lookup that misses); membership is read from x
    and y.  A product category's morphisms are one."""

    def __init__(self, x, y):
        self.__dict__["factors"] = (x, y)

    def __getattr__(self, name):
        if name != "elements":
            raise AttributeError(name)
        self.__dict__[name] = FinSet.product(*self.factors).elements
        return self.__dict__[name]

    def __len__(self):
        x, y = self.factors
        return len(x) * len(y)

    def __contains__(self, atom):
        x, y = self.factors
        return type(atom) is tuple and len(atom) == 2 \
            and atom[0] in x and atom[1] in y


@dataclass(frozen=True)
class FinFn:
    """A total function between finite sets, stored as an assignment dict."""

    domain: FinSet
    codomain: FinSet
    assignment: dict = field(compare=False)

    def __post_init__(self):
        assignment, index = self.assignment, self.codomain.positions()
        for a in self.domain.elements:
            if a not in assignment:
                raise SpanError("no value assigned to %r" % (a,))
            if assignment[a] not in index:
                raise SpanError(
                    "value %r of %r not in codomain %r"
                    % (assignment[a], a, self.codomain)
                )

    def __call__(self, atom):
        return self.assignment[atom]

    def __eq__(self, other):
        if self is other or not isinstance(other, FinFn):
            return self is other
        mine, theirs = self.assignment, other.assignment
        return self.domain == other.domain and self.codomain == other.codomain \
            and (mine == theirs if len(mine) == len(theirs) == len(self.domain)
                 else all(mine[a] == theirs[a] for a in self.domain))

    def __hash__(self):
        return hash((self.domain, self.codomain,
                     tuple(self.assignment[a] for a in self.domain)))

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise SpanError(
                "cannot compose: codomain %r != domain %r"
                % (other.codomain, self.domain)
            )
        mine, theirs = self.assignment, other.assignment
        return _trusted(FinFn, other.domain, self.codomain,
                        {a: mine[theirs[a]] for a in other.domain.elements})

    @staticmethod
    def identity(x):
        return _trusted(FinFn, x, x, {a: a for a in x.elements})

    @staticmethod
    def tabulate(domain, codomain, fn):
        """a -> fn(a) for each atom a of domain, which so has a value at
        every atom: each distinct value (by identity) is looked up in
        codomain once, where the constructor looks up each atom's."""
        atoms = domain.elements
        assignment = dict(zip(atoms, map(fn, atoms)))
        if not all(map(codomain.positions().__contains__,
                       {id(v): v for v in assignment.values()}.values())):
            return FinFn(domain, codomain, assignment)  # raises its error
        return _trusted(FinFn, domain, codomain, assignment)

    @staticmethod
    def constant(domain, codomain, value):
        return FinFn(domain, codomain, {a: value for a in domain})

    def image(self):
        return {self.assignment[a] for a in self.domain}

    def is_injective(self):
        return len(self.image()) == len(self.domain)

    def is_surjective(self):
        return len(self.image()) == len(self.codomain)

    def is_bijection(self):
        return self.is_injective() and self.is_surjective()

    def inverse(self):
        if not self.is_bijection():
            raise SpanError("function is not a bijection")
        return FinFn(self.codomain, self.domain,
                     {self(a): a for a in self.domain})


@dataclass(frozen=True)
class Span:
    """tgt <-left- apex -right-> src, a 1-cell skeleton from src to tgt."""

    src: FinSet
    tgt: FinSet
    apex: FinSet
    left: FinFn
    right: FinFn

    def __post_init__(self):
        if self.left.domain != self.apex or self.right.domain != self.apex:
            raise SpanError("span legs must share the apex as domain")
        if self.left.codomain != self.tgt:
            raise SpanError("left leg must land in tgt")
        if self.right.codomain != self.src:
            raise SpanError("right leg must land in src")

    def __eq__(self, other):
        return self is other or (isinstance(other, Span) and (
            self.src, self.tgt, self.apex, self.left, self.right) == (
            other.src, other.tgt, other.apex, other.left, other.right))

    @staticmethod
    def identity(x):
        i = FinFn.identity(x)
        return _trusted(Span, x, x, x, i, i)

    @staticmethod
    def complete(x, y=None):
        """The span y <- y*x -> x with projection legs; all pairs matched."""
        if y is None:
            y = x
        apex = FinSet.product(y, x)
        left = FinFn(apex, y, {(b, a): b for (b, a) in apex})
        right = FinFn(apex, x, {(b, a): a for (b, a) in apex})
        return Span(x, y, apex, left, right)

    def reverse(self):
        return Span(self.tgt, self.src, self.apex, self.right, self.left)


@dataclass(frozen=True)
class SpanMorphism:
    """A map of spans: apex map commuting with both legs."""

    source: Span
    target: Span
    map: FinFn

    def __post_init__(self):
        s, t, m = self.source, self.target, self.map
        if m.domain != s.apex or m.codomain != t.apex:
            raise SpanError("morphism map must go apex to apex")
        if s.src != t.src or s.tgt != t.tgt:
            raise SpanError("span morphism endpoints must agree")
        image = m.assignment
        s_left, s_right = s.left.assignment, s.right.assignment
        t_left, t_right = t.left.assignment, t.right.assignment
        for c in s.apex.elements:
            d = image[c]
            if t_left[d] != s_left[c] or t_right[d] != s_right[c]:
                raise SpanError("legs do not commute at %r" % (c,))

    @staticmethod
    def identity(span):
        return _trusted(SpanMorphism, span, span, FinFn.identity(span.apex))

    def then(self, other):
        """other after self (vertical composition of span maps)."""
        if other.source != self.target:
            raise SpanError("span morphisms not composable")
        return _trusted(SpanMorphism, self.source, other.target,
                        other.map.compose(self.map))

    def is_iso(self):
        return self.map.is_bijection()

    def inverse(self):
        return SpanMorphism(self.target, self.source, self.map.inverse())


def _in_order(pairs, x, y):
    """The set of the distinct pairs of atoms of x and y among pairs,
    lexicographic in (index in x, index in y)."""
    xi, yi = x.positions(), y.positions()
    return _trusted(FinSet, tuple(sorted(set(pairs), key=lambda p: (
        xi[p[0]], yi[p[1]]))))


def compose_spans(b, a, pairs=None):
    """Pullback composite b after a; needs b.src == a.tgt.

    The apex is the set of pairs (d, c) with b.right(d) == a.left(c),
    enumerated lexicographically in (index of d, index of c): a.apex is
    bucketed by a.left in apex order, and each d takes its bucket.  Given
    pairs (some matched pairs, in any order, repeats allowed), the apex
    is just those, ordered as in the full pullback: the sub-span they
    make up, built without the rest of it.
    """
    if b.src != a.tgt:
        raise SpanError(
            "span boundary mismatch: b.src = %r but a.tgt = %r" % (b.src, a.tgt)
        )
    a_left, b_right = a.left.assignment, b.right.assignment
    if pairs is None:
        over = {}
        for c in a.apex.elements:
            over.setdefault(a_left[c], []).append(c)
        apex = _trusted(FinSet, tuple([(d, c) for d in b.apex.elements
                                       for c in over.get(b_right[d], ())]))
    else:
        apex = _in_order(pairs, b.apex, a.apex)
        for (d, c) in apex.elements:
            if b_right[d] != a_left[c]:
                raise SpanError("%r is not a matched pair" % ((d, c),))
    b_left, a_right = b.left.assignment, a.right.assignment
    atoms = apex.elements
    left = _trusted(FinFn, apex, b.tgt, {x: b_left[x[0]] for x in atoms})
    right = _trusted(FinFn, apex, a.src, {x: a_right[x[1]] for x in atoms})
    return _trusted(Span, a.src, b.tgt, apex, left, right)


def compose_span_morphisms_h(g, f, source=None, via=None, target=None):
    """Horizontal composite of span morphisms: (d, c) -> (g(d), f(c)).
    Given source, a sub-span of the composite of their sources built
    already, it runs from that into the sub-span on the images of its
    pairs (see compose_spans), or into target, a sub-span of the
    composite of their targets built already that holds those images;
    given also via, source is that composite bracketed otherwise, each
    atom read as its pair (d, c) through via.  Neither is checked but by
    the constructors in checking mode: the map's values lie in target,
    and each atom's legs are its pair's."""
    whole = source is None
    if whole:
        source = compose_spans(g.source, f.source)
    gm, fm, atoms = g.map.assignment, f.map.assignment, source.apex.elements
    assignment = {x: (gm[d], fm[c]) for x, (d, c) in zip(
        atoms, atoms if via is None else map(via, atoms))}
    if target is None:
        target = compose_spans(g.target, f.target,
                               None if whole else assignment.values())
    return _trusted(SpanMorphism, source, target,
                    _trusted(FinFn, source.apex, target.apex, assignment))


def convolution_span(b, a):
    """The span of the pairs (c, h) of atoms of parallel spans b and a
    with equal legs: ordered by c's left leg in tgt order, then c, then
    h, in apex order, as the pullback of the diagonals around b . a."""
    (bl, br), over, by_left = (b.left.assignment, b.right.assignment), {}, {}
    for h in a.apex.elements:
        over.setdefault((a.left.assignment[h], a.right.assignment[h]),
                        []).append(h)
    for c in b.apex.elements:
        by_left.setdefault(bl[c], []).append(c)
    apex = _trusted(FinSet, tuple([(c, h) for x in b.tgt.elements for c in
                                   by_left.get(x, ())
                                   for h in over.get((x, br[c]), ())]))
    return _trusted(Span, b.src, b.tgt, apex, *[_trusted(
        FinFn, apex, end, {p: leg[p[0]] for p in apex.elements})
        for end, leg in ((b.tgt, bl), (b.src, br))])


def cartesian_product(a, b, pairs=None, src=None, tgt=None):
    """Componentwise product span; apex pairs lexicographic in (a, b).
    Given pairs, the apex is just those (see compose_spans).  src and
    tgt, when given, are the products of its endpoints, built already."""
    apex = FinSet.product(a.apex, b.apex) if pairs is None else \
        _in_order(pairs, a.apex, b.apex)
    if src is None:
        src, tgt = FinSet.product(a.src, b.src), FinSet.product(a.tgt, b.tgt)
    a_left, b_left = a.left.assignment, b.left.assignment
    a_right, b_right = a.right.assignment, b.right.assignment
    atoms = apex.elements
    left = _trusted(FinFn, apex, tgt,
                    {(c, d): (a_left[c], b_left[d]) for (c, d) in atoms})
    right = _trusted(FinFn, apex, src,
                     {(c, d): (a_right[c], b_right[d]) for (c, d) in atoms})
    return _trusted(Span, src, tgt, apex, left, right)


@dataclass(frozen=True)
class RightAdjointResult:
    """Either the adjoint data, or a witness that the right leg fails."""

    adjoint: Span | None
    unit: SpanMorphism | None
    counit: SpanMorphism | None
    witness: object = None

    def __bool__(self):
        return self.adjoint is not None


def right_adjoint_of(a):
    """Right adjoint of a span, which exists iff its right leg is a bijection.

    Such a span is isomorphic to the graph of the function h = left o right^-1
    and its adjoint is the reversed span.  The unit embeds the identity span
    into adjoint . a and the counit collapses a . adjoint onto the identity.
    When the right leg is not bijective the result carries a witness: either
    a src element missed by the leg, or a pair of apex elements it merges.
    """
    r = a.right
    if not r.is_surjective():
        missed = next(x for x in a.src if x not in r.image())
        return RightAdjointResult(None, None, None, witness=missed)
    if not r.is_injective():
        hit = {}
        for c in a.apex:
            if r(c) in hit:
                return RightAdjointResult(None, None, None,
                                          witness=(hit[r(c)], c))
            hit[r(c)] = c
    adjoint = a.reverse()
    # unit: identity(a.src) -> adjoint . a, x -> (c, c) with right(c) = x
    comp_ua = compose_spans(adjoint, a)
    rinv = r.inverse()
    unit_map = FinFn(a.src, comp_ua.apex, {x: (rinv(x), rinv(x)) for x in a.src})
    unit = SpanMorphism(Span.identity(a.src), comp_ua, unit_map)
    # counit: a . adjoint -> identity(a.tgt), (c, c) -> left(c)
    comp_au = compose_spans(a, adjoint)
    counit_map = FinFn(comp_au.apex, a.tgt,
                       {(c, d): a.left(c) for (c, d) in comp_au.apex})
    counit = SpanMorphism(comp_au, Span.identity(a.tgt), counit_map)
    return RightAdjointResult(adjoint, unit, counit)

