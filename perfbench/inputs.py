"""Seeded inputs for the benchmark, with answers fixed by construction.

This module imports nothing from hopfspan.  It writes presentation files
in the documented JSON format (``tests/data/*.json`` are the templates)
and describes every item together with the verdict it must produce.  The
seed renames atoms, permutes declaration order and picks which of the
listed braiding parameters lands in which slot; it never changes a size,
so the cost of a workload does not depend on the seed.

Expected answers and where they come from:

* group algebras and constant-unit groups pass every check, and their
  antipode is the inversion map on the basis;
* a graded Z_2 with q != 1 fails exactly "multiplication respects
  comultiplication" (pinned in ``test_graded_braiding_breaks_the_bimonoid_
  square``); hopf, antipode and duoidal are then skipped.  Frobenius
  still passes because it only sees the carrier, whose unit labels have
  degree 0, so q never enters;
* non-group shapes fail "fusion invertible" (a monoid with a non-invertible
  element has a fusion span map that is not surjective);
* a Hopf check reports one fusion determinant per composable pair of the
  shape on each side, all nonzero;
* polyad module counts: over the indiscrete fiber of Z_n every hom set is
  a singleton, so a module of the translation polyad is just the choice
  of one fiber object (n modules) and every ordered pair of modules has
  exactly one morphism (n * n morphisms).  For Z_2 this is the (2, 4) of
  ``EXPECTED_COUNTS`` in ``tests/test_acceptance.py``, whose Z_2
  representation count (4, 16) is used as is.
"""

import json
import random
import string
from fractions import Fraction
from itertools import permutations

WORKLOADS = ("group-algebra", "wide-shape", "polyad")

ALL_CHECKS = ("monad", "opmonoidal", "hopf", "antipode", "duoidal",
              "frobenius")
BIMONOID_LAW = "multiplication respects comultiplication"


# ---------------------------------------------------------------------------
# Monoids as (elements, table, unit) with elements given as indices.


def cyclic(n):
    return list(range(n)), {(i, j): (i + j) % n
                            for i in range(n) for j in range(n)}, 0


def symmetric3():
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = {(i, j): index[tuple(perms[i][perms[j][k]] for k in range(3))]
             for i in range(6) for j in range(6)}
    return list(range(6)), table, index[(0, 1, 2)]


def max_monoid(n):
    return list(range(n)), {(i, j): max(i, j)
                            for i in range(n) for j in range(n)}, 0


def idempotent():
    return [0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, 0


def inverses(elements, table, unit):
    return {a: next(b for b in elements if table[(a, b)] == unit)
            for a in elements}


# ---------------------------------------------------------------------------
# Seeded naming.


class Namer:
    """Hands out distinct four-letter atoms, so that names never change
    a file's size."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def atom(self):
        while True:
            name = "".join(self.rng.choice(string.ascii_lowercase)
                           for _ in range(4))
            if name not in self.used:
                self.used.add(name)
                return name

    def atoms(self, count):
        return [self.atom() for _ in range(count)]

    def shuffled(self, values):
        values = list(values)
        self.rng.shuffle(values)
        return values


def _matrix(rows):
    return [[str(Fraction(v)) for v in row] for row in rows]


def basis_map(dom, cod, fn):
    """Matrix, as fraction strings, of the map sending the dom basis word
    at each index to the cod word fn(word), with coefficient 1."""
    rows = [[0] * len(dom) for _ in cod]
    where = {word: i for i, word in enumerate(cod)}
    for c, word in enumerate(dom):
        rows[where[fn(word)]][c] = 1
    return _matrix(rows)


def _tensor(a, b):
    return [x + y for x in a for y in b]


def _words(label):
    return [(atom,) for atom, _ in label]


def _nested(keys_levels, leaf, namer):
    """A nested object whose keys at each level are inserted in a seeded
    order; leaf receives the key path."""
    def build(prefix, levels):
        if not levels:
            return leaf(*prefix)
        return {k: build(prefix + (k,), levels[1:])
                for k in namer.shuffled(levels[0])}
    return build((), list(keys_levels))


def group_doc(namer, monoid, basis, q=None, antipode=True):
    """A group_monoid document.  basis is "algebra" (every element
    carries the monoid algebra, graded or not) or "unit" (every element
    carries a one-dimensional label of degree 0)."""
    idx, table, unit = monoid
    names = namer.atoms(len(idx))
    name = dict(zip(idx, names))
    mul = {(name[a], name[b]): name[table[(a, b)]] for a in idx for b in idx}
    order = namer.shuffled(names)
    if basis == "unit":
        label = [[namer.atom(), 0]]
        one = [["1"]]
        labels = {a: label for a in order}
        mu = _nested([order, order], lambda a, b: one, namer)
        eta = one
        sigma = lambda a: one
    else:
        graded = basis == "graded"
        grade = {name[a]: (a if graded else 0) for a in idx}
        label = [[a, grade[a]] for a in order]
        words = _words(label)
        mult = basis_map(_tensor(words, words), words,
                         lambda w: (mul[(w[0], w[1])],))
        labels = {a: label for a in order}
        mu = _nested([order, order], lambda a, b: mult, namer)
        eta = basis_map([()], words, lambda w: (name[unit],))
        inv = inverses(idx, table, unit) if antipode else None
        sig = basis_map(words, words,
                        lambda w: (name[inv[names.index(w[0])]],)) \
            if antipode else None
        sigma = lambda a: sig
    doc = {"format_version": 1, "kind": "group_monoid", "backend": "vect",
           "elements": order, "unit": name[unit],
           "table": _nested([order, order], lambda a, b: mul[(a, b)],
                            namer),
           "labels": labels, "mu": mu, "eta": eta, "grouplike": True}
    if q is not None:
        doc["q"] = q
    if antipode:
        doc["antipode"] = {a: sigma(a) for a in namer.shuffled(order)}
    return _shuffle_keys(doc, namer)


def enriched_doc(namer, n_objects, group=None):
    """An enriched_category document over n objects.  Without a group
    every hom is one-dimensional (the indiscrete enriched category);
    with one, hom(x, y) is spanned by the group, as in the torsor
    groupoid I_n x G."""
    objects = namer.atoms(n_objects)
    if group is None:
        atom = namer.atom()
        hom_basis = [[atom, 0]]
        mult = [["1"]]
        eta = [["1"]]
        sigma = [["1"]]
    else:
        idx, table, unit = group
        names = namer.atoms(len(idx))
        name = dict(zip(idx, names))
        pos = {v: k for k, v in name.items()}
        hom_basis = [[a, 0] for a in namer.shuffled(names)]
        words = _words(hom_basis)
        mult = basis_map(_tensor(words, words), words,
                         lambda w: (name[table[(pos[w[0]], pos[w[1]])]],))
        eta = basis_map([()], words, lambda w: (name[unit],))
        inv = inverses(idx, table, unit)
        sigma = basis_map(words, words, lambda w: (name[inv[pos[w[0]]]],))
    order = namer.shuffled(objects)
    doc = {"format_version": 1, "kind": "enriched_category",
           "backend": "vect", "objects": order,
           "hom": _nested([order, order], lambda x, y: hom_basis, namer),
           "mu": _nested([order, order, order], lambda x, y, z: mult, namer),
           "eta": _nested([order], lambda x: eta, namer),
           "grouplike": True,
           "antipode": _nested([order, order], lambda x, y: sigma, namer)}
    return _shuffle_keys(doc, namer)


def probes_doc(namer):
    p, r, s, t = namer.atoms(4)
    return [[[p, 0]], [[r, 1]], [[s, 0], [t, 1]]]


def _shuffle_keys(doc, namer):
    return {k: doc[k] for k in namer.shuffled(doc)}


# ---------------------------------------------------------------------------
# Expected verdicts.


def check_expect(selected, fail=None, law=None, pairs=None):
    """A check run where every selected check passes except fail, which
    fails with exactly the law law; the checks the CLI chains behind it
    are skipped."""
    blocked = {"opmonoidal": ("hopf", "antipode", "duoidal"),
               "hopf": ("antipode", "duoidal")}.get(fail, ())
    status = {}
    for name in selected:
        status[name] = ("fail" if name == fail else
                        "skipped" if name in blocked else "pass")
    expect = {"exit": 1 if fail else 0, "status": status,
              "laws": {fail: [law]} if fail else {}}
    if pairs is not None and status.get("hopf") == "pass":
        expect["fusion_pairs"] = pairs
    return expect


def _sigma_expect(doc):
    if doc["kind"] == "group_monoid":
        return {a: doc["antipode"][a] for a in doc["elements"]}
    return {x: {y: doc["antipode"][x][y] for y in doc["objects"]}
            for x in doc["objects"]}


def _item(items, item_id, op, size, expect, **args):
    items.append({"id": item_id, "op": op, "size": size, "expect": expect,
                  "args": args})


def _cli_check(items, files, item_id, doc, selected, flags=(), **expect):
    fname = item_id + ".json"
    files[fname] = doc
    size = _doc_size(doc)
    _item(items, item_id, "cli-check", size,
          check_expect(selected, **expect), file=fname, flags=list(flags))


def _cli_antipode(items, files, item_id, doc):
    fname = item_id + ".json"
    files[fname] = doc
    _item(items, item_id, "cli-antipode", _doc_size(doc),
          {"exit": 0, "sigma": _sigma_expect(doc)}, file=fname)


def _doc_size(doc):
    if doc["kind"] == "group_monoid":
        dims = sorted(len(v) for v in doc["labels"].values())
        return {"elements": len(doc["elements"]), "label_dims": dims}
    dims = sorted(len(v) for row in doc["hom"].values()
                  for v in row.values())
    return {"objects": len(doc["objects"]), "hom_dims": dims}


def _group_algebra(namer, items, files):
    default = list(ALL_CHECKS)
    no_antipode = ["monad", "opmonoidal", "hopf", "frobenius"]
    _cli_check(items, files, "z2-check", group_doc(namer, cyclic(2),
                                                   "algebra"),
               default, pairs=4)
    for slot, q in enumerate(namer.shuffled(["-1", "2", "1/3"])):
        _cli_check(items, files, "z2-graded-%d" % slot,
                   group_doc(namer, cyclic(2), "graded", q=q), default,
                   fail="opmonoidal", law=BIMONOID_LAW)
    z3 = group_doc(namer, cyclic(3), "algebra")
    _cli_check(items, files, "z3-check", z3,
               ["monad", "hopf", "antipode", "duoidal"],
               flags=["--monad", "--hopf", "--antipode", "--duoidal"],
               pairs=9)
    _cli_antipode(items, files, "z3-antipode", z3)
    torsor = enriched_doc(namer, 2, group=cyclic(2))
    _cli_check(items, files, "torsor-check", torsor, default, pairs=8)
    _cli_antipode(items, files, "torsor-antipode", torsor)
    _cli_check(items, files, "idempotent-check",
               group_doc(namer, idempotent(), "unit", antipode=False),
               no_antipode, fail="hopf", law="fusion invertible")
    files["probes.json"] = probes_doc(namer)
    source = group_doc(namer, cyclic(2), "algebra")
    files["z2-source.json"] = source
    _item(items, "z2-polyad-roundtrip", "cli-roundtrip",
          _doc_size(source), {"exit": 0, "status": {"monad": "pass",
                                                    "hopf": "pass"},
                              "laws": {}},
          file="z2-source.json", probes="probes.json",
          output="z2-polyad.json")


def _wide_shape(namer, items, files):
    default = list(ALL_CHECKS)
    for n in (6, 8):
        _cli_check(items, files, "z%d-unit-check" % n,
                   group_doc(namer, cyclic(n), "unit"), default,
                   pairs=n * n)
    s3 = group_doc(namer, symmetric3(), "unit")
    _cli_check(items, files, "s3-unit-check", s3, default, pairs=36)
    _cli_antipode(items, files, "s3-unit-antipode", s3)
    for n in (4, 5):
        _cli_check(items, files, "indiscrete%d-check" % n,
                   enriched_doc(namer, n), default, pairs=n ** 3)
    _cli_check(items, files, "max6-check",
               group_doc(namer, max_monoid(6), "unit", antipode=False),
               ["monad", "opmonoidal", "hopf", "frobenius"],
               fail="hopf", law="fusion invertible")


def _named_monoid(namer, monoid):
    idx, table, unit = monoid
    names = namer.atoms(len(idx))
    name = dict(zip(idx, names))
    return {"elements": namer.shuffled(names),
            "table": [[name[a], name[b], name[table[(a, b)]]]
                      for a in idx for b in idx],
            "unit": name[unit]}


def _polyad(namer, items, files):
    for n in (2, 3, 4):
        _item(items, "identity-z%d-hopf" % n, "polyad-is-hopf",
              {"elements": n}, {"hopf": True}, fiber="discrete",
              polyad="identity", monoid=_named_monoid(namer, cyclic(n)))
    for n in (2, 3):
        _item(items, "translation-z%d-hopf" % n, "polyad-is-hopf",
              {"elements": n}, {"hopf": True}, fiber="indiscrete",
              polyad="translation", monoid=_named_monoid(namer, cyclic(n)))
    for n in (2, 3, 4):
        _item(items, "translation-z%d-modules" % n, "em-algebras",
              {"elements": n}, {"objects": n, "morphisms": n * n},
              kind="modules", monoid=_named_monoid(namer, cyclic(n)))
    _item(items, "translation-z2-representations", "em-algebras",
          {"elements": 2}, {"objects": 4, "morphisms": 16},
          kind="representations", monoid=_named_monoid(namer, cyclic(2)))
    _item(items, "identity-idempotent-hopf", "polyad-is-hopf",
          {"elements": 2}, {"hopf": False,
                            "witness": "shape not a groupoid"},
          fiber="discrete", polyad="identity",
          monoid=_named_monoid(namer, idempotent()))


_BUILDERS = {"group-algebra": _group_algebra, "wide-shape": _wide_shape,
             "polyad": _polyad}


def generate(workload, seed):
    """Items and files of one workload.  Returns (items, files) where
    files maps a file name to its text; the same seed gives the same
    bytes."""
    namer = Namer(random.Random("%s/%d" % (workload, seed)))
    items, files = [], {}
    _BUILDERS[workload](namer, items, files)
    texts = {name: json.dumps(doc, indent=1) + "\n"
             for name, doc in files.items()}
    return items, texts
