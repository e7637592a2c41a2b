"""Command line front end for checking presentation files.

Presentations live in JSON documents: a finite monoid with graded
labels, an enriched category on finitely many objects, or a pointwise
tensor image of either over declared probe objects.  The ``check``
command runs the selected law checkers in dependency order,
``export-polyad`` re-packages a graded presentation as a pointwise
image and verifies it on the declared probes, and ``antipode`` solves
for the antipode family and prints it in the file's own matrix layout
so it can be spliced back in.

All numbers are exact fractions written as strings, matrices are
row-major, and multiplication tables are nested objects keyed by the
declared atoms.  Unknown fields are rejected so a typo fails loudly
instead of silently dropping structure.

Both graded kinds read every matrix block (mu, eta, delta, eps,
antipode) through two readers.  The block reader, _leaves, checks exact
key coverage level by level and gives each leaf with its JSON path.  The
matrix reader, _matrix, checks the shape and parses each entry once,
straight into the nonzeros of its row; 0 and 1 parse to the kernel's own
vb.ZERO and vb.ONE.  It builds through VMorphism._from_rows, since the
checked constructor would only convert every entry again, and shares
equal matrices: the matrices of one file that are equal are one object,
which the kernel's memos key on, and a repeated block is parsed once.
Machine output (``--format json``) is canonical: keys are sorted and
nothing time- or path-dependent is included, so identical inputs give
byte-identical reports.  The text format adds timing and is meant for
humans.

Exit codes: 0 when every selected check passes, 1 when a check fails,
2 for malformed input.
"""

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import hopf_structures as hs
from . import vect_backend as vb
from .cat_backend import light_associative
from .finset_span import FinSet
from .monoidale_duoidal import check_frobenius
from .spanv_core import SpanVError, VectBackend

FORMAT_VERSION = 1

_CHECK_ORDER = ("monad", "opmonoidal", "hopf", "antipode", "duoidal",
                "frobenius")
_CHAIN_BLOCKERS = {
    "monad": (),
    "opmonoidal": ("monad",),
    "hopf": ("monad", "opmonoidal"),
    "antipode": ("monad", "opmonoidal", "hopf"),
    "duoidal": ("monad", "opmonoidal", "hopf"),
    "frobenius": (),
}
_NEEDS_COMONOID = ("opmonoidal", "hopf", "antipode", "duoidal")
_NEEDS_ANTIPODE = ("antipode", "duoidal")
_POLYAD_CHECKS = ("monad", "hopf")
_MAX_BRAID_BITS = 1 << 16


class InputError(Exception):
    """A malformed document; the message starts with the JSON path."""


def _fail(path, message):
    raise InputError("%s: %s" % (path, message))


def _require_mapping(value, path):
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    return value


def _exact_keys(mapping, expected, path):
    got = set(mapping)
    expected = set(expected)
    missing = sorted(expected - got, key=repr)
    extra = sorted(got - expected, key=repr)
    if missing:
        _fail(path, "missing entry for %r" % (missing[0],))
    if extra:
        _fail(path, "unexpected entry %r" % (extra[0],))


def _check_keys(doc, required, optional, path):
    for key in required:
        if key not in doc:
            _fail(path, "missing required field %r" % key)
    for key in doc:
        if key not in required and key not in optional:
            _fail(path, "unknown field %r" % key)


@functools.lru_cache(maxsize=4096)
def _parse_entry(text):
    """text as a Fraction, the kernel's own vb.ZERO or vb.ONE for 0 and 1;
    TypeError when it is not a string.  A matrix block repeats a few
    strings many times, so each is parsed once.  An exponent is refused:
    "1e2000000000" would build a huge integer."""
    if not isinstance(text, str):
        raise TypeError(text)
    if "e" in text or "E" in text:
        raise ValueError(text)
    value = Fraction(text)
    return vb.ZERO if value == 0 else vb.ONE if value == 1 else value


def _fraction(value, path):
    if not isinstance(value, str):
        _fail(path, "expected a fraction string")
    try:
        return _parse_entry(value)
    except (ValueError, ZeroDivisionError):
        _fail(path, "malformed fraction %r" % value)


def _atom(value, path):
    if not isinstance(value, str) or not value:
        _fail(path, "expected a nonempty atom string")
    return value


def _atom_list(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of atoms")
    for i, entry in enumerate(value):
        _atom(entry, "%s[%d]" % (path, i))
    if len(set(value)) != len(value):
        _fail(path, "duplicate atom")
    return list(value)


def _vobject(value, path):
    """A graded object given as a list of [atom, grade] pairs."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of [atom, grade] pairs")
    basis = []
    seen = set()
    for i, entry in enumerate(value):
        here = "%s[%d]" % (path, i)
        if (not isinstance(entry, list) or len(entry) != 2
                or isinstance(entry[1], bool) or not isinstance(entry[1], int)):
            _fail(here, "expected an [atom, grade] pair")
        name = _atom(entry[0], here)
        if name in seen:
            _fail(here, "duplicate basis atom %r" % name)
        seen.add(name)
        basis.append(((name,), entry[1]))
    return vb.VObject(basis)


def _leaves(doc, root, name, levels):
    """The block reader: doc[name], a mapping nested once per level and
    keyed at each by exactly that level's atoms.  Coverage is checked
    level by level before any leaf is returned; the leaves come as
    (key, value, JSON path) in level order, key being the tuple of atoms
    or, for one level, the atom itself."""
    frontier = [((), doc[name], "%s.%s" % (root, name))]
    for level in levels:
        for _, mapping, where in frontier:
            _require_mapping(mapping, where)
        for _, mapping, where in frontier:
            _exact_keys(mapping, level, where)
        frontier = [(key + (atom,), mapping[atom], "%s.%s" % (where, atom))
                    for key, mapping, where in frontier for atom in level]
    return [(key if len(key) > 1 else key[0], value, where)
            for key, value, where in frontier]


def _matrix(value, dom, cod, path, shared):
    """The matrix reader: rows of fraction strings, shape checked first,
    each entry parsed once straight into its row's nonzeros.  shared maps
    each matrix read in this load to the first one equal to it, and the
    (dom, cod, rows of entry strings) of each block read to its matrix,
    so a repeated block is neither parsed nor hashed by value again."""
    if isinstance(value, list) and all(isinstance(r, list) for r in value):
        key = (dom, cod, tuple(map(tuple, value)))
        with contextlib.suppress(KeyError, TypeError):  # new or unhashable
            return shared[key]
    if not isinstance(value, list) or len(value) != cod.dim:
        _fail(path, "expected a matrix with %d rows" % cod.dim)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dom.dim:
            _fail("%s[%d]" % (path, i),
                  "expected a row with %d entries" % dom.dim)
        try:
            rows.append({c: e for c, e in enumerate(map(_parse_entry, row))
                         if e is not vb.ZERO})
        except (TypeError, ValueError, ZeroDivisionError):
            # Only a rejected row pays for the paths of its entries.
            for j, entry in enumerate(row):
                _fraction(entry, "%s[%d][%d]" % (path, i, j))
    f = vb.VMorphism._from_rows(dom, cod, rows)
    shared[key] = f = shared.setdefault(f, f)  # parsed, so key is set
    return f


def _matrix_block(doc, root, name, levels, shape, shared):
    """Every matrix of the block doc[name], keyed as its leaves are;
    shape(key) gives the (dom, cod) of the one at key."""
    return {key: _matrix(value, *shape(key), where, shared)
            for key, value, where in _leaves(doc, root, name, levels)}


def _load_braiding(doc, path, objects):
    value = _fraction(doc.get("q", "1"), path + ".q")
    if value == 0:
        _fail(path + ".q", "braiding parameter must be nonzero")
    _bound_braiding(value, objects, path + ".q")
    return VectBackend(vb.BraidParam(value))


def _bound_braiding(q, objects, path):
    """Refuse a q other than 1 or -1 when its exact power q^(g * g') for
    the largest grades of objects, which the braiding computes, would
    pass _MAX_BRAID_BITS bits: that alone can exhaust memory."""
    top = max(abs(g) for obj in objects for g in obj.grades())
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if abs(q) != 1 and top * top * bits > _MAX_BRAID_BITS:
        _fail(path, "q = %s and grade %d give braiding powers of %d bits, "
                    "over the %d-bit bound" % (q, top, top * top * bits,
                                               _MAX_BRAID_BITS))


def _comonoid_blocks(doc, path, levels, labels, shared):
    """Shared delta/eps handling for both graded kinds.

    labels maps each structure key (an element, or an object pair) to its
    graded object, and levels are the key levels of the delta and eps
    blocks.  Returns (delta, eps, synthesized)."""
    blocks = {name: _leaves(doc, path, name, levels)
              for name in ("delta", "eps") if name in doc}
    grouplike = doc.get("grouplike", False)
    if grouplike is not False and grouplike is not True:
        _fail(path + ".grouplike", "expected true or false")
    if grouplike:
        if blocks:
            _fail(path, "grouplike cannot be combined with explicit "
                        "delta/eps")
        made = {obj: vb.grouplike(obj)
                for obj in dict.fromkeys(labels.values())}
        delta, eps = ({key: made[obj][i] for key, obj in labels.items()}
                      for i in (0, 1))
        return delta, eps, True
    if not blocks:
        return None, None, False
    if len(blocks) == 1:
        _fail(path, "delta and eps must be given together")
    delta, eps = {}, {}
    for (key, d, d_path), (_, e, e_path) in zip(blocks["delta"],
                                               blocks["eps"]):
        obj = labels[key]
        delta[key] = _matrix(d, obj, vb.tensor_obj(obj, obj), d_path, shared)
        eps[key] = _matrix(e, obj, vb.unit_object(), e_path, shared)
    return delta, eps, False


@dataclass
class LoadedFile:
    """A loaded document; a polyad file also keeps its probes and the
    image of its source, (imaged, F, backend) from
    hs.image_presentation, built once for both of its checks."""

    kind: str
    document: dict
    presentation: object
    synthesized: bool
    probes: tuple = ()
    image: tuple = None


_GROUP_REQUIRED = ("format_version", "kind", "backend", "elements", "unit",
                   "table", "labels", "mu", "eta")
_GROUP_OPTIONAL = ("q", "grouplike", "delta", "eps", "antipode")


def _load_group(doc, path):
    _check_keys(doc, _GROUP_REQUIRED, _GROUP_OPTIONAL, path)
    if doc["backend"] != "vect":
        _fail(path + ".backend", "kind group_monoid needs the vect backend")
    elements = _atom_list(doc["elements"], path + ".elements")
    unit = doc["unit"]
    if unit not in elements:
        _fail(path + ".unit", "unit %r is not a declared element" % (unit,))
    table = _require_mapping(doc["table"], path + ".table")
    _exact_keys(table, elements, path + ".table")
    mul = {}
    for a in elements:
        row = _require_mapping(table[a], "%s.table.%s" % (path, a))
        _exact_keys(row, elements, "%s.table.%s" % (path, a))
        for b in elements:
            value = row[b]
            if value not in elements:
                _fail("%s.table.%s.%s" % (path, a, b),
                      "product %r is not a declared element" % (value,))
            mul[(a, b)] = value
    for a in elements:
        if mul[(unit, a)] != a or mul[(a, unit)] != a:
            _fail(path + ".table", "unit law fails at %r" % (a,))
    if not light_associative(elements, mul):
        for a in elements:
            for b in elements:
                for c in elements:
                    if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
                        _fail(path + ".table",
                              "not associative at %r" % ((a, b, c),))
    labels = {a: _vobject(value, where)
              for a, value, where in _leaves(doc, path, "labels", [elements])}
    backend = _load_braiding(doc, path, labels.values())
    shared = {}
    mu = _matrix_block(doc, path, "mu", [elements, elements],
                       lambda ab: (vb.tensor_obj(labels[ab[0]], labels[ab[1]]),
                                   labels[mul[ab]]), shared)
    eta = _matrix(doc["eta"], vb.unit_object(), labels[unit], path + ".eta",
                  shared)
    delta, eps, synthesized = _comonoid_blocks(doc, path, [elements],
                                               labels, shared)
    fam = None
    if "antipode" in doc:
        inverses = hs._monoid_inverses(elements, mul, unit)
        if inverses is None:
            _fail(path + ".antipode",
                  "an antipode block needs every element invertible")
        fam = hs.AntipodeFamily(_matrix_block(
            doc, path, "antipode", [elements],
            lambda a: (labels[a], labels[inverses[a]]), shared))
    try:
        pres = hs.GroupMonoidPresentation(backend, FinSet(elements), mul,
                                          unit, labels, mu, eta, delta, eps,
                                          fam)
    except SpanVError as error:
        _fail(path, str(error))
    return LoadedFile("group_monoid", doc, pres, synthesized)


_ENRICHED_REQUIRED = ("format_version", "kind", "backend", "objects", "hom",
                      "mu", "eta")
_ENRICHED_OPTIONAL = ("q", "grouplike", "delta", "eps", "antipode")


def _load_enriched(doc, path):
    _check_keys(doc, _ENRICHED_REQUIRED, _ENRICHED_OPTIONAL, path)
    if doc["backend"] != "vect":
        _fail(path + ".backend",
              "kind enriched_category needs the vect backend")
    objects = _atom_list(doc["objects"], path + ".objects")
    hom = {xy: _vobject(value, where) for xy, value, where
           in _leaves(doc, path, "hom", [objects, objects])}
    backend = _load_braiding(doc, path, hom.values())
    shared = {}
    mu = _matrix_block(doc, path, "mu", [objects, objects, objects],
                       lambda xyz: (vb.tensor_obj(hom[xyz[:2]], hom[xyz[1:]]),
                                    hom[xyz[::2]]), shared)
    eta = _matrix_block(doc, path, "eta", [objects],
                        lambda x: (vb.unit_object(), hom[(x, x)]), shared)
    delta, eps, synthesized = _comonoid_blocks(doc, path, [objects, objects],
                                               hom, shared)
    fam = None
    if "antipode" in doc:
        fam = hs.AntipodeFamily(_matrix_block(
            doc, path, "antipode", [objects, objects],
            lambda xy: (hom[xy], hom[xy[::-1]]), shared))
    try:
        pres = hs.EnrichedCatPresentation(backend, FinSet(objects), hom, mu,
                                          eta, delta, eps, fam)
    except SpanVError as error:
        _fail(path, str(error))
    return LoadedFile("enriched_category", doc, pres, synthesized)


_POLYAD_REQUIRED = ("format_version", "kind", "backend", "construction",
                    "probes", "source")


def _load_probes_doc(value, path, pres):
    """The probe objects, which the image braids with the labels of pres."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of probe objects")
    probes = tuple(_vobject(entry, "%s[%d]" % (path, i))
                   for i, entry in enumerate(value))
    _bound_braiding(pres.backend.q.q, probes + tuple(
        pres.monad.mor_label.values()), path)
    return probes


def _load_polyad(doc, path):
    _check_keys(doc, _POLYAD_REQUIRED, (), path)
    if doc["backend"] != "cat":
        _fail(path + ".backend", "kind polyad needs the cat backend")
    if doc["construction"] != "tensor_image":
        _fail(path + ".construction",
              "unknown construction %r" % (doc["construction"],))
    source = load_document(doc["source"], path + ".source")
    if source.presentation.delta is None:
        _fail(path + ".source", "a polyad export needs delta and eps "
                                "(grouplike: true also works)")
    probes = _load_probes_doc(doc["probes"], path + ".probes",
                              source.presentation)
    image = hs.image_presentation(source.presentation.monad, probes)
    return LoadedFile("polyad", doc, source.presentation, source.synthesized,
                      probes, image)


def load_document(doc, path="$"):
    doc = _require_mapping(doc, path)
    if "format_version" not in doc:
        _fail(path, "missing required field 'format_version'")
    version = doc["format_version"]
    if isinstance(version, bool) or version != FORMAT_VERSION:
        _fail(path + ".format_version", "unsupported version %r" % (version,))
    kind = doc.get("kind")
    if kind == "group_monoid":
        return _load_group(doc, path)
    if kind == "enriched_category":
        return _load_enriched(doc, path)
    if kind == "polyad":
        if path != "$":
            _fail(path + ".kind", "a polyad cannot embed another polyad")
        return _load_polyad(doc, path)
    _fail(path + ".kind", "unknown kind %r" % (kind,))


def _read_json(filename):
    try:
        with open(filename, "r") as handle:
            text = handle.read()
    except OSError as error:
        raise InputError("%s: %s" % (filename, error.strerror or error))
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise InputError("%s: invalid JSON: %s" % (filename, error))
    except ValueError:
        # An integer literal past the digit limit of int().
        raise InputError("%s: JSON integer too long to read" % filename)
    except RecursionError:
        raise InputError("%s: JSON nested too deeply to read" % filename)


def load_path(filename):
    return load_document(_read_json(filename))


def canonical_json(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The check pipeline.


def _fusion_determinants(left, right):
    """Component determinants of both built fusion 2-cells, keyed by the
    pair of shape morphisms being fused; off-square components print
    null.  Each distinct component matrix is reduced once, keyed by its
    id and held with it."""
    out, dets = {}, {}
    for side, cell in (("left", left), ("right", right)):
        rows = []
        for pair, mor in hs.fusion_components(cell, side).items():
            hit = dets.get(id(mor))
            if hit is None:
                square = mor.dom.dim == mor.cod.dim
                hit = dets[id(mor)] = (
                    mor, str(vb.determinant(mor)) if square else None)
            rows.append([repr(pair), hit[1]])
        rows.sort(key=lambda item: item[0])
        out[side] = rows
    return out


def _selected_checks(loaded, args):
    explicit = [name for name in _CHECK_ORDER if getattr(args, name)]
    if explicit:
        if loaded.kind != "polyad":
            for name in explicit:
                if (name in _NEEDS_COMONOID
                        and loaded.presentation.delta is None):
                    raise InputError(
                        "the %s check needs delta and eps "
                        "(grouplike: true also works)" % name)
                if (name in _NEEDS_ANTIPODE
                        and loaded.presentation.antipode is None):
                    raise InputError(
                        "the %s check needs an antipode block" % name)
        return explicit
    if loaded.kind == "polyad":
        return list(_POLYAD_CHECKS)
    names = ["monad"]
    if loaded.presentation.delta is not None:
        names += ["opmonoidal", "hopf"]
        if loaded.presentation.antipode is not None:
            names += ["antipode", "duoidal"]
    names.append("frobenius")
    return names


def _execute_check(loaded, name):
    """Run one named check; returns (failures, extra report fields)."""
    pres = loaded.presentation
    if loaded.kind == "polyad":
        if name == "monad":
            return hs.check_monad(loaded.image[0]).failures, {}
        return hs.image_hopf_report(pres, loaded.image,
                                    loaded.probes).failures, {}
    monad = pres.monad
    if name == "monad":
        return hs.check_monad(monad).failures, {}
    if name == "opmonoidal":
        com = pres.comonoid_structure()
        return hs.check_opmonoidal(monad, com).failures, {}
    if name == "hopf":
        left, right = hs.fusion_cells(monad, pres.comonoid_structure())
        verdict = hs.fusion_verdict(left, right)
        failures = [] if verdict else [("fusion invertible", verdict.witness)]
        return failures, {"fusion_determinants":
                          _fusion_determinants(left, right)}
    if name == "antipode":
        return hs.check_antipode_group(pres).failures, {}
    if name == "duoidal":
        return hs.check_antipode_duoidal(pres).failures, {}
    return check_frobenius(monad.shape.objects, pres.backend).failures, {}


def _run_check_suite(loaded, selected):
    entries = []
    failed = set()
    for name in _CHECK_ORDER:
        if name not in selected:
            continue
        entry = {"name": name}
        if loaded.kind == "polyad" and name not in _POLYAD_CHECKS:
            entry["status"] = "skipped"
            entry["reason"] = "not available for kind polyad"
            entries.append(entry)
            continue
        blocker = next((b for b in _CHAIN_BLOCKERS[name] if b in failed),
                       None)
        if blocker is not None:
            entry["status"] = "skipped"
            entry["reason"] = "%s failed" % blocker
            entries.append(entry)
            continue
        failures, extras = _execute_check(loaded, name)
        if failures:
            entry["status"] = "fail"
            entry["failures"] = [[law, repr(witness)]
                                 for law, witness in failures]
            failed.add(name)
        else:
            entry["status"] = "pass"
        entry.update(extras)
        entries.append(entry)
    ok = all(entry["status"] != "fail" for entry in entries)
    return entries, ok


def _check_text(report, elapsed):
    lines = ["kind: %s" % report["kind"]]
    if report["synthesized_grouplike_comonoid"]:
        lines.append("note: grouplike comonoid synthesized from the basis")
    for entry in report["checks"]:
        if entry["status"] == "skipped":
            lines.append("%s: skipped (%s)" % (entry["name"],
                                               entry["reason"]))
            continue
        lines.append("%s: %s" % (entry["name"], entry["status"]))
        for law, witness in entry.get("failures", []):
            lines.append("  %s at %s" % (law, witness))
        for side in ("left", "right"):
            for pair, det in entry.get("fusion_determinants",
                                       {}).get(side, []):
                lines.append("  %s fusion determinant at %s: %s"
                             % (side, pair, "n/a" if det is None else det))
    lines.append("overall: %s" % report["status"])
    lines.append("elapsed: %.3fs" % elapsed)
    return "\n".join(lines) + "\n"


def cmd_check(args):
    start = time.monotonic()
    loaded = load_path(args.file)
    selected = _selected_checks(loaded, args)
    entries, ok = _run_check_suite(loaded, selected)
    report = {
        "format_version": FORMAT_VERSION,
        "command": "check",
        "kind": loaded.kind,
        "synthesized_grouplike_comonoid": loaded.synthesized,
        "checks": entries,
        "status": "pass" if ok else "fail",
    }
    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(_check_text(report, time.monotonic() - start))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Antipode solving and polyad export.


def _matrix_doc(mor):
    return [[str(value) for value in row] for row in mor.entries]


def _sigma_document(loaded, fam):
    if loaded.kind == "group_monoid":
        return {a: _matrix_doc(fam.sigma[a])
                for a in loaded.presentation.elements}
    out = {}
    for (x, y), mor in fam.sigma.items():
        out.setdefault(x, {})[y] = _matrix_doc(mor)
    return out


def cmd_antipode(args):
    start = time.monotonic()
    loaded = load_path(args.file)
    if loaded.kind == "polyad":
        raise InputError("antipode solving needs a graded presentation, "
                         "not a polyad export")
    if loaded.presentation.delta is None:
        raise InputError("computing an antipode needs delta and eps "
                         "(grouplike: true also works)")
    result = hs.compute_antipode(loaded.presentation)
    report = {
        "format_version": FORMAT_VERSION,
        "command": "antipode",
        "kind": loaded.kind,
        "status": "pass" if result else "fail",
    }
    if not result:
        report["witness"] = repr(result.witness)
        if args.format == "json":
            sys.stdout.write(canonical_json(report))
        else:
            sys.stdout.write("antipode: fail\n  %s\nelapsed: %.3fs\n"
                             % (report["witness"], time.monotonic() - start))
        return 1
    report["sigma"] = _sigma_document(loaded, result.family)
    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        lines = ["antipode: pass"]
        for key in sorted(report["sigma"]):
            block = report["sigma"][key]
            if isinstance(block, dict):
                for inner in sorted(block):
                    lines.append("sigma %s %s:" % (key, inner))
                    lines += ["  " + " ".join(row) for row in block[inner]]
            else:
                lines.append("sigma %s:" % key)
                lines += ["  " + " ".join(row) for row in block]
        lines.append("elapsed: %.3fs" % (time.monotonic() - start))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_export_polyad(args):
    start = time.monotonic()
    loaded = load_path(args.file)
    if loaded.kind == "polyad":
        raise InputError("the file is already a polyad export; pass the "
                         "graded source presentation")
    if loaded.presentation.delta is None:
        raise InputError("a polyad export needs delta and eps "
                         "(grouplike: true also works)")
    probes_doc = _read_json(args.probes)
    probes = _load_probes_doc(probes_doc, args.probes, loaded.presentation)
    report, _, _ = hs.image_polyad_report(loaded.presentation, list(probes))
    if not report.ok:
        out = {
            "format_version": FORMAT_VERSION,
            "command": "export-polyad",
            "kind": loaded.kind,
            "status": "fail",
            "failures": [[law, repr(witness)]
                         for law, witness in report.failures],
        }
        if args.format == "json":
            sys.stdout.write(canonical_json(out))
        else:
            lines = ["export-polyad: fail"]
            lines += ["  %s at %s" % (law, witness)
                      for law, witness in out["failures"]]
            lines.append("elapsed: %.3fs" % (time.monotonic() - start))
            sys.stdout.write("\n".join(lines) + "\n")
        return 1
    document = {
        "format_version": FORMAT_VERSION,
        "kind": "polyad",
        "backend": "cat",
        "construction": "tensor_image",
        "probes": probes_doc,
        "source": loaded.document,
    }
    text = canonical_json(document)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as error:
            raise InputError("%s: %s" % (args.output,
                                         error.strerror or error))
        if args.format == "text":
            sys.stdout.write("wrote polyad export to %s (verified on %d "
                             "probes, %.3fs)\n"
                             % (args.output, len(probes),
                                time.monotonic() - start))
    else:
        sys.stdout.write(text)
        if args.format == "text":
            sys.stderr.write("verified on %d probes (%.3fs)\n"
                             % (len(probes), time.monotonic() - start))
    return 0


# ---------------------------------------------------------------------------
# Argument wiring.


@functools.cache
def _build_parser():
    """The argument parser, built at the first main call and kept."""
    parser = argparse.ArgumentParser(
        prog="hopfspan",
        description="Check presentation files for monad, bimonoid and "
                    "antipode laws over the span workbench.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="canonical machine json or human text")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", parents=[common],
        help="run law checkers against a presentation file")
    check.add_argument("file")
    check.add_argument("--monad", action="store_true",
                       help="associativity and unit laws")
    check.add_argument("--opmonoidal", action="store_true",
                       help="bimonoid compatibility squares")
    check.add_argument("--hopf", action="store_true",
                       help="invertibility of both fusion 2-cells")
    check.add_argument("--antipode", action="store_true",
                       help="componentwise antipode squares for the "
                            "family in the file")
    check.add_argument("--duoidal", action="store_true",
                       help="assembled antipode squares, compared with "
                            "the componentwise verdict")
    check.add_argument("--frobenius", action="store_true",
                       help="comparison cells of the base adjunctions")
    check.set_defaults(func=cmd_check)

    export = sub.add_parser(
        "export-polyad", parents=[common],
        help="re-package a graded presentation as a pointwise tensor "
             "image and verify it on probes")
    export.add_argument("file")
    export.add_argument("--probes", required=True,
                        help="json file listing probe objects")
    export.add_argument("--output", default=None,
                        help="write the export here instead of stdout")
    export.set_defaults(func=cmd_export_polyad)

    antipode = sub.add_parser(
        "antipode", parents=[common],
        help="solve the antipode squares and print the family")
    antipode.add_argument("file")
    antipode.set_defaults(func=cmd_antipode)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory in %s\n" % args.command)
        return 2


if __name__ == "__main__":
    sys.exit(main())
