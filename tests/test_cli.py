"""End-to-end tests for the command line front end.

Everything drives main() directly with argv lists; the bundled fixture
files under tests/data are the same documents the acceptance suite
uses, and mutated copies go through tmp_path.
"""

import collections
import contextlib
import copy
import io
import json
import pathlib
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfspan import cat_backend as cb
from hopfspan import finset_span as fs
from hopfspan import hopf_structures as hs
from hopfspan import monoidale_duoidal as md
from hopfspan import spanv_core as sc
from hopfspan import vect_backend as vb
from hopfspan.cli import canonical_json, load_document, load_path, main

from test_acceptance import dual_group_document, group_algebra_document, \
    nichols_document, symmetric3

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent /
                       "perfbench"))
import inputs  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
Z2_FILE = str(DATA / "z2_group_algebra.json")
IDEMPOTENT_FILE = str(DATA / "idempotent_monoid.json")
TORSOR_FILE = str(DATA / "torsor_enriched.json")
INDISCRETE_FILE = str(DATA / "indiscrete_pair.json")
PROBES_FILE = str(DATA / "probes.json")
Z3_FILE = str(DATA / "golden" / "z3_group_algebra.json")
H4_FILE = str(DATA / "golden" / "h4_sweedler.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_doc(name):
    return json.loads((DATA / name).read_text())


def write_doc(tmp_path, doc, name="mutated.json"):
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return str(target)


def check_by_name(report):
    return {entry["name"]: entry for entry in report["checks"]}


# ---------------------------------------------------------------------------
# The check command.


def test_z2_hopf_flag_passes(capsys):
    code, _, _ = run_cli(capsys, "check", Z2_FILE, "--hopf")
    assert code == 0


def test_z2_default_runs_everything(capsys):
    code, out, _ = run_cli(capsys, "check", Z2_FILE, "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = [entry["name"] for entry in report["checks"]]
    assert names == ["monad", "opmonoidal", "hopf", "antipode", "duoidal",
                     "frobenius"]
    assert all(entry["status"] == "pass" for entry in report["checks"])
    assert report["status"] == "pass"
    assert report["synthesized_grouplike_comonoid"] is True


def test_z2_fusion_determinants_are_signs(capsys):
    code, out, _ = run_cli(capsys, "check", Z2_FILE, "--hopf",
                           "--format", "json")
    assert code == 0
    dets = check_by_name(json.loads(out))["hopf"]["fusion_determinants"]
    for side in ("left", "right"):
        assert len(dets[side]) == 4
        assert all(value in ("1", "-1") for _, value in dets[side])


def test_hopf_check_builds_each_fusion_cell_once(capsys, monkeypatch):
    # The verdict and the determinants read the same two built cells,
    # and both cells are built from one diagonal multiplication, one
    # binary structure cell and one unitor on t (two of each when each
    # side built its own).
    calls = collections.Counter()
    for name in ("left_fusion", "right_fusion", "_fusion",
                 "diagonal_multiplication", "_binary_cell",
                 "right_unitor_cell2"):
        def counted(*args, _name=name, _original=getattr(hs, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(hs, name, counted)
    code, _, _ = run_cli(capsys, "check", Z2_FILE, "--hopf",
                         "--format", "json")
    assert code == 0
    assert calls == {"_fusion": 2, "diagonal_multiplication": 1,
                     "_binary_cell": 1, "right_unitor_cell2": 1}


def test_hopf_check_eliminates_each_fusion_component_once(capsys,
                                                         monkeypatch):
    # H_4 has one 16 x 16 fusion component per side, not monomial.  The
    # verdict inverts each once and the determinants read that inversion.
    calls = []

    def counted(rows, width, _original=vb.row_reduce):
        calls.append((len(rows), width))
        return _original(rows, width)
    monkeypatch.setattr(vb, "row_reduce", counted)
    code, _, _ = run_cli(capsys, "check", H4_FILE, "--hopf",
                         "--format", "json")
    assert code == 0
    assert calls == [(16, 16), (16, 16)]


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(hs, "check_monad", exhausted)
    code, out, err = run_cli(capsys, "check", Z2_FILE, "--monad")
    assert code == 2 and out == ""
    assert err == "error: out of memory in check\n"


def test_default_check_builds_each_structure_once(capsys, monkeypatch):
    # The presentation builds its shape and monad cells at load; each
    # fusion cell builds only the multiplication 1-cell of its monoid
    # object, not the coherence cells, and the Frobenius check only the
    # multiplication, the unit and alpha, so no whole monoid object is
    # built (70 compose_spans calls when the Frobenius check built lam
    # and rho too); horizontal composites
    # of 2-cells sit on the pullbacks their span morphisms carry, the
    # Frobenius check builds each side's cells once for both mate
    # conventions, the assembled antipode chain needs no convolution
    # unit, and each associator cell sits on its own two composites (4
    # pullbacks, 251 calls in all when it also built its span iso).  The
    # Frobenius chains build each 1-cell once, on the atoms their source
    # reaches, with each run of coherence steps one relabeling and a
    # whisker followed by one a single cell (203 calls when each step
    # built its source again, over whole products).  The fusion cells and
    # the bimonoid square are chains of such steps too, each step built
    # from the 1-cell the one before lands on (88 calls when each stage
    # built its source again and a whiskered composite on both sides).
    # Each chain now lands once, with no 1-cell built between its steps,
    # and the bimonoid square's counit and unit sides are chains too (68
    # calls when each step landed in a sub-span of its own).  Both fusion
    # cells are built from one diagonal multiplication, binary structure
    # cell and unitor on t (29 calls when each side built its own).
    # Before that, this check ran monad_cells 10 times,
    # check_category 4 times, induced_monoidale 5 times and compose_spans
    # 688 times; with a whole monoid object per fusion cell,
    # induced_monoidale 3 times and compose_spans 213 times.
    calls = collections.Counter()
    for modules, name in (((fs, sc), "compose_spans"),
                          ((md,), "induced_monoidale"),
                          ((hs,), "monad_cells"),
                          ((cb,), "check_category")):
        def counted(*args, _name=name, _original=getattr(modules[0], name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(capsys, "check", Z3_FILE, "--format", "json")
    assert code == 0
    assert calls == collections.Counter({
        "monad_cells": 1, "check_category": 1, "induced_monoidale": 0,
        "compose_spans": 26})


def test_opmonoidal_check_builds_convolutions_directly(capsys, monkeypatch):
    # The convolution cells are built on leg-matched pairs: no cell is
    # inverted, and no monoid object is built to read the diagonal labels.
    calls = {"invert_cell2": 0, "induced_monoidale in a convolution": 0}
    depth = [0]
    for module in (sc, md, hs):
        def counted_invert(*args, _original=module.invert_cell2, **kwargs):
            calls["invert_cell2"] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "invert_cell2", counted_invert)

    def counted_monoidale(*args, _original=md.induced_monoidale, **kwargs):
        calls["induced_monoidale in a convolution"] += depth[0] > 0
        return _original(*args, **kwargs)
    monkeypatch.setattr(md, "induced_monoidale", counted_monoidale)
    for module, name in ((md, "star1"), (md, "star2"), (hs, "_starred")):
        def tracked(*args, _original=getattr(module, name), **kwargs):
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(module, name, tracked)
    code, _, _ = run_cli(capsys, "check", Z3_FILE, "--opmonoidal",
                         "--format", "json")
    assert code == 0
    assert calls == {"invert_cell2": 0,
                     "induced_monoidale in a convolution": 0}


def test_nongroup_hopf_fails_with_span_witness(capsys):
    code, out, _ = run_cli(capsys, "check", IDEMPOTENT_FILE, "--hopf",
                           "--format", "json")
    assert code == 1
    entry = check_by_name(json.loads(out))["hopf"]
    assert entry["status"] == "fail"
    law, witness = entry["failures"][0]
    assert law == "fusion invertible"
    assert "span map not surjective" in witness


def test_failed_monad_short_circuits_downstream(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    doc["mu"]["e"]["e"] = [["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, doc),
                           "--format", "json")
    assert code == 1
    by_name = check_by_name(json.loads(out))
    assert by_name["monad"]["status"] == "fail"
    assert by_name["opmonoidal"]["status"] == "skipped"
    assert by_name["opmonoidal"]["reason"] == "monad failed"
    assert by_name["hopf"]["status"] == "skipped"
    assert by_name["frobenius"]["status"] == "pass"


def test_torsor_enriched_fixture_passes(capsys):
    code, out, _ = run_cli(capsys, "check", TORSOR_FILE, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "enriched_category"
    assert all(entry["status"] == "pass" for entry in report["checks"])


def test_indiscrete_enriched_fixture_passes(capsys):
    code, _, _ = run_cli(capsys, "check", INDISCRETE_FILE, "--hopf",
                         "--antipode", "--duoidal")
    assert code == 0


def test_machine_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "check", Z2_FILE, "--format", "json")
    _, second, _ = run_cli(capsys, "check", Z2_FILE, "--format", "json")
    assert first == second
    assert "elapsed" not in first


def test_explicit_delta_eps_not_flagged_as_synthesized(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    del doc["grouplike"]
    doc["delta"] = {a: [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]
                    for a in doc["elements"]}
    doc["eps"] = {a: [["1", "1"]] for a in doc["elements"]}
    code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, doc),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["synthesized_grouplike_comonoid"] is False


# ---------------------------------------------------------------------------
# Input errors.


def test_zero_denominator_is_a_schema_error(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    doc["q"] = "1/0"
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc),
                           "--hopf")
    assert code == 2
    assert "$.q" in err


def test_unknown_field_is_rejected(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    doc["comment"] = "free-form notes"
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert "comment" in err


def test_missing_table_entry_is_located(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    del doc["mu"]["e"]["b"]
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert "$.mu.e" in err


def test_matrix_shape_mismatch_is_located(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    doc["eta"] = [["1"]]
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert "$.eta" in err and "rows" in err


@pytest.mark.parametrize("entry, message", [
    ("1/x", "malformed fraction '1/x'"),
    ("1/0", "malformed fraction '1/0'"),
    (1, "expected a fraction string"),
    (["1"], "expected a fraction string"),
])
def test_bad_matrix_entry_is_located(capsys, tmp_path, entry, message):
    doc = load_doc("z2_group_algebra.json")
    doc["mu"]["b"]["e"][1][2] = entry
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert err == "error: $.mu.b.e[1][2]: %s\n" % message


def test_undeclared_atom_is_rejected(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    doc["table"]["b"]["b"] = "c"
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert "$.table.b.b" in err


def test_invalid_json_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{")
    code, _, err = run_cli(capsys, "check", str(target))
    assert code == 2
    assert "invalid JSON" in err


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "deep.json"
    target.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run_cli(capsys, "check", str(target))
    assert code == 2
    assert err.startswith("error: %s: " % target)
    assert "nested too deeply" in err


@pytest.mark.parametrize("command, target", [("check", "file"),
                                             ("export-polyad", "file"),
                                             ("export-polyad", "probes")])
def test_long_integer_literal_is_an_input_error(capsys, tmp_path, command,
                                                target):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError.
    long_int = tmp_path / "long.json"
    long_int.write_text('{"format_version": %s}' % ("9" * 5000))
    argv = [command, str(long_int) if target == "file" else Z2_FILE]
    if command == "export-polyad":
        argv += ["--probes",
                 str(long_int) if target == "probes" else PROBES_FILE]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: %s: JSON integer too long to read\n" % long_int


def oversized_grade_documents():
    """Each place a grade enters a braiding, with q = 2 and one grade of
    100000: q^(10^10) would be computed exactly."""
    group = {"format_version": 1, "kind": "group_monoid", "backend": "vect",
             "elements": ["e", "a"], "unit": "e", "q": "2",
             "grouplike": True,
             "table": {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}},
             "labels": {"e": [["x", 0]], "a": [["y", 100000]]},
             "mu": {a: {b: [["1"]] for b in "ea"} for a in "ea"},
             "eta": [["1"]]}
    enriched = load_doc("torsor_enriched.json")
    enriched["q"] = "2"
    enriched["hom"]["x"]["y"][1][1] = -100000
    polyad = json.loads((DATA / "golden" / "z2_polyad.json").read_text())
    polyad["source"]["q"] = "2"
    polyad["probes"][1][0][1] = 100000
    return [("group", group, "$.q"), ("enriched", enriched, "$.q"),
            ("polyad", polyad, "$.probes")]


@pytest.mark.parametrize("name, doc, path", oversized_grade_documents())
def test_oversized_braiding_grade_is_refused_at_load(capsys, tmp_path, name,
                                                     doc, path):
    if name == "group":
        assert len(json.dumps(doc)) < 400
    start = time.monotonic()
    code, out, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: %s: q = 2 and grade 100000 give braiding powers "
                   "of 20000000000 bits, over the 65536-bit bound\n" % path)


def test_oversized_probe_grade_is_refused_by_export(capsys, tmp_path):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps([[["p", 0]], [["r", 100000]]]))
    z2_q2 = str(DATA / "golden" / "z2_q2.json")
    code, out, err = run_cli(capsys, "export-polyad", z2_q2,
                             "--probes", str(probes))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: q = 2 and grade 100000" % probes)
    # Under q = 1 every power is 1, so no grade is refused.
    code, _, _ = run_cli(capsys, "export-polyad", Z2_FILE,
                         "--probes", str(probes), "--format", "json")
    assert code == 0


def test_every_fixture_and_generated_family_loads():
    fixtures = [json.loads(path.read_text())
                for path in sorted(DATA.rglob("*.json"))]
    documents = [group_algebra_document(*hs.cyclic_group(n))
                 for n in range(2, 9)]
    documents += [nichols_document(n) for n in (1, 2, 3)]
    documents.append(dual_group_document(*symmetric3()))
    for workload in inputs.WORKLOADS:
        _, files = inputs.generate(workload, 1)
        documents += [json.loads(text) for text in files.values()]
    # Reports and probe lists are not presentations.
    documents = [doc for doc in fixtures + documents
                 if isinstance(doc, dict) and "backend" in doc]
    assert len(documents) > 30
    for doc in documents:
        load_document(doc)


# ---------------------------------------------------------------------------
# The matrix reader against the dense oracle.


def dense_matrix(value, dom, cod):
    """The loader's former path, kept as the oracle: each matrix read as
    dense Fraction rows and built through the checked constructor."""
    return vb.VMorphism(dom, cod, [[Fraction(e) for e in row]
                                   for row in value])


def read_matrices(doc):
    """The presentation a graded or polyad document loads to, and the
    (document value, loaded matrix) pair of every matrix the document
    spells out; grouplike comonoids are built, not read."""
    pres = load_document(doc).presentation
    source = doc.get("source", doc)

    def at(name, key):
        value = source[name]
        for part in key if isinstance(key, tuple) else (key,):
            value = value[part]
        return value

    pairs = []
    for name in ("mu", "eta", "delta", "eps", "antipode"):
        if name not in source:
            continue
        block = pres.antipode.sigma if name == "antipode" else \
            getattr(pres, name)
        if isinstance(block, vb.VMorphism):
            pairs.append((source[name], block))
        else:
            pairs += [(at(name, key), f) for key, f in block.items()]
    return pres, pairs


def reader_documents():
    fixtures = [json.loads(path.read_text())
                for path in sorted(DATA.rglob("*.json"))]
    documents = [group_algebra_document(*hs.cyclic_group(n))
                 for n in range(2, 6)]
    documents += [nichols_document(1), nichols_document(2),
                  dual_group_document(*symmetric3())]
    return [doc for doc in fixtures + documents
            if isinstance(doc, dict) and "backend" in doc]


def test_the_matrix_reader_matches_the_dense_oracle():
    documents = reader_documents()
    assert len(documents) > 20
    for doc in documents:
        _, pairs = read_matrices(doc)
        assert pairs
        for value, f in pairs:
            assert f == dense_matrix(value, f.dom, f.cod)
            entries = [e for row in f.rows for e in row.values()]
            assert all(e != 0 for e in entries)
            assert all(e is vb.ONE for e in entries if e == 1)
        # Equal blocks are one object.
        loaded = [f for _, f in pairs]
        assert len({id(f) for f in loaded}) == len(set(loaded))


def test_a_cyclic_group_algebra_reads_one_multiplication():
    for n in range(2, 6):
        pres, _ = read_matrices(group_algebra_document(*hs.cyclic_group(n)))
        assert len(pres.mu) == n * n
        assert len({id(f) for f in pres.mu.values()}) == 1


def test_loading_builds_no_matrix_through_the_checked_constructor(
        tmp_path, monkeypatch):
    # Every loaded matrix is built from its parsed nonzeros; before, each
    # went through VMorphism.__init__, which converted every dense entry
    # again with vect_backend._fraction.
    calls = collections.Counter()
    original_init = vb.VMorphism.__init__

    def counted_init(self, *args):
        calls["VMorphism.__init__"] += 1
        original_init(self, *args)

    def counted_fraction(value, _original=vb._fraction):
        calls["_fraction"] += 1
        return _original(value)
    monkeypatch.setattr(vb.VMorphism, "__init__", counted_init)
    monkeypatch.setattr(vb, "_fraction", counted_fraction)
    doc = group_algebra_document(*hs.cyclic_group(5))
    pres = load_path(write_doc(tmp_path, doc)).presentation
    assert len(pres.mu) == 25 and calls == {}
    # The counters see the checked constructor.
    f = pres.eta
    vb.VMorphism(f.dom, f.cod, f.entries)
    assert calls == {"VMorphism.__init__": 1, "_fraction": 5}


@pytest.mark.parametrize("path, entry", [("$.mu.b.e[1][2]", "1e5"),
                                         ("$.q", "1E5")])
def test_exponent_entries_are_malformed_fractions(capsys, tmp_path, path,
                                                  entry):
    # Only fractions like "-3/2" are part of the format; an exponent
    # could ask the parser for an integer of any size.
    doc = load_doc("z2_group_algebra.json")
    if path == "$.q":
        doc["q"] = entry
    else:
        doc["mu"]["b"]["e"][1][2] = entry
    code, _, err = run_cli(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert err == "error: %s: malformed fraction %r\n" % (path, entry)


def test_unwritable_output_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "polyad.json"
    code, out, err = run_cli(capsys, "export-polyad", Z2_FILE,
                             "--probes", PROBES_FILE, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s: " % target)
    assert not target.exists()


def test_explicit_flag_without_comonoid_data_errors(capsys, tmp_path):
    doc = load_doc("z2_group_algebra.json")
    del doc["grouplike"]
    del doc["antipode"]
    path = write_doc(tmp_path, doc)
    code, _, err = run_cli(capsys, "check", path, "--hopf")
    assert code == 2
    assert "grouplike" in err
    # without flags the comonoid-free checks still run
    code, out, _ = run_cli(capsys, "check", path, "--format", "json")
    assert code == 0
    names = [entry["name"] for entry in json.loads(out)["checks"]]
    assert names == ["monad", "frobenius"]


def test_parse_serialize_parse_is_the_identity():
    for name in ("z2_group_algebra.json", "idempotent_monoid.json",
                 "indiscrete_pair.json", "torsor_enriched.json",
                 "probes.json"):
        text = (DATA / name).read_text()
        doc = json.loads(text)
        assert canonical_json(doc) == text
        assert json.loads(canonical_json(doc)) == doc


# ---------------------------------------------------------------------------
# The antipode command.


def test_antipode_roundtrip_through_the_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "antipode", Z2_FILE, "--format", "json")
    assert code == 0
    emitted = json.loads(out)
    assert emitted["status"] == "pass"
    doc = load_doc("z2_group_algebra.json")
    doc["antipode"] = emitted["sigma"]
    code, _, _ = run_cli(capsys, "check", write_doc(tmp_path, doc),
                         "--antipode", "--duoidal")
    assert code == 0


def test_antipode_solves_the_torsor_family(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "antipode", TORSOR_FILE,
                           "--format", "json")
    assert code == 0
    sigma = json.loads(out)["sigma"]
    doc = load_doc("torsor_enriched.json")
    assert sigma == doc["antipode"]


def test_antipode_solves_sweedlers_h4(capsys):
    # S(x) = -gx and S(gx) = x; the antipode of the co-opposite (S^-1)
    # sends x to gx instead, so an extraction from the wrong fusion side
    # disagrees with the linear solution here.
    code, out, _ = run_cli(capsys, "antipode", H4_FILE, "--format", "json")
    assert code == 0
    sigma = json.loads(out)["sigma"]
    doc = json.loads(pathlib.Path(H4_FILE).read_text())
    assert sigma == doc["antipode"]
    assert [row[2] for row in sigma["e"]] == ["0", "0", "0", "-1"]
    assert [row[3] for row in sigma["e"]] == ["0", "0", "1", "0"]


def test_h4_inverse_antipode_fails_both_squares(capsys, tmp_path):
    doc = json.loads(pathlib.Path(H4_FILE).read_text())
    inverse = [[str(-int(v)) if i >= 2 else v for v in row]
               for i, row in enumerate(doc["antipode"]["e"])]
    assert inverse[2][3] == "-1" and inverse[3][2] == "1"
    doc["antipode"]["e"] = inverse
    code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, doc),
                           "--antipode", "--duoidal", "--format", "json")
    assert code == 1
    for check in json.loads(out)["checks"]:
        laws = [law for (law, _) in check["failures"]]
        assert laws == ["(1, sigma) square", "(sigma, 1) square"], check


def test_antipode_fails_off_groups(capsys):
    code, out, _ = run_cli(capsys, "antipode", IDEMPOTENT_FILE,
                           "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert "shape not a groupoid" in report["witness"]


# ---------------------------------------------------------------------------
# The export-polyad command.


def test_export_polyad_and_recheck(capsys, tmp_path):
    out_file = str(tmp_path / "polyad.json")
    code, _, _ = run_cli(capsys, "export-polyad", Z2_FILE,
                         "--probes", PROBES_FILE, "--output", out_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "check", out_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "polyad"
    names = [entry["name"] for entry in report["checks"]]
    assert names == ["monad", "hopf"]
    # the exported document is already canonical
    text = pathlib.Path(out_file).read_text()
    assert canonical_json(json.loads(text)) == text


def test_export_polyad_stdout_matches_output_file(capsys, tmp_path):
    out_file = tmp_path / "polyad.json"
    run_cli(capsys, "export-polyad", Z2_FILE, "--probes", PROBES_FILE,
            "--output", str(out_file))
    code, out, _ = run_cli(capsys, "export-polyad", Z2_FILE,
                           "--probes", PROBES_FILE, "--format", "json")
    assert code == 0
    assert out == out_file.read_text()


def test_export_polyad_rejects_empty_probes(capsys, tmp_path):
    probes = tmp_path / "probes.json"
    probes.write_text("[]")
    code, _, err = run_cli(capsys, "export-polyad", Z2_FILE,
                           "--probes", str(probes))
    assert code == 2
    assert "probe" in err


def test_export_polyad_fails_off_groups(capsys):
    code, out, _ = run_cli(capsys, "export-polyad", IDEMPOTENT_FILE,
                           "--probes", PROBES_FILE, "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert any("shape not a groupoid" in law
               for law, _ in report["failures"])


def test_polyad_checks_run_only_their_own_half(capsys, monkeypatch):
    # The image is built once per loaded file: the monad check decides
    # the laws over it, and only the hopf check builds the fusion cells.
    # Before, both read one whole image report, fusion cells included.
    calls = collections.Counter()
    for name in ("image_presentation", "check_monad", "left_fusion",
                 "right_fusion", "fusion_cells"):
        def counted(*args, _name=name, _original=getattr(hs, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(hs, name, counted)
    polyad = str(DATA / "golden" / "z2_polyad.json")
    code, _, _ = run_cli(capsys, "check", polyad, "--monad",
                         "--format", "json")
    assert code == 0
    assert calls == {"image_presentation": 1, "check_monad": 1}
    calls.clear()
    code, _, _ = run_cli(capsys, "check", polyad, "--format", "json")
    assert code == 0
    assert calls == {"image_presentation": 1, "check_monad": 1,
                     "fusion_cells": 1}


def test_inapplicable_flags_on_polyad_are_skipped(capsys, tmp_path):
    out_file = str(tmp_path / "polyad.json")
    run_cli(capsys, "export-polyad", Z2_FILE, "--probes", PROBES_FILE,
            "--output", out_file)
    code, out, _ = run_cli(capsys, "check", out_file, "--opmonoidal",
                           "--hopf", "--format", "json")
    assert code == 0
    by_name = check_by_name(json.loads(out))
    assert by_name["opmonoidal"]["status"] == "skipped"
    assert "kind polyad" in by_name["opmonoidal"]["reason"]
    assert by_name["hopf"]["status"] == "pass"


# ---------------------------------------------------------------------------
# Loader fuzzing: mutated fixtures exit with 0, 1 or 2 and never raise.

FUZZED_FIXTURES = ("z2_group_algebra.json", "indiscrete_pair.json",
                   "idempotent_monoid.json", "golden/z2_polyad.json")
CORRUPT_VALUES = (None, [], {}, "1/0", "nan", True, 1.5)


def _nodes(doc):
    """Every (container, key) under doc, a key being a dict key or a list
    index, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


@st.composite
def mutated_documents(draw):
    """A fixture after one to three mutations, none of which grows it:
    drop a key or a list entry, corrupt a value, or overwrite one atom of
    a list with another of the same list."""
    doc = load_doc(draw(st.sampled_from(FUZZED_FIXTURES)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        container, key = draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from(["drop", "corrupt", "duplicate"]))
        if kind == "drop":
            del container[key]
        elif kind == "corrupt":
            value = draw(st.sampled_from(CORRUPT_VALUES))
            container[key] = copy.deepcopy(value)
        elif isinstance(container, list) and len(container) > 1:
            other = draw(st.sampled_from(range(len(container))))
            container[key] = copy.deepcopy(container[other])
    return doc


@settings(max_examples=100, deadline=None)
@given(mutated_documents(),
       st.sampled_from([["check"], ["check", "--hopf"], ["antipode"],
                        ["export-polyad", "--probes", PROBES_FILE]]))
def test_mutated_fixtures_exit_cleanly(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(path), "--format", "json"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
