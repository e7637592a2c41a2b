"""Canonical reports pinned byte for byte.

Each file under tests/data/golden/ named after a case below holds the
``--format json`` output that main() printed for that argv when the case
was recorded.  The run must reproduce it exactly, and the exit code must
agree with the report's status.  The inputs are the bundled fixtures
plus the variants kept next to the reports:

* ``z2_super.json``: the Z_2 fixture with q = -1 and the generator in
  degree 1, which fails the multiplication/comultiplication square;
* ``z2_q2.json``: the same labels with q = 2, whose left fusion
  determinants are 2 rather than a sign;
* ``idempotent_wide.json``: the idempotent monoid with a two-dimensional
  label on z, so that some fusion components are not square (reported
  as null) and some are singular;
* ``z3_group_algebra.json``: the ungraded group algebra of Z_3, whose
  labels are three-dimensional and whose fusion cells have 9 components
  on each side;
* ``h4_sweedler.json``: Sweedler's four-dimensional Hopf algebra H_4
  (basis 1, g, x, gx; g^2 = 1, x^2 = 0, xg = -gx, Delta x = x (x) 1 +
  g (x) x) on a one-element monoid, with explicit delta and eps and its
  antipode S(x) = -gx, S(gx) = x.  It is not grouplike and S^2 is not
  the identity, so S differs from the antipode of the co-opposite;
* ``e2_nichols.json``: the Nichols Hopf algebra E(2) (dimension 8, two
  anticommuting skew-primitive generators), written by
  ``nichols_document(2)`` in test_acceptance.py.  Its fusion components
  are 64 x 64 and not monomial, so they go through elimination;
* ``qs3_dual.json``: the dual group algebra Q^{S_3} (point masses
  d_g, Delta(d_g) = sum over ab = g of d_a (x) d_b) on a one-element
  monoid, written by ``dual_group_document`` in test_acceptance.py.
  Its comultiplication is not cocommutative;
* ``z2_polyad.json`` and ``torsor_polyad.json``: the ``export-polyad``
  output of the Z_2 and torsor fixtures on ``probes.json``, which
  ``check`` reads as ``kind: polyad`` documents;
* ``z2_zero_delta.json``: the Z_2 fixture with explicit all-zero delta
  and eps, whose fusion components are zero, so that ``export-polyad``
  fails over the image and at every probe;
* ``z2_zero_delta_polyad.json``: a ``kind: polyad`` document wrapping
  it with the same probes, where the monad laws hold and hopf fails.

A passing ``export-polyad`` prints the export itself, with no status
field, so the two exports are compared with its output separately.
"""

import json
import pathlib

import pytest

from hopfspan.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CASES = {
    "check_z2_group_algebra.json": ["check", DATA / "z2_group_algebra.json"],
    "check_idempotent_monoid.json": ["check",
                                     DATA / "idempotent_monoid.json"],
    "check_indiscrete_pair.json": ["check", DATA / "indiscrete_pair.json"],
    "check_torsor_enriched.json": ["check", DATA / "torsor_enriched.json"],
    "check_z2_super.json": ["check", GOLDEN / "z2_super.json"],
    "check_hopf_z2_super.json": ["check", GOLDEN / "z2_super.json", "--hopf"],
    "check_hopf_z2_q2.json": ["check", GOLDEN / "z2_q2.json", "--hopf"],
    "check_idempotent_wide.json": ["check", GOLDEN / "idempotent_wide.json"],
    "antipode_z2_group_algebra.json": ["antipode",
                                       DATA / "z2_group_algebra.json"],
    "antipode_torsor_enriched.json": ["antipode",
                                      DATA / "torsor_enriched.json"],
    "check_z3_group_algebra.json": ["check", GOLDEN / "z3_group_algebra.json"],
    "antipode_z3_group_algebra.json": ["antipode",
                                       GOLDEN / "z3_group_algebra.json"],
    "check_h4_sweedler.json": ["check", GOLDEN / "h4_sweedler.json"],
    "check_hopf_h4_sweedler.json": ["check", GOLDEN / "h4_sweedler.json",
                                    "--hopf"],
    "antipode_h4_sweedler.json": ["antipode", GOLDEN / "h4_sweedler.json"],
    "check_e2_nichols.json": ["check", GOLDEN / "e2_nichols.json"],
    "check_hopf_e2_nichols.json": ["check", GOLDEN / "e2_nichols.json",
                                   "--hopf"],
    "antipode_e2_nichols.json": ["antipode", GOLDEN / "e2_nichols.json"],
    "check_qs3_dual.json": ["check", GOLDEN / "qs3_dual.json"],
    "check_hopf_qs3_dual.json": ["check", GOLDEN / "qs3_dual.json",
                                 "--hopf"],
    "antipode_qs3_dual.json": ["antipode", GOLDEN / "qs3_dual.json"],
    "check_z2_polyad.json": ["check", GOLDEN / "z2_polyad.json"],
    "check_torsor_polyad.json": ["check", GOLDEN / "torsor_polyad.json"],
    "check_opmonoidal_hopf_z2_polyad.json": [
        "check", GOLDEN / "z2_polyad.json", "--opmonoidal", "--hopf"],
    "export_polyad_z2_zero_delta.json": [
        "export-polyad", GOLDEN / "z2_zero_delta.json",
        "--probes", DATA / "probes.json"],
    "check_z2_zero_delta_polyad.json": ["check",
                                        GOLDEN / "z2_zero_delta_polyad.json"],
}

EXPORTS = {
    "z2_polyad.json": DATA / "z2_group_algebra.json",
    "torsor_polyad.json": DATA / "torsor_enriched.json",
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_the_recorded_bytes(golden, capsys):
    code = main([str(arg) for arg in CASES[golden]] + ["--format", "json"])
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / golden).read_bytes()
    assert code == (0 if json.loads(out)["status"] == "pass" else 1)


@pytest.mark.parametrize("export", sorted(EXPORTS))
def test_export_matches_the_recorded_bytes(export, capsys):
    code = main(["export-polyad", str(EXPORTS[export]),
                 "--probes", str(DATA / "probes.json"), "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / export).read_bytes()
