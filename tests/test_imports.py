"""Every name a package module imports is used in that module, and
every module imports only from lower layers.

No linter ships with the toolchain, so the checks are small passes over
each module's syntax tree: a name bound by an import statement must be
read somewhere in the module (a bare name, the base of an attribute, or
an annotation), or be listed in __all__; and a module may import from a
package module only if that module sits in a strictly lower layer.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hopfspan"


def unused_imports(source):
    """The imported names that source never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_is_never_read():
    source = ("import os\nimport os.path as osp\nfrom x import (a, b as c,"
              " d)\nfrom y import e\n__all__ = ['e']\n\n"
              "def f(n: a) -> None:\n    return c.attr\n")
    assert unused_imports(source) == ["os", "osp", "d"]


@pytest.mark.parametrize("module",
                         sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# The package's layers, lowest first.  Modules in one layer are
# independent of each other: the two bases do not see one another, and
# how graded objects act as a category is decided above both of them.
LAYERS = ({"reporting", "finset_span"}, {"vect_backend", "cat_backend"},
          {"spanv_core"}, {"monoidale_duoidal"}, {"hopf_structures"},
          {"cli"})
LAYER = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def package_imports(source):
    """The package modules that source imports, relatively or by the
    package name, in import order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and \
                    node.module.startswith("hopfspan."):
                names.append(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                names.append(node.module.split(".")[0])
            elif node.level == 1 or node.module == "hopfspan":
                names += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name.split(".")[1] for a in node.names
                      if a.name.startswith("hopfspan.")]
    return names


def test_package_imports_finds_every_form():
    source = ("import os\nimport hopfspan.a\nfrom hopfspan.b import x\n"
              "from hopfspan import c\nfrom . import d as e\n"
              "from .f import y\n")
    assert package_imports(source) == ["a", "b", "c", "d", "f"]


@pytest.mark.parametrize("module",
                         sorted(p.stem for p in PACKAGE.glob("*.py")
                                if p.stem != "__init__"))
def test_module_imports_only_lower_layers(module):
    assert module in LAYER, "%s has no layer" % module
    upward = [name for name in
              package_imports((PACKAGE / (module + ".py")).read_text())
              if LAYER[name] >= LAYER[module]]
    assert upward == []


# The functions allowed to build values through finset_span._trusted,
# which skips the constructors' checks: identities and composites of
# values that were checked already.  A new call site must be added here
# on purpose, and tests/test_trusted.py must cover it.
TRUSTED = {
    "finset_span": {"FinSet.product", "FinFn.compose", "FinFn.identity",
                    "FinFn.tabulate",
                    "Span.identity", "SpanMorphism.identity",
                    "SpanMorphism.then", "_in_order", "compose_spans",
                    "compose_span_morphisms_h", "cartesian_product",
                    "convolution_span"},
    "cat_backend": {"FunctorData.identity", "FunctorData.held",
                    "FunctorData._composite", "NatTransData.identity",
                    "NatTransData.vcomp", "NatTransData.hcomp"},
    "spanv_core": {"_product_category", "_product_functor", "product_nat",
                   "identity_cell1", "identity_cell2", "vcomp2",
                   "_pair_labeled", "hcomp2", "_tensor0",
                   "cell2_along", "regroup_cell1",
                   "invert_cell2"},
}


def name_read(node):
    """The name node reads, as a bare name or as an attribute, or None."""
    if not isinstance(getattr(node, "ctx", None), ast.Load):
        return None
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def scopes(source, match):
    """The enclosing function, as Class.method, of every node of source
    that match accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if match(child):
                    found.add(".".join(scope) or "<module>")
                visit(child, scope)

    visit(ast.parse(source), [])
    return found


def readers(source, name):
    """The enclosing function of every read of name in source."""
    return scopes(source, lambda node: name_read(node) == name)


def callers(source, name):
    """The enclosing function of every call of name in source."""
    return scopes(source, lambda node: isinstance(node, ast.Call)
                  and name_read(node.func) == name)


def package_scopes(find, name):
    """find(source, name) in each package module where it finds any."""
    found = {p.stem: find(p.read_text(), name)
             for p in PACKAGE.glob("*.py")}
    return {module: names for module, names in found.items() if names}


def test_trusted_readers_finds_every_read():
    source = ("from x import _trusted\nf = _trusted\n"
              "class A:\n    def m(self):\n        return _trusted(A)\n"
              "def g():\n    def h():\n        _trusted(1)\n")
    assert readers(source, "_trusted") == {"<module>", "A.m", "g.h"}


def test_trusted_constructors_are_called_only_where_listed():
    found = package_scopes(readers, "_trusted")
    assert found == TRUSTED
    assert not set(found) & {"hopf_structures", "monoidale_duoidal", "cli"}


def mentions(source, name):
    """The enclosing function of every read of name in source, and of
    every string equal to it (getattr's and setattr's)."""
    return readers(source, name) | scopes(
        source, lambda node: isinstance(node, ast.Constant)
        and node.value == name)


def test_only_the_keep_rule_touches_a_memo():
    # Every value built once per tuple of operands is kept by
    # finset_span._kept, the one place that decides where it lives; the
    # kernel's slotted classes only declare the slot.
    assert package_scopes(mentions, "_memo") == {
        "finset_span": {"_kept", "_owns_no_memo"},
        "vect_backend": {"VObject", "VMorphism"}}


def test_callers_finds_calls_only():
    source = ("from x import Cell2\ncheck = isinstance(1, Cell2)\n"
              "def f(m):\n    return m.Cell2(1)\n"
              "def g():\n    return _trusted(Cell2, 1)\n"
              "class A:\n    def h(self):\n        return Cell2(2)\n")
    assert callers(source, "Cell2") == {"f", "A.h"}


def test_no_package_module_calls_the_checked_cell2_constructor():
    # A 2-cell is either a trusted composite or built along its atom map
    # by cell2_along, which runs the constructor's checks on what it builds.
    assert package_scopes(callers, "Cell2") == {}


# The classes whose checks cell2_along runs, by module: it builds each
# value through _trusted and calls the class's own __post_init__ on it,
# so every message those checks raise is written once.
CHECKED = {"finset_span": ("FinFn", "SpanMorphism"), "spanv_core": ("Cell2",)}


def raised_messages(node):
    """The message string of every raise under node, as written: the
    string itself, or the left side of its % formatting."""
    found = []
    for raised in ast.walk(node):
        if isinstance(raised, ast.Raise) and \
                isinstance(raised.exc, ast.Call) and raised.exc.args:
            message = raised.exc.args[0]
            if isinstance(message, ast.BinOp):
                message = message.left
            found.append(message.value)
    return found


def test_raised_messages_reads_plain_and_formatted_messages():
    source = ("def f(a):\n    raise E('plain')\n"
              "def g(a):\n    raise E('at %r' % (a,))\n")
    assert raised_messages(ast.parse(source)) == ["plain", "at %r"]


def test_each_checked_constructor_message_is_written_once():
    trees = {module: ast.parse((PACKAGE / (module + ".py")).read_text())
             for module in CHECKED}
    strings = [node.value for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    messages = []
    for module, classes in CHECKED.items():
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                (check,) = [f for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and f.name == "__post_init__"]
                messages += raised_messages(check)
    assert len(messages) == 12
    assert {m: strings.count(m) for m in messages} == \
        dict.fromkeys(messages, 1)
    (along,) = [node for node in ast.walk(trees["spanv_core"])
                if isinstance(node, ast.FunctionDef)
                and node.name == "cell2_along"]
    assert not [node for node in ast.walk(along)
                if isinstance(node, ast.Raise)]


# The builders of 2-cells and span morphisms that take a source built
# already: a 1-cell is restricted by the atoms it is built on, a 2-cell
# only by the 1-cell it starts from, so they take a source and no atoms.
RESTRICTED_BY_SOURCE = {
    "spanv_core": {"hcomp2", "interchange_cell2"},
    "finset_span": {"compose_span_morphisms_h"},
}


def test_a_2_cell_is_restricted_only_by_its_source():
    for module, names in RESTRICTED_BY_SOURCE.items():
        tree = ast.parse((PACKAGE / (module + ".py")).read_text())
        found = {node.name: {a.arg for a in node.args.args
                             + node.args.kwonlyargs}
                 for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name in names}
        assert set(found) == names
        for name, params in found.items():
            assert "source" in params and \
                not {"atoms", "pairs"} & params, name


# The callers of the chain mechanism: a law's chain starts from a built
# 1-cell (_chained), composes each step atom by atom, and lands once, in
# the law's target (_landed).  It is the package's one way to chain
# 2-cells: no module defines a second one.
CHAINS = {"spanv_core": {"relabel_cell2", "tensor2", "interchange_cell2"},
          "monoidale_duoidal": {"_triangle_left", "_triangle_right",
                                "_alpha_reversed", "star2",
                                "_comparison_cells"},
          "hopf_structures": {"check_opmonoidal", "_fusion", "_lawful"}}
STEPS = {"_chained": {**CHAINS, "monoidale_duoidal": CHAINS[
    "monoidale_duoidal"] | {"_frobenius_shared_prefix"}}, "_landed": CHAINS}


def test_chain_steps_are_the_one_chain_mechanism():
    for name, expected in STEPS.items():
        assert package_scopes(callers, name) == expected, name
    for path in PACKAGE.glob("*.py"):
        assert "chain" not in {
            node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}, path.stem


# The readers of a backend's first_diff: the report's rule for equations
# on base values, the atom walk that eq2 decides 2-cells by, and the
# graded backends' delegation to the kernel.  A checker that locates a
# difference itself has hand-rolled a law equation; it goes through
# CheckReport or differences2 instead.
FIRST_DIFF = {"reporting": {"CheckReport.equal"},
              "spanv_core": {"differences2", "_GradedCells.first_diff"}}


def test_readers_finds_attribute_reads():
    source = ("def f(be):\n    return be.first_diff(1, 2)\n"
              "class B:\n    def first_diff(self):\n        pass\n")
    assert readers(source, "first_diff") == {"f"}


def test_first_diff_is_read_only_by_the_law_rule_and_the_atom_walk():
    assert package_scopes(readers, "first_diff") == FIRST_DIFF


# Outside the kernel, only the CLI's matrix reader builds a VMorphism
# from sparse rows: it parses each entry once into its row's nonzeros,
# so the checked constructor would only convert them again.
FROM_ROWS = {"cli": {"_matrix"}}


def test_from_rows_is_read_outside_the_kernel_only_by_the_matrix_reader():
    found = package_scopes(readers, "_from_rows")
    assert found.pop("vect_backend")
    assert found == FROM_ROWS


# The readers of __new__, which makes a value without running its
# constructor: the builder that finset_span._trusted makes per class,
# and the kernel's slotted constructors.  Any other reader would be a
# second unchecked path beside _trusted, out of checking mode's reach.
NEW = {"finset_span": {"_builder"},
       "vect_backend": {"VObject.__new__", "VMorphism._from_rows"}}


def test_new_is_read_only_by_the_trusted_builder_and_the_kernel():
    assert package_scopes(readers, "__new__") == NEW


# The package's builders of a FinCategory: the named shapes, the
# category of actions, and the product, whose composition is the
# ProductTable that composes in its factors on lookup, and whose src,
# tgt and identities are PairMap views on the factors' maps.  No package
# module tabulates the composition or the end maps of a product.
FIN_CATEGORY = {
    "cat_backend": {"FinCategory.from_monoid", "FinCategory.indiscrete",
                    "FinCategory.discrete"},
    "hopf_structures": {"_category_of_actions"},
    "spanv_core": {"_product_category"},
}


def builders(source, name):
    """The enclosing function of every call of name, or of _trusted
    with name as its class, in source."""
    return scopes(source, lambda node: isinstance(node, ast.Call) and (
        name_read(node.func) == name or name_read(node.func) == "_trusted"
        and name_read(node.args[0]) == name))


def test_builders_finds_checked_and_trusted_builds():
    source = ("def f():\n    return cb.FinCategory(1)\n"
              "def g():\n    return _trusted(FinCategory, 1)\n"
              "def h(c: FinCategory):\n    return isinstance(c, FinCategory)\n")
    assert builders(source, "FinCategory") == {"f", "g"}


def test_no_package_module_tabulates_a_product():
    assert package_scopes(builders, "FinCategory") == FIN_CATEGORY
    assert package_scopes(callers, "ProductTable") == \
        {"spanv_core": {"_product_category"}}
    tree = ast.parse((PACKAGE / "spanv_core.py").read_text())
    (build,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_product_category"]
    trusted = [node for node in ast.walk(build)
               if isinstance(node, ast.Call)
               and name_read(node.func) == "_trusted"]
    (call,) = [node for node in trusted
               if name_read(node.args[0]) == "FinCategory"]
    table = call.args[-1]
    assert isinstance(table, ast.Call) and \
        name_read(table.func) == "ProductTable"
    (maps,) = [node for node in trusted if name_read(node.args[0]) == "FinFn"]
    assert name_read(maps.args[-1].func) == "PairMap"
    assert not [node for node in ast.walk(build)
                if isinstance(node, (ast.Dict, ast.DictComp))]
