"""Every public name of src/gl11 is read by the program, or listed here on purpose.

The check is static and name-level.  It lists the public functions, classes
and methods defined in ``src/gl11`` and keeps those whose name appears
nowhere in the code of ``src/gl11``, ``scripts/`` or ``perfbench/``: not as a
``Name``, not as an ``Attribute``, not in an import, and not in a string of
``perfbench/tracing.py`` (its layer targets, such as
``"LocalMatrix.inverse"``).  The tests do not count as readers.  Because it
reads names, not bindings, a definition whose name is shared with code that
is used escapes it: a ``copy`` method no one calls would pass, since numpy
arrays' ``copy`` is read.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gl11"
TRACING = ROOT / "perfbench" / "tracing.py"

# defined in src/gl11 and read only by the tests, on purpose
UNREAD = {
    "cech.gl_higgs_constraints",  # criterion 3, awaiting a command
    "cech.higgs_from_global",  # criterion 3, awaiting a command
    "cech.sl_higgs_obstruction",  # criterion 3, awaiting a command
    "fatgraph.GraphConnection.vertex_rescale",  # criterion 6d, awaiting a command
    "hitchin.LocalFunction.constant",  # how a Grassmann constant enters a LocalFunction
    "integrable.residue_matrix",  # the Garnier residue A_i of the paper
    "supergroup.higgs_eigen",  # criterion 4, awaiting a command
}


def public_definitions():
    """module.name and module.Class.name of every public def and class in src/gl11."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found["%s.%s" % (path.stem, node.name)] = node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            found["%s.%s.%s" % (path.stem, node.name, item.name)] = item.name
    return found


def names_read():
    """Every name a Name, Attribute or import node of the program reads, and the
    dotted parts of every string in perfbench/tracing.py."""
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    read.update(alias.name.split("."))
            elif (path == TRACING and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.update(node.value.split("."))
    return read


def test_every_public_name_is_read_or_listed():
    read = names_read()
    unread = {qualified for qualified, name in public_definitions().items() if name not in read}
    assert unread == UNREAD
