"""The package's surface: every public function of src/ has a caller in src/,
and every dataclass field of src/ is read there."""

import ast
import pathlib
from collections import Counter

import hydrostokes

SRC = pathlib.Path(hydrostokes.__file__).parent

# the public names that no src/ code calls, each with its reason
EXCEPTIONS = {
    # the padding oracle of the products' passes; the resolution studies of
    # ROADMAP items 2 and 14 embed one sample across grids through it
    "nonlinear.pad_coeffs",
    # the benchmark's worker reads the Picard count of a solve through it
    "solver.IterationReport.iterations",
}

# the dataclass fields that no src/ code reads outside their class, each with its reason
FIELD_EXCEPTIONS = {
    # the benchmark's worker reads the semigroup suite's stable flags into
    # its correctness fingerprint
    "lab.ScanReport.stable",
}


def _public_defs(tree):
    """(qualified name, is method, def node) of the module's and its classes' public defs."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True, item


def _reads(tree):
    """Counts of the identifiers read in ``tree``, as bare names and as
    attributes.  Comments are not in the tree, and docstrings are constants,
    not identifiers."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def test_every_public_def_has_a_caller_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _reads(tree)
        names.update(n)
        attrs.update(a)
        # an import alone is not a read; a read of its alias reads the name it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.asname:
                        names[alias.name] += n[alias.asname]
    uncalled = set()
    for mod, tree in trees.items():
        for qual, method, node in _public_defs(tree):
            own_names, own_attrs = _reads(node)
            # a method is reached as an attribute, a function by name or as module.attr
            outside = attrs[node.name] - own_attrs[node.name]
            if not method:
                outside += names[node.name] - own_names[node.name]
            if not outside:
                uncalled.add(f"{mod}.{qual}")
    # an exception that src/ has come to call is dropped from the list
    assert sorted(uncalled) == sorted(EXCEPTIONS)


def test_package_init_holds_only_its_docstring():
    # no re-export layer: callers import the modules the commands use
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1


def _dataclass_fields(tree):
    """(qualified field name, class node) of each annotated field of the
    module's dataclasses."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield f"{node.name}.{item.target.id}", node


def _loads(tree):
    """Counts of the attributes read (not assigned or deleted) in ``tree``."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_dataclass_field_is_read_in_src():
    # a field that only its own class reads is state nothing consumes
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    loads = Counter()
    for tree in trees.values():
        loads.update(_loads(tree))
    unread = set()
    for mod, tree in trees.items():
        for qual, cls in _dataclass_fields(tree):
            name = qual.rsplit(".", 1)[1]
            if not loads[name] - _loads(cls)[name]:
                unread.add(f"{mod}.{qual}")
    # an exception that src/ has come to read is dropped from the list
    assert sorted(unread) == sorted(FIELD_EXCEPTIONS)


def test_fields_and_nonlinear_call_no_real_fft():
    # the real DFTs along n are the grid's column tables (basis.ColumnTables);
    # a call of numpy's real FFTs there would be a second path beside them
    real_ffts = {"rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"}
    for mod in ("fields", "nonlinear"):
        names, attrs = _reads(ast.parse((SRC / f"{mod}.py").read_text()))
        assert not real_ffts & (set(names) | set(attrs)), mod
