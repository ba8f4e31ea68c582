"""Every function, class and method of the library has a caller in the
library, every `__slots__` entry and dataclass field is read in the
library, no `__slots__` lists an instance ``__dict__``, and every name a
library module imports is read in it.

A definition counts as reached when its name is read anywhere in another
module of the package (``__init__`` aside, whose re-exports reach
nothing) or anywhere in its own module besides the definition.  Matching
by name can miss dead code (an unrelated name may shadow it) but never
flags live code.  Dunder methods are reached by the interpreter and are
not collected.  A slot or field counts as read when some library module
loads an attribute of that name; dunder slots such as ``__dict__`` are
not collected.  The import check leaves out ``__init__``, whose imports
are re-exports, and ``__future__`` features.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqprox"

# Builders kept for the tests of other code, one line of reason each.
ALLOWED = {
    "Prox.overlap": "the finest proximity, a fixture and oracle",
    "Prox.nonempty_pairs": "the coarsest proximity, a fixture and oracle",
    "FiniteGroup.symmetric": "S_m fixtures for group and action tests",
    "indiscrete_basis": "the coarsest uniformity, a fixture and oracle",
    "bracket_entourage": "production side of the bracket differential test",
}

# Stored values kept for callers outside the library, one line of reason
# each.
ALLOWED_FIELDS = {
    "FiniteMetric.dist": "the metric's defining matrix, read by callers "
                         "and oracles",
}


def definitions(tree):
    """(qualified name, name) for module-level functions and classes and
    the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def names_read(tree):
    """Every identifier the module reads: names, attributes, imported
    names and string constants (for getattr-style lookups)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
    return out


def unreached():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {mod: names_read(tree) for mod, tree in trees.items()}
    dead = []
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        elsewhere = {name for other, names in reads.items()
                     if other not in (mod, "__init__") for name in names}
        own = set(reads[mod])
        for qualified, name in definitions(tree):
            if name not in elsewhere and name not in own:
                dead.append(f"{mod}.{qualified}")
    return dead


def test_every_definition_has_a_library_caller():
    dead = [d for d in unreached() if d.split(".", 1)[1] not in ALLOWED]
    assert dead == []


def test_allowlist_names_only_unreached_definitions():
    reached_anyway = set(ALLOWED) - {d.split(".", 1)[1] for d in unreached()}
    assert reached_anyway == set()


def _is_dataclass(node):
    """Whether the class is decorated `@dataclass` or `@dataclass(...)`."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _slots(item):
    """The names a class-body statement assigns to `__slots__`, if any."""
    if (isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets)):
        return [elt.value for elt in item.value.elts]
    return []


def fields(tree):
    """(qualified name, name) for the non-dunder `__slots__` entries and
    the dataclass fields of the module's classes."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            names = _slots(item)
            if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                names = [item.target.id]
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{node.name}.{name}", name


def unread_fields():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    return [qualified for tree in trees
            for qualified, name in fields(tree) if name not in loaded]


def test_every_field_is_read_in_the_library():
    assert [f for f in unread_fields() if f not in ALLOWED_FIELDS] == []


def test_field_allowlist_names_only_unread_fields():
    assert set(ALLOWED_FIELDS) - set(unread_fields()) == set()


def test_no_slots_list_an_instance_dict():
    # Every kept value goes through `setrel.Memo._kept`; an instance
    # dict would let a class keep values (or a test shadow a method) past
    # its declared slots.
    with_dict = [f"{path.stem}.{node.name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.ClassDef)
                 for item in node.body if "__dict__" in _slots(item)]
    assert with_dict == []


def unread_imports():
    """module.name for every name a module imports and never loads."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in loaded:
                        unread.append(f"{path.stem}.{bound}")
    return unread


def test_every_imported_name_is_read():
    assert unread_imports() == []
