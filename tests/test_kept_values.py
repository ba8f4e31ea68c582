"""Every value the library keeps between calls is keyed by its call.

`setrel.Memo._kept(fn, *args)` keeps fn(owner, *args) under the key
(fn,) + args, so a key misses a read only when fn reads something other
than its arguments and the parts of its owner that no call can change.
The germs of one action share one cache over all its chains
(`GActionGerm.on_chain`), so the fields a germ's chain fixes, `ne`,
`deepest`, `masks` and `inverse_masks`, are such reads.  Walking the
library's ASTs, this checks that

- every `._kept(...)` call passes, as fn, a module-level function of the
  package by its name: no lambda, nested def, bound method or partial,
  so fn closes over nothing, and fn has no default or variadic
  parameter;
- fn reads its owner, its first parameter, only through attributes
  other than the chain fields, and hands it on only as the receiver of
  `_kept` or of a method, or as an argument of a package function,
  either of which keeps the same rule for it (checked in turn);
- only `Memo` defines `_kept` or touches the cache dict `_cache`.

The last tests run the same checks on small modules, one for each way
of missing a read, which each check must refuse.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqprox"

# The fields of an action germ that its chain fixes.
CHAIN_FIELDS = {"ne", "deepest", "masks", "inverse_masks"}


def package_modules():
    """The library's module trees, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def imported_names(tree):
    """local name -> (module, name) for `from .module import name`, and
    local name -> (module, None) for `from . import module`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = ((node.module, alias.name) if node.module
                              else (alias.name, None))
    return out


def parents(tree):
    """child node -> parent node, over the whole tree."""
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


class Package:
    """Name resolution over the modules of one package."""

    def __init__(self, modules):
        self.modules = modules
        self.functions = {
            name: {node.name: node for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
            for name, tree in modules.items()}
        self.imports = {name: imported_names(tree)
                        for name, tree in modules.items()}
        self.methods = {}  # method name -> [(module, class, def)]
        for name, tree in modules.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.methods.setdefault(item.name, []).append(
                                (name, node.name, item))
        self.parent = {name: parents(tree) for name, tree in modules.items()}

    def function(self, module, node):
        """(module, def) of the module-level package function that the
        expression node names in module, or None."""
        if isinstance(node, ast.Name):
            if node.id in self.functions[module]:
                return module, self.functions[module][node.id]
            home, name = self.imports[module].get(node.id, (None, None))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            home, alias = self.imports[module].get(node.value.id,
                                                   (None, None))
            name = node.attr if alias is None else None
        else:
            return None
        if name in self.functions.get(home, {}):
            return home, self.functions[home][name]
        return None

    def local_names(self, module, node):
        """The names bound inside every function that encloses node."""
        out = set()
        while node in self.parent[module]:
            node = self.parent[module][node]
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                out.update(a.arg for a in ast.walk(node.args)
                           if isinstance(a, ast.arg))
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.FunctionDef, ast.ClassDef)):
                        out.add(inner.name)
                    elif (isinstance(inner, ast.Name)
                          and isinstance(inner.ctx, ast.Store)):
                        out.add(inner.id)
        return out


def kept_calls(package):
    """(module, call) for every `._kept(...)` call."""
    for module, tree in package.modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_kept"):
                yield module, node


def kept_function(package, module, call):
    """(module, def) of the function a `_kept` call keeps, or a message
    saying why it is not a module-level function passed by name."""
    where = f"{module}:{call.lineno}"
    if not call.args or isinstance(call.args[0], ast.Starred):
        return f"{where}: `_kept` is given no function"
    fn = call.args[0]
    if isinstance(fn, ast.Name) and fn.id in package.local_names(module,
                                                                 call):
        return f"{where}: `_kept` keeps the local {fn.id!r}"
    found = package.function(module, fn)
    if found is None:
        return (f"{where}: `_kept` keeps {ast.unparse(fn)!r}, not a "
                "module-level function of the package")
    args = found[1].args
    if (args.defaults or args.kw_defaults or args.vararg or args.kwarg
            or args.kwonlyargs or not args.posonlyargs + args.args):
        return f"{where}: {found[1].name} takes other than plain parameters"
    return found


def owner_reads(package, module, fdef, owner, seen):
    """Every way fdef reads or hands on its parameter owner against the
    rule, following the functions and methods it hands the owner to."""
    key = (module, id(fdef), owner)
    if key in seen:
        return []
    seen.add(key)
    where = f"{module}.{fdef.name}"
    parent = package.parent[module]
    out = []
    for node in ast.walk(fdef):
        if not (isinstance(node, ast.Name) and node.id == owner):
            continue
        up = parent[node]
        if not isinstance(node.ctx, ast.Load):
            out.append(f"{where} rebinds {owner}")
        elif isinstance(up, ast.Attribute):
            if up.attr in CHAIN_FIELDS:
                out.append(f"{where} reads {owner}.{up.attr}")
            elif up.attr != "_kept":
                for home, _cls, method in package.methods.get(up.attr, []):
                    out += owner_reads(package, home, method,
                                       method.args.args[0].arg, seen)
        elif isinstance(up, ast.Call) and node in up.args:
            callee = package.function(module, up.func)
            params = ([] if callee is None else
                      callee[1].args.posonlyargs + callee[1].args.args)
            i = up.args.index(node)
            if i < len(params):
                out += owner_reads(package, callee[0], callee[1],
                                   params[i].arg, seen)
            else:
                out.append(f"{where} hands {owner} to "
                           f"{ast.unparse(up.func)}")
        else:
            out.append(f"{where} hands {owner} on: {ast.unparse(up)}")
    return out


def memo_only(package):
    """Every definition of `_kept` and read of `_cache` outside Memo."""
    out = []
    for module, tree in package.modules.items():
        parent = package.parent[module]
        for node in ast.walk(tree):
            named = ((isinstance(node, ast.FunctionDef)
                      and node.name == "_kept")
                     or (isinstance(node, ast.Attribute)
                         and node.attr == "_cache"))
            if not named:
                continue
            up = node
            while up in parent and not isinstance(up, ast.ClassDef):
                up = parent[up]
            if not (isinstance(up, ast.ClassDef) and up.name == "Memo"):
                out.append(f"{module}:{node.lineno}: `_kept` or `_cache` "
                           "outside Memo")
    return out


def violations(modules):
    """Every breach of the rules above in the package of these modules."""
    package = Package(modules)
    out = memo_only(package)
    seen = set()
    for module, call in kept_calls(package):
        found = kept_function(package, module, call)
        if isinstance(found, str):
            out.append(found)
            continue
        home, fdef = found
        owner = (fdef.args.posonlyargs + fdef.args.args)[0].arg
        out += owner_reads(package, home, fdef, owner, seen)
    return sorted(set(out))


def test_every_kept_value_is_keyed_by_its_call():
    modules = package_modules()
    assert sum(1 for _ in kept_calls(Package(modules))) >= 19
    assert violations(modules) == []


# One module per way of missing a read.
MISSES = {
    "lambda": """
def f(a):
    return a._kept(lambda a: a.act)
""",
    "nested def": """
def f(a, z):
    def table(a):
        return z
    return a._kept(table)
""",
    "bound method": """
def f(a):
    return a._kept(a.group.subgroups)
""",
    "partial": """
from functools import partial

def g(a, z):
    return z

def f(a, z):
    return a._kept(partial(g, z=z))
""",
    "default": """
def g(a, z=0):
    return z

def f(a):
    return a._kept(g)
""",
    "chain read": """
def g(a, u):
    return a.masks[-1]

def f(a, u):
    return a._kept(g, u)
""",
    "chain read in a callee": """
def h(x, a):
    return a.deepest

def g(a):
    return h(0, a)

def f(a):
    return a._kept(g)
""",
    "chain read in a method": """
class Germ:
    def level(self):
        return self.ne.levels[-1]

def g(a):
    return a.level()

def f(a):
    return a._kept(g)
""",
    "owner handed to a class": """
class Report:
    pass

def g(a):
    return Report(a)

def f(a):
    return a._kept(g)
""",
    "owner aliased": """
def g(a):
    b = a
    return b.deepest

def f(a):
    return a._kept(g)
""",
    "cache read outside Memo": """
def f(a):
    return a._cache
""",
}


@pytest.mark.parametrize("source", MISSES.values(), ids=MISSES)
def test_each_way_to_miss_a_read_is_refused(source):
    assert violations({"m": ast.parse(source)})


def test_a_kept_function_may_read_its_arguments_and_fixed_fields():
    source = """
class Germ:
    def moved(self, u):
        return self._kept(g, u)

def h(a, level):
    return [a.act[v] for v in level]

def g(a, u):
    return a.carrier, u.basis

def k(a, level):
    return h(a, level), a.moved(0)

def f(a, u):
    return a._kept(g, u), a._kept(k, a.deepest)
"""
    assert violations({"m": ast.parse(source)}) == []
