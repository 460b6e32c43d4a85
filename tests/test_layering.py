"""The module layering of ``rootclose``, read from the source with ``ast``."""

import ast
from pathlib import Path

import rootclose

SRC = Path(rootclose.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> sibling module, for every relative import:
    ``from . import m`` binds m to m, ``from .m import x`` binds x to m."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module or alias.name
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree: ast.Module) -> list[str]:
    """Underscore names taken from a sibling module, by import or by
    attribute access on the module."""
    modules = {name for name, source in _package_imports(tree).items() if name == source}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reads += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_lower_layers_import_only_the_layers_below():
    allowed = {"tower": {"valuation"}, "closure": {"tower"}, "fontaine": {"closure", "tower"}}
    for module, below in allowed.items():
        assert set(_package_imports(_tree(module)).values()) == below, module


def test_no_module_reads_another_modules_private_names():
    assert {m: _private_reads(_tree(m)) for m in MODULES} == {m: [] for m in MODULES}


def test_the_private_read_scan_catches_both_forms():
    # negative control for the scan above
    tree = ast.parse("from . import closure\nfrom .tower import _new, TowerElem\nclosure._hidden(1)\n")
    assert sorted(_private_reads(tree)) == ["closure._hidden", "tower._new"]


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name the code defines, reads, imports or takes as an
    attribute; string contents (a JSON key, say) are not names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_only_closure_names_the_structural_refutation():
    users = [m for m in MODULES if "definite_nonmember" in _identifiers(_tree(m))]
    assert users == ["closure"]


#: The operators ``tower.RingOps`` derives once, and the classes that may
#: still define each: a sequence's ``-`` is one componentwise pass and a Witt
#: vector's its own ghost pass, and a Witt vector derives nothing.
DERIVED = {
    "__radd__": {"tower.RingOps"},
    "__rmul__": {"tower.RingOps"},
    "__rsub__": {"tower.RingOps"},
    "__sub__": {"tower.RingOps", "fontaine.FontaineElem", "witt.WittVec"},
    "__hash__": {"tower.RingOps", "witt.WittVec"},
}


def _class_names(cls: ast.ClassDef) -> set[str]:
    """The names a class body binds, by ``def`` or by assignment (an
    alias such as ``__radd__ = __add__``, or ``__hash__ = None``)."""
    out = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return out


def _operator_homes(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per derived operator, every class that binds it, as module.Class."""
    homes = {name: set() for name in DERIVED}
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for name in _class_names(cls) & set(DERIVED):
                homes[name].add(f"{module}.{cls.name}")
    return homes


def test_each_derived_operator_has_one_definition():
    assert _operator_homes({m: _tree(m) for m in MODULES}) == DERIVED


def test_ring_ops_takes_none_of_the_traced_methods():
    # bench/tracer.py wraps methods in their own class's dict, so RingOps
    # binds the derived operators alone: none of +, *, -x, ** or a kernel
    (cls,) = [n for n in _tree("tower").body if isinstance(n, ast.ClassDef) and n.name == "RingOps"]
    assert _class_names(cls) == {"__slots__", *DERIVED}


def test_the_operator_scan_catches_an_alias():
    # negative control for the scan above: an alias counts as a definition
    tree = ast.parse(
        "class A:\n    def __add__(self, other):\n        return self\n    __radd__ = __add__\n"
    )
    assert _operator_homes({"m": tree})["__radd__"] == {"m.A"}


#: The run's searches: a checker that reached one would decide a claim by
#: doing the run's work again instead of checking its witness.
SEARCHES = {
    "divide_by_p_seq",
    "divide_by_p_seq_minus_p",
    "factor_by_p_seq",
    "membership",
    "run_example_suite",
}


def _reach(tree: ast.Module) -> dict[str, list[ast.FunctionDef]]:
    """Per function of the ``check`` column of ``EXAMPLE_CHECKS``, and
    ``_decide``: the functions of the module it runs, itself included,
    found by following the names each one reads to the module's other
    functions."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXAMPLE_CHECKS"]
    ]
    checkers = [row.elts[3].id for row in table.elts] + ["_decide"]
    reach = {}
    for checker in checkers:
        seen, todo = set(), [checker]
        while todo:
            name = todo.pop()
            if name in functions and name not in seen:
                seen.add(name)
                todo += _identifiers(functions[name])
        reach[checker] = [functions[n] for n in sorted(seen)]
    return reach


def _searches_reached(tree: ast.Module) -> dict[str, set[str]]:
    """The searches each checker names, directly or through a function of
    the same module that it calls."""
    return {
        checker: set().union(*map(_identifiers, functions)) & SEARCHES
        for checker, functions in _reach(tree).items()
    }


#: The layers whose work the checkers judge: what they read of them.
JUDGED = {"fontaine", "witt"}
ALLOWED = {"fontaine.default_m_max"}  # a one-line formula, depth + 2


def _judged_names(tree: ast.Module, function: ast.FunctionDef) -> set[str]:
    """Names of a judged layer in ``function``: an attribute of the
    module, the module itself, or a name imported from it."""
    sources = {name: m for name, m in _package_imports(tree).items() if m in JUDGED}
    bases = {id(n.value) for n in ast.walk(function) if isinstance(n, ast.Attribute)}
    out = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if sources.get(node.value.id) == node.value.id:
                out.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in sources and id(node) not in bases:
            source = sources[node.id]
            out.add(source if node.id == source else f"{source}.{node.id}")
    return out


def _layers_reached(tree: ast.Module) -> dict[str, set[str]]:
    """The names of ``fontaine`` and ``witt`` each checker reads, directly
    or through a function of the same module that it calls, but
    ``ALLOWED``."""
    return {
        checker: set().union(*(_judged_names(tree, f) for f in functions)) - ALLOWED
        for checker, functions in _reach(tree).items()
    }


def test_no_checker_reaches_a_search():
    reached = _searches_reached(_tree("report"))
    assert len(reached) == 7
    assert reached == {checker: set() for checker in reached}


def test_the_search_scan_catches_a_checker_that_names_one():
    # negative control for the scan above: one search named directly,
    # one through a helper, and a witness's search that is not read
    tree = ast.parse(
        "def _decide(c, n):\n    return closure.membership(c)\n"
        "def _helper(x):\n    return witt.divide_by_p_seq_minus_p(x)\n"
        "def _check(d, cfg):\n    return _helper(d)\n"
        "def _witness(cfg, eta):\n    return fontaine.factor_by_p_seq(eta)\n"
        "EXAMPLE_CHECKS = (('name', _witness, ('key',), _check),)\n"
    )
    assert _searches_reached(tree) == {
        "_check": {"divide_by_p_seq_minus_p"},
        "_decide": {"membership"},
    }


def test_checkers_run_on_tower_and_closure_alone():
    # the checker is small: it reads nothing of the sequence and Witt
    # layers whose results it judges but the search bound's formula
    reached = _layers_reached(_tree("report"))
    assert len(reached) == 7
    assert reached == {checker: set() for checker in reached}


def test_the_layer_scan_catches_a_checker_that_reads_one():
    # negative control for the scan above: witt.WittVec through a helper,
    # an imported name, the bare module, and a witness that is not read
    tree = ast.parse(
        "from . import fontaine, tower, witt\n"
        "from .fontaine import PLAIN, FontaineElem\n"
        "def _decide(c, n):\n    return fontaine.default_m_max(n) + tower.MAX_LEVEL\n"
        "def _helper(x):\n    return witt.WittVec.teichmuller(x)\n"
        "def _check(d, cfg):\n    return _helper(FontaineElem(d, PLAIN))\n"
        "def _other(d, cfg):\n    return getattr(witt, 'p_seq_minus_p')\n"
        "def _witness(cfg, eta):\n    return fontaine.factor_by_p_seq(eta)\n"
        "EXAMPLE_CHECKS = (('a', _witness, ('k',), _check), ('b', _witness, ('k',), _other))\n"
    )
    assert _layers_reached(tree) == {
        "_check": {"witt.WittVec", "fontaine.FontaineElem", "fontaine.PLAIN"},
        "_other": {"witt"},
        "_decide": set(),
    }
