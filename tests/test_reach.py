"""What the command line reaches: every function of ``rootclose`` that
no CLI path enters is named here, with the reason it stays.

The scan is function-level: ``sys.setprofile`` records the code object
of every Python call while ``cli.main`` runs a fixed set of commands.
A function is named by its place in the source (module, classes and
enclosing functions), read with ``ast``.  Caches are cleared before
each run, so a cached body counts as entered by every run that needs it.
A new function that no run enters fails the test until it is declared
below or reached.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

import rootclose
from rootclose import cli

SRC = Path(rootclose.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

ORACLE = "test oracle"
BENCH = "read by name in bench/"
DUNDER = "protocol dunder"
ITEM_4 = "ROADMAP item 4: total == decides it or deletes it"
ITEM_11 = "ROADMAP item 11 retires it, with bench/'s reads of it"

#: The functions no run enters, and why each stays.
NEVER_ENTERED = {
    "closure.LocalElem.__eq__": DUNDER,
    "closure.LocalElem.__pow__": DUNDER,
    "closure.LocalElem.__repr__": DUNDER,
    "closure.certified_pi_factor": ITEM_11,
    "fontaine.FontaineElem.__eq__": DUNDER,
    "fontaine.FontaineElem.__neg__": DUNDER,
    "fontaine.FontaineElem.__repr__": DUNDER,
    "fontaine.FontaineElem.is_zero": ITEM_4,
    "fontaine.NonIntegralComponentError.__init__": ITEM_4,
    "fontaine.UndeterminedCongruenceError.__init__": (
        f"{BENCH} (tracer.py counts it); report._run_checks maps the error to undetermined"
    ),
    "fontaine._p_closure_cert": (
        "step 2 of the certified division; acceptance criterion 4 enters it "
        "through check_compat and equals of the certified quotient"
    ),
    "report.cert_from_json": BENCH,
    "tower.ResidueElem.__new__": BENCH,
    "tower.RingOps.__radd__": DUNDER,
    "tower.RingOps.__rsub__": DUNDER,
    "tower.TowerElem.__repr__": DUNDER,
    "tower.TowerElem.one_like": f"{DUNDER}: x ** 0 in TowerElem.__pow__",
    "witt.WittVec.__neg__": DUNDER,
    "witt.WittVec.__repr__": DUNDER,
    "witt._ghost_poly": ITEM_11,
    "witt._poly_add": ITEM_11,
    "witt._poly_mul": ITEM_11,
    "witt._poly_pow": ITEM_11,
    "witt._poly_scale": ITEM_11,
    "witt.witt_polynomials": ITEM_11,
    "witt.witt_theta": ORACLE,
}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> qualified name, for every
    function and method; a decorated one starts at its first decorator."""
    out = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for module in MODULES:
        path = SRC / f"{module}.py"
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{module}.")
    return out


def _clear_caches() -> None:
    for module in MODULES:
        for value in vars(importlib.import_module(f"rootclose.{module}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _main(*argv: str) -> str:
    """What ``cli.main`` prints to stdout; a usage error or ``--help``
    exits through ``SystemExit``, which ends the call."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
            cli.main(list(argv))
    return out.getvalue()


EXAMPLES = {
    "p5-d3": (),
    "p7-d2": ("--p", "7", "--depth", "2"),
    "p5-d2-w3": ("--depth", "2", "--witt-len", "3"),
    "plain": ("--mode", "plain"),
    "p65521-d100-w101": ("--p", "65521", "--depth", "100", "--witt-len", "101"),
}

#: integral, a member with m = 1, a miss, a structural refutation
EXPRESSIONS = (
    "x^(2/5)*y^(3/25)-3",
    "(p^(3/5)+x^(3/5)+y^(3/5))/p^(1/5)",
    "(x+y)/p^(1/5)",
    "1/p^(1/5)",
)


def _runs(tmp: Path) -> dict:
    """Name -> a call of ``cli.main`` commands: ``example`` at each config
    with ``revalidate`` of its report in JSON and in text, ``props``,
    ``eval`` of each expression with and without --check-closure, plus
    one that does not parse, and the argv argparse answers itself: an
    unknown command, ``eval`` without its expression and ``--help``."""

    def example(name: str, args: tuple) -> None:
        path = tmp / f"{name}.json"
        path.write_text(_main("example", *args, "--format", "json", "--no-timestamp"))
        for fmt in ("json", "text"):
            _main("revalidate", str(path), "--format", fmt)

    def evals() -> None:
        for expr in EXPRESSIONS:
            _main("eval", expr)
            _main("eval", expr, "--check-closure", "--format", "json")
        _main("eval", "(x+")

    def usage() -> None:
        for argv in (("bogus",), ("eval",), ("--help",)):
            _main(*argv)

    runs = {f"example-{n}": lambda n=n, a=a: example(n, a) for n, a in EXAMPLES.items()}
    runs["props"] = lambda: _main("props", "--seed", "0", "--no-timestamp")
    runs["eval"] = evals
    runs["usage"] = usage
    return runs


@pytest.fixture(scope="module")
def scan(tmp_path_factory) -> dict[str, set[str]]:
    """Run name -> the qualified names of the functions it enters; the
    scan's time is this fixture's setup under ``--durations``."""
    functions, entered = _functions(), {}
    for name, run in _runs(tmp_path_factory.mktemp("reach")).items():
        codes = set()

        def profile(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)

        _clear_caches()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        places = {(code.co_filename, code.co_firstlineno) for code in codes}
        entered[name] = {qualname for place, qualname in functions.items() if place in places}
    return entered


def _never_entered(entered: dict[str, set[str]], runs) -> list[str]:
    return sorted(set(_functions().values()).difference(*(entered[r] for r in runs)))


def test_every_function_no_cli_path_enters_is_declared(scan):
    entered = scan
    assert _never_entered(entered, entered) == sorted(NEVER_ENTERED)


def test_negative_control_without_props_the_invariants_are_unreached(scan):
    # props is the only run that enters the invariants: without it, the
    # scan must report every one of them
    entered = scan
    invariants = {name for name in _functions().values() if name.startswith("invariants.")}
    assert invariants and not invariants & set(NEVER_ENTERED)
    without_props = _never_entered(entered, [r for r in entered if r != "props"])
    assert invariants <= set(without_props) - set(NEVER_ENTERED)
