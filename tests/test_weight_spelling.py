"""src/ spells a weight one way, and a constants ledger one way.

SpaceTimeWeight is constructed only in the weight methods of lyapunov.py's
two specs, and no call of .weight() passes an argument, so a weight of
amplitude f eps_T is reached as spec.scaled(f).weight() alone: the weight a
check or the ledger reads is then the weight of the certificate that
calibrates its growth.  ConstantsLedger is constructed only in
hypotheses.ledger_of, so a ledger rebuilt from the store and one just
estimated have the same window and the same bits.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kernelbound"


def calls(source: str) -> list:
    """(enclosing class, enclosing def, call) for each call of source."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                if isinstance(child, ast.Call):
                    found.append((cls, fn, child))
                visit(child, cls, fn)

    visit(ast.parse(source), None, None)
    return found


def called(call: ast.Call):
    """The name a call reaches: a bare name or an attribute."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def constructions(source: str, name: str) -> set:
    """(class, def) of each construction of the class name in source."""
    return {(cls, fn) for cls, fn, call in calls(source) if called(call) == name}


def weight_calls_with_arguments(source: str) -> list:
    """The line of each .weight(...) call of source that passes an argument."""
    return [call.lineno for _, _, call in calls(source)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "weight"
            and (call.args or call.keywords)]


def sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_the_scan_sees_a_construction_and_an_argument():
    source = ("class A:\n    def f(self, spec):\n"
              "        return spec.weight(0.5), ly.SpaceTimeWeight('power', 1.0, 1.0, 1.0)\n")
    assert constructions(source, "SpaceTimeWeight") == {("A", "f")}
    assert weight_calls_with_arguments(source) == [3]


def test_the_scan_sees_a_ledger_construction():
    source = ("def ledger_of(d):\n    return ConstantsLedger(d=d)\n"
              "class A:\n    def merge(self, led):\n"
              "        return bounds.ConstantsLedger(d=led.d)\n")
    assert constructions(source, "ConstantsLedger") == {(None, "ledger_of"), ("A", "merge")}


def constructed(name: str) -> set:
    """(module, class, def) of each construction of the class name in src/."""
    return {(module, *site) for module, text in sources().items()
            for site in constructions(text, name)}


def test_only_the_specs_weight_methods_construct_a_weight():
    assert constructed("SpaceTimeWeight") == {("lyapunov.py", "LyapunovSpec", "weight"),
                                              ("lyapunov.py", "TimeLyapunovSpec", "weight")}


def test_only_ledger_of_constructs_a_ledger():
    assert constructed("ConstantsLedger") == {("hypotheses.py", None, "ledger_of")}


def test_no_weight_call_passes_an_argument():
    assert {name: lines for name, text in sources().items()
            if (lines := weight_calls_with_arguments(text))} == {}
