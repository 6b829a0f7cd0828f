"""``reference.py`` stays independent of what it checks: it takes from cgsys
only node and error classes, ``to_string`` and the DP8 tableau, never the
tape, its ops or the Runge-Kutta loop."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")
ALLOWED = {"cgsys.expr": {"Expr", "Const", "Var", "Unary", "Binary", "Atan2", "ExprError",
                          "DomainError", "UnboundVariableError", "to_string"},
           "cgsys.flow": {"_DP8_A", "_DP8_B", "_DP8_C", "_DP8_E3", "_DP8_E5"}}


def disallowed(path: Path) -> list[str]:
    """Every module.name that the file imports from cgsys outside ALLOWED; a
    whole module imported counts as module.*."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cgsys"):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "*") for alias in node.names
                      if alias.name.split(".")[0] == "cgsys"]
    return [f"{module}.{name}" for module, name in found
            if name not in ALLOWED.get(module, ())]


def test_reference_imports_no_code_it_checks(tmp_path):
    assert disallowed(REFERENCE) == []
    # negative control: a copy that imports the tape's pow, or a whole module
    copy = tmp_path / "reference.py"
    copy.write_text(REFERENCE.read_text(encoding="utf-8")
                    + "\nfrom cgsys.expr import _pow_values\nimport cgsys.flow\n")
    assert disallowed(copy) == ["cgsys.expr._pow_values", "cgsys.flow.*"]
