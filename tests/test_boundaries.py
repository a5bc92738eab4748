"""Every solver enters through `model.difference_graph` and leaves through
`model.scaled_layout`: no solver module validates a graph or builds a
`Representation` itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import layercloud

SOLVERS = ("flow.py", "twolayer.py", "exact.py")


def offences(source: str) -> list[str]:
    """Each reference to validate_graph and each Representation(...) call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "validate_graph":
            found.append(f"line {node.lineno}: validate_graph")
        elif isinstance(node, ast.Attribute) and node.attr == "validate_graph":
            found.append(f"line {node.lineno}: .validate_graph")
        elif isinstance(node, ast.alias) and node.name.endswith("validate_graph"):
            found.append(f"line {node.lineno}: import of validate_graph")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Representation":
                found.append(f"line {node.lineno}: Representation(...)")
    return found


@pytest.mark.parametrize("module", SOLVERS)
def test_solver_uses_the_model_entry_and_exit(module):
    source = (Path(layercloud.__file__).parent / module).read_text(encoding="utf-8")
    assert offences(source) == []


def test_guard_sees_each_offence():
    source = (
        "from .model import validate_graph\n"
        "from . import model\n"
        "model.validate_graph(g)\n"
        "r = Representation(x={}, epsilon=1)\n"
        "s = model.Representation(x={}, epsilon=1)\n"
        "def f(r: Representation) -> Representation: ...\n"
    )
    assert len(offences(source)) == 4
