"""Only ``elements`` knows how an element stores its terms: no other module
reads ``_terms`` or the ``terms`` view, calls ``sorted_terms``, calls
``_raw`` on an element class, or imports ``_accumulate`` or a helper of the
partition codes and their block-code table."""

import ast
from pathlib import Path

import ncsym

MODULES = sorted(Path(ncsym.__file__).parent.glob("*.py"))
ELEMENT_CLASSES = frozenset({"NCSymElement", "SymElement"})
VIEW_ATTRIBUTES = frozenset({"_terms", "terms", "sorted_terms"})
PRIVATE_NAMES = frozenset({"_accumulate", "_block_code", "_block_codes", "_spread",
                           "_encode", "_decoder", "_element"})


def term_format_uses(source: str) -> list[str]:
    """'line: what' for each read of ._terms or .terms, use of
    .sorted_terms, call of an element class's _raw and import of a name in
    PRIVATE_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in VIEW_ATTRIBUTES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_raw" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ELEMENT_CLASSES):
            found.append(f"{node.lineno}: {node.func.value.id}._raw")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{node.lineno}: import {alias.name}" for alias in node.names
                         if alias.name in PRIVATE_NAMES)
    return found


def test_detector_flags_each_kind_of_use():
    source = (
        "from .elements import NCSymElement, SymElement, _accumulate\n"
        "def route(value, pi):\n"
        "    terms = dict(value._terms)\n"
        "    _accumulate(terms, pi, 1)\n"
        "    SymElement._raw('p', 0, {})\n"
        "    return NCSymElement._raw('p', pi.n, terms)\n"
        "def allowed(value, n):\n"
        "    return SetPartition._raw(n, ()), value.term, terms\n"
        "def view(value):\n"
        "    return value.terms, value.sorted_terms()\n"
    )
    assert sorted(term_format_uses(source)) == [
        "10: .sorted_terms", "10: .terms", "1: import _accumulate", "3: ._terms",
        "5: SymElement._raw", "6: NCSymElement._raw"]


def test_detector_flags_imports_of_the_code_helpers():
    source = (
        "from .elements import _block_code, _block_codes, _spread, from_block_masks\n"
        "from ncsym.elements import _encode, _decoder, _element\n"
        "from .partitions import _mask_partitions\n"
    )
    assert sorted(term_format_uses(source)) == [
        "1: import _block_code", "1: import _block_codes", "1: import _spread",
        "2: import _decoder", "2: import _element", "2: import _encode"]


def test_only_elements_knows_the_term_format():
    found = {path.name: term_format_uses(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "elements.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}
