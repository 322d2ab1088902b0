"""Every definition in `src/converge` has a caller in `src/`.

A function, class or method counts as called when its name appears as a
name or an attribute anywhere in `src/` outside its own body. A class-level
annotated field (a dataclass field) counts as read when its name appears as
an attribute anywhere in `src/`. Matching is by name alone, so a name shared
with another definition can hide dead code, but a definition that only the
tests reach fails.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "converge"

# kept before their callers land; each entry must still be uncalled
ALLOWED_FILES = {"bounds.py"}  # ROADMAP items 4 and 6: filter_count_factor, the bound columns
ALLOWED_NAMES = {"estimate_lipschitz"}  # ROADMAP item 6: BoundInputs.lipschitz
ALLOWED_FIELDS = {
    "ambient_dim",  # ROADMAP item 3: the D sweep reports it
    # the hidden layers' diagnostics of `network.ContinuumNetwork`
    "quadrature_residuals",  # ROADMAP item 5: the propagated oracle bound
    "feature_l2_norms",  # ROADMAP item 6: BoundInputs for delta_n
    "feature_sup_norms",  # ROADMAP item 6: BoundInputs and the Hoeffding bound
}


def uncalled_definitions():
    """(file, line, name) of each definition that nothing in `src/` refers to."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
    uncalled = []
    for path, node in defs:
        name, inside = node.name, range(node.lineno, node.end_lineno + 1)
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(n == name and not (p == path and line in inside) for p, n, line in refs):
            uncalled.append((path, node.lineno, name))
    return uncalled


def unread_fields():
    """(file, line, name) of each class-level annotated field that nothing in
    `src/` reads as an attribute."""
    fields, attrs = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                fields += [
                    (path.name, item.lineno, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [(path, line, name) for path, line, name in fields if name not in attrs]


def test_every_field_is_read():
    unread = unread_fields()
    unexpected = [entry for entry in unread if entry[2] not in ALLOWED_FIELDS]
    assert not unexpected, f"fields nothing in src/ reads: {unexpected}"
    # an allowlist entry that gains a reader leaves the list
    assert ALLOWED_FIELDS <= {name for _, _, name in unread}


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions()
    unexpected = [
        (path, line, name)
        for path, line, name in uncalled
        if path not in ALLOWED_FILES and name not in ALLOWED_NAMES
    ]
    assert not unexpected, f"definitions with no caller in src/: {unexpected}"
    # an allowlist entry that gains a caller leaves the list
    assert ALLOWED_NAMES <= {name for _, _, name in uncalled}
    assert ALLOWED_FILES <= {path for path, _, _ in uncalled}
