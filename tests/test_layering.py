"""The package's import layering, checked on the AST.

The engine tier (``ir``, ``dialects``, ``passes``, ``sim``) sits below
everything that *uses* it; ``analysis`` and ``scenarios`` sit below the
service; ``obs`` imports no other layer at all, and the fault hook
(``repro/faults.py``) and the collector's owner (``repro/permanent.py``)
nothing from ``repro``.  No source imports the
test suite.  Lazy imports inside functions count too — an upward import
hidden in a function body is still a cycle waiting for a caller.

The test suite has one differential harness (``tests/differential.py``):
no other module states a backend matrix, an ``observables`` or the
pass contracts, and no test module imports another.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

ENGINE_TIER = ("sim", "ir", "dialects", "passes")
ABOVE_THE_ENGINE = ("generators", "scenarios", "analysis", "service", "tools")

#: lower layer -> the layers it must never import from.
RULES = {
    **{layer: ABOVE_THE_ENGINE for layer in ENGINE_TIER},
    "analysis": ("service",),
    "scenarios": ("service",),
    # Telemetry sits under every layer that reports into it.
    "obs": ENGINE_TIER + ABOVE_THE_ENGINE + ("baselines",),
}


def imported_modules(path: Path):
    """Every module a file imports (anywhere in it), as absolute dotted
    names with relative imports resolved against the file's package."""
    package = ("repro",) + path.relative_to(PACKAGE).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            stem = ".".join(base + ((node.module,) if node.module else ()))
            for alias in node.names:
                # ``from .. import service`` names a subpackage too.
                yield node.lineno, f"{stem}.{alias.name}"


@pytest.mark.parametrize("layer", sorted(RULES))
def test_layer_imports_nothing_above_it(layer):
    files = sorted((PACKAGE / layer).rglob("*.py"))
    assert files, f"no sources under repro/{layer}"
    forbidden = tuple(f"repro.{upper}." for upper in RULES[layer])
    violations = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: imports {module}"
        for path in files
        for line, module in imported_modules(path)
        if (module + ".").startswith(forbidden)
    ]
    assert not violations, "\n".join(violations)


def test_the_fault_hook_imports_nothing_from_repro():
    """Every layer calls ``repro.faults.fire``, so it sits under all."""
    path = PACKAGE / "faults.py"
    assert not [
        module
        for _, module in imported_modules(path)
        if (module + ".").startswith("repro.")
    ]


def test_the_collector_owner_imports_nothing_from_repro():
    """The IR parser holds collection off with ``repro.permanent.paused``,
    so it sits under all."""
    path = PACKAGE / "permanent.py"
    assert not [
        module
        for _, module in imported_modules(path)
        if (module + ".").startswith("repro.")
    ]


def test_no_source_imports_the_test_suite():
    """The fault plane (``tests/faults.py``) stays out of the product."""
    violations = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: imports {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in imported_modules(path)
        if (module + ".").startswith("tests.")
    ]
    assert not violations, "\n".join(violations)


def test_code_version_lives_below_the_sweep_layers(monkeypatch):
    """``service.store`` keeps re-exporting the one ``code_version`` and
    ``EQUEUE_CODE_VERSION`` keeps overriding it."""
    from repro.codeversion import code_version
    from repro.service import code_version as from_service
    from repro.service.store import code_version as from_store
    from repro.sim import journal

    assert from_service is from_store is journal.code_version is code_version
    digest = code_version()
    monkeypatch.setenv("EQUEUE_CODE_VERSION", "bumped")
    assert code_version() != digest


# ---------------------------------------------------------------------------
# The test suite: one differential harness
# ---------------------------------------------------------------------------

TESTS = Path(__file__).resolve().parent
HARNESS = TESTS / "differential.py"

#: Names of a backend matrix or of the pass contracts: stated once, in
#: the harness.
MATRIX_NAMES = {
    "MODES", "SCHEDULERS", "TIERS", "VARIANTS", "BACKENDS", "PASS_CONTRACTS",
}


@pytest.fixture(scope="module")
def suite():
    """Every module of the test suite, as ``(path, its AST nodes)``."""
    return [
        (path, list(ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
        for path in sorted(TESTS.rglob("*.py"))
    ]


def _matrix_or_observables(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "observables":
                yield node.lineno, "defines observables"
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id in MATRIX_NAMES:
                    yield node.lineno, f"assigns {name.id}"


def _test_modules_imported(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for module in modules:
            if module.split(".")[-1].startswith("test_"):
                yield node.lineno, f"imports {module}"


def test_only_the_harness_states_a_backend_matrix_or_observables(suite):
    violations = [
        f"{path.relative_to(TESTS.parent)}:{line}: {what}"
        for path, nodes in suite
        if path != HARNESS
        for line, what in _matrix_or_observables(nodes)
    ]
    assert not violations, "\n".join(violations)


def test_no_test_module_imports_another(suite):
    violations = [
        f"{path.relative_to(TESTS.parent)}:{line}: {what}"
        for path, nodes in suite
        if path.name.startswith("test_")
        for line, what in _test_modules_imported(nodes)
    ]
    assert not violations, "\n".join(violations)
