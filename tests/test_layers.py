"""The package's layering, read from each module's package-relative imports.

cgf is the bottom layer: the CGF interface, the one Fourier integrand, the
standardized tilted CF and the quadrature rule a model states. The models
and the saddlepoint solver sit on it, and the inversion layer on the
solver; it takes whatever model it is given, so it names none of them.
Only the registry (estimation) and the CLI name models and evaluators
together. Within the layers, every Fourier rule, SPI's and direct IFT's,
sums the one integrand cgf states (line_integrand, the one function of
cgf that takes K off the real axis); the inversion layer takes K off the
real axis itself only to probe how far a contour must run, and a cosine
only to place the Chebyshev nodes; every rule's lines are placed from one
site, and every rule's points are added up by one function. No module
imports a name it never uses, or a private name of another module.
"""

import ast
from pathlib import Path

import pytest

import spinv

_PACKAGE = Path(spinv.__file__).resolve().parent


def _relative_imports(module):
    """The sibling modules that spinv/<module>.py imports by a relative import."""
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_reader_sees_the_imports_the_registry_makes():
    assert _relative_imports("estimation") >= {"errors", "inversion", "models"}


def test_cgf_imports_only_errors():
    assert _relative_imports("cgf") == {"errors"}


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("inversion", {"models", "estimation", "cli"}),
        ("models", {"inversion", "estimation", "cli"}),
        ("saddlepoint", {"models", "inversion", "estimation", "cli"}),
    ],
)
def test_lower_layers_import_no_higher_one(module, forbidden):
    assert not _relative_imports(module) & forbidden


def _callers(calls, module="inversion"):
    """The functions of spinv/<module>.py that make a call calls(func) accepts, func being an ast.Attribute."""
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text())
    return {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and calls(node.func)
    }


def test_inversion_takes_k_complex_only_in_the_decay_probe():
    # every summed integrand comes from cgf (line_integrand), so a rule
    # cannot grow its own copy of it
    assert _callers(lambda f: f.attr == "k_complex") == {"_decay_cut"}


def test_cgf_takes_k_complex_only_in_the_one_integrand():
    assert _callers(lambda f: f.attr == "k_complex", "cgf") == {"line_integrand"}


def test_inversion_takes_a_cosine_only_for_the_chebyshev_nodes():
    # the CF is finished into an integrand in cgf alone, direct IFT's
    # included; the one cosine left places the fit's nodes, cos(pi j/256)
    assert _callers(lambda f: f.attr in ("cos", "sin")) == {"_interpolated"}


def test_inversion_sums_only_in_the_one_sum():
    # .sum, np.sum and np.add.reduce(at) only in _even_odd, so that each
    # rule's sums, and any indicator added to them, are formed once
    def adds(f):
        on_add = isinstance(f.value, ast.Attribute) and f.value.attr == "add"
        return f.attr == "sum" or (on_add and f.attr in ("reduce", "reduceat"))

    assert _callers(adds) == {"_even_odd"}


@pytest.mark.parametrize(
    "rule, sites",
    [
        ("_contour_lines", ["_lines"]),
        ("_fixed_lines", ["_lines"]),
        ("_lines", ["_interpolated", "p_bar_zero_batch"]),
    ],
)
def test_inversion_places_each_rules_lines_from_one_site(rule, sites):
    # each rule's lines are placed only through _lines, which the core
    # calls from one site in the fit and one on the per-row path; how many
    # placements the fit makes is counted by test_inversion.py's
    # TestPlacement::test_one_k1_k2_and_one_decay_probe_per_placement
    tree = ast.parse((_PACKAGE / "inversion.py").read_text())
    found = [
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == rule
    ]
    assert found == sites


# the names perfbench/tracing.py patches on cli by name, which cli itself
# never uses; ROADMAP item 1 drops the patching, and this list with it
_PATCHED_BY_TRACER = {"cli": {"spi_log_density", "spa_log_density", "Nig", "MjdTransition"}}


_MODULES = sorted(set(_PACKAGE.glob("*.py")) - {_PACKAGE / "__init__.py"})


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    # the project runs no linter: an import that a change leaves behind is found by reading the module
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == _PATCHED_BY_TRACER.get(path.stem, set())


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_private_name_of_another(path):
    # a name with a leading underscore belongs to its own module; a layer
    # that needs one asks its owner for a public name or does the work itself
    tree = ast.parse(path.read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
