"""The package's exported names, which callers and the CLI rely on, and no name a module never reads."""

import ast
from pathlib import Path

import pytest

import credalchoice

MODULES = sorted(p for p in Path(credalchoice.__file__).parent.glob("*.py") if p.name != "__init__.py")

EXPORTED = {
    "errors": [
        "ArityConflictError", "CapExceededError", "CCLError", "CyclicityError", "InfeasibleError",
        "ParseError", "TheoryValidationError", "UnboundedError", "UnknownAtomError",
    ],
    "inference": [
        "IntervalResult", "MassFunction", "credal_bounds_single_space", "credal_bounds_strong_extension",
        "enumerate_vertices", "icl_mass_function", "icl_probability", "marginal_polytope", "outer_bound",
        "proxy_in_credal_set", "proxy_query_value",
    ],
    "logic": [
        "Atom", "Clause", "Interpretation", "Literal", "Program", "Term", "atom", "check_acyclic", "ground",
        "parse_program", "stable_model",
    ],
    "psat": [
        "bisect_bounds", "build_psat_instance", "choice_formula", "completion_formula", "enumerate_models",
        "export_psat", "inner_point", "psat_decide",
    ],
    "ranking": [
        "RankingDataset", "build_ranking_theory", "counts_from_rankings", "decide_preference", "evaluate",
        "pairwise_query", "parse_counts_csv", "parse_rankings", "smooth_marginals",
    ],
    "theory": [
        "Alternative", "CCLTheory", "ChoiceSpace", "Query", "alternative", "from_icl", "load_ccl",
        "merge_spaces", "parse_ccl", "parse_query", "query", "validate_theory",
    ],
    "worlds": [
        "World", "WorldSpace", "build_world_space", "coherent_partial_choices", "enumerate_total_choices",
        "satisfies",
    ],
}


def test_every_exported_name_is_a_package_attribute_from_its_module():
    for module, names in EXPORTED.items():
        source = getattr(credalchoice, module)
        for name in names:
            assert getattr(credalchoice, name) is getattr(source, name), f"{module}.{name}"


def _unread_names(tree: ast.Module) -> set[str]:
    """The names a module imports, or binds at top level with a leading ``_``, that it never loads."""
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return (imported | private) - loaded


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_and_private_name_is_read(path):
    assert _unread_names(ast.parse(path.read_text())) == set()
