"""The package's exported names, which callers and the CLI rely on."""

import credalchoice

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
