"""Vertex-set families parametrising gauge-invariant ideals, on finite models.

Two backends (higher-rank-graph skeletons and partial-map dynamical systems)
expose the same calculus of commuting inverse-image operators; on top sit
family checks, enumeration, lattice construction and a verification harness.

The public names below resolve on first access (PEP 562): ``import
giideals`` loads none of the package's modules, and ``giideals.join`` loads
only what ``families`` needs.
"""

import importlib

#: Each public name, grouped by the module that defines it.
_PUBLIC = {
    "core": (
        "BudgetExceededError",
        "DirectionModel",
        "InternalConsistencyError",
        "InvalidInputError",
        "MAX_VERTICES",
        "canonical_masks",
        "direction_covers",
        "free_directions",
        "i_family",
        "inv_set",
        "j_family",
        "jf_of",
        "ker_phi",
        "label_to_mask",
        "largest_perp_invariant",
        "lim_set",
        "mask_label",
        "mask_of",
        "phi_n",
        "xf_inverse",
    ),
    "corpus": ("CorpusSpec", "iter_corpus_models", "random_model"),
    "crossval": (
        "DiscrepancyReport",
        "katsura_oracle",
        "property_suite",
        "theorem_a_sweep",
    ),
    "dynsys": ("PartialMapSystem",),
    "families": (
        "CheckReport",
        "EnumerationResult",
        "enumerate_relative_o",
        "enumerate_t_families",
        "is_invariant",
        "is_nt_tuple",
        "is_partially_ordered",
        "is_relative_o_family",
        "is_t_family",
        "join",
        "meet",
    ),
    "kgraph": ("KGraphSkeleton",),
    "lattice": ("LatticeGraph", "build_lattice", "export_dot", "export_json"),
    "modelio": (
        "family_from_doc",
        "family_to_doc",
        "load_model",
        "load_model_path",
        "model_fingerprint",
    ),
}

#: public name -> the module that defines it
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
