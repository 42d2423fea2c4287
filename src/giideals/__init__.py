"""Vertex-set families parametrising gauge-invariant ideals, on finite models.

Two backends (higher-rank-graph skeletons and partial-map dynamical systems)
expose the same calculus of commuting inverse-image operators; on top sit
family checks, enumeration, lattice construction and a verification harness.
"""

from .core import (
    BudgetExceededError,
    DirectionModel,
    InternalConsistencyError,
    InvalidInputError,
    MAX_VERTICES,
    canonical_masks,
    direction_covers,
    free_directions,
    i_family,
    inv_set,
    j_family,
    jf_of,
    ker_phi,
    label_to_mask,
    largest_perp_invariant,
    lim_set,
    mask_label,
    mask_of,
    phi_n,
    xf_inverse,
)
from .crossval import (
    CorpusSpec,
    DiscrepancyReport,
    iter_corpus_models,
    katsura_oracle,
    property_suite,
    random_model,
    theorem_a_sweep,
)
from .dynsys import PartialMapSystem, load_dynsys
from .families import (
    CheckReport,
    EnumerationResult,
    enumerate_relative_o,
    enumerate_t_families,
    is_invariant,
    is_nt_tuple,
    is_partially_ordered,
    is_relative_o_family,
    is_t_family,
    join,
    meet,
)
from .kgraph import KGraphSkeleton, load_kgraph
from .lattice import LatticeGraph, build_lattice, export_dot, export_json
from .modelio import (
    family_from_doc,
    family_to_doc,
    load_model,
    load_model_path,
    model_fingerprint,
)

__version__ = "0.1.0"
