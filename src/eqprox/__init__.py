"""Finite-instance computations for proximities, uniformities and group
actions, with exhaustive verification oracles and a symbolic model of the
ordered rationals."""

from .setrel import Carrier, Rel, compose, diagonal, full_relation, invert
from .proximity import AxiomReport, Prox, check_axioms, dominates, \
    from_uniformity, is_separated
from .uniformity import UnifBase, discrete_basis, indiscrete_basis, \
    induced_topology, is_hausdorff, refinement_equivalent, refines, \
    validate_basis
from .gaction import ClassificationReport, FiniteGroup, GActionGerm, \
    NeighborhoodBase, check_action_continuity, classify, saturate_uniformity
from .equivariant import beta_g_proximity, bracket_entourage, \
    check_equinormal, compute_ug, is_massive, nu_proximity

__all__ = [
    "Carrier", "Rel", "compose", "diagonal", "full_relation", "invert",
    "AxiomReport", "Prox", "check_axioms", "dominates", "from_uniformity",
    "is_separated", "UnifBase", "discrete_basis", "indiscrete_basis",
    "induced_topology", "is_hausdorff", "refinement_equivalent", "refines",
    "validate_basis", "ClassificationReport",
    "FiniteGroup", "GActionGerm", "NeighborhoodBase",
    "check_action_continuity", "classify", "saturate_uniformity",
    "beta_g_proximity", "bracket_entourage", "check_equinormal",
    "compute_ug", "is_massive", "nu_proximity",
]
