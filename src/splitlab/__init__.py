"""splitlab: degeneracy splitting of ground-subspace codes under local perturbations.

The package quantifies how strongly a perturbation splits the degenerate
ground subspace of a gapped hamiltonian, constructs worst-case single-site
perturbations for commuting two-local models, and predicts and simulates the
dephasing those perturbations induce.

Every public name is written once, in ``_EXPORTS`` under its home module.
Importing the package loads none of them: a name, or a module named as
``splitlab.<module>``, loads its home module the first time it is read
(PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "code_space": ("CodeSubspace", "full_space_code", "ground_subspace", "project_onto_code"),
    "dynamics": (
        "BathModel", "CoherenceReport", "NoiseDistribution", "bath_embedding_check",
        "coherence_time", "dephasing_factors", "dephasing_time_series",
        "evolve_mixture_grid", "fidelity_bound_check", "gap_bound_check",
        "predict_dephasing", "worst_code_state"),
    "models": (
        "LocalModel", "QuditSystem", "block_sites", "four_two_two_model", "model_to_json",
        "pauli_string_matrix", "random_commuting_model", "repetition_model",
        "stabilizer_hamiltonian", "two_local_model"),
    "no_hiding": (
        "AttackReport", "NoHidingWitness", "no_hiding_witness", "no_hiding_witness_batch",
        "pair_side_norms", "subspace_pair_score_scan", "two_site_attack"),
    "operators": (
        "DensityOp", "HermOp", "Ket", "Projector", "apply_local", "embed", "fidelity",
        "helstrom", "herm_eig", "herm_propagator", "operator_norm", "partial_trace",
        "reduced_states", "trace_norm"),
    "report": ("CheckResult",),
    "splitting": ("IdsReport", "ids", "kl_check", "worst_single_site_ascent"),
    "structure": (
        "GroundFactorization", "StructureError", "commuting_model_attack",
        "detect_multi_sector", "factor_ground_projector", "multi_sector_attack",
        "operator_schmidt", "sector_projectors", "site_algebra"),
    "verify": ("run_battery",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
