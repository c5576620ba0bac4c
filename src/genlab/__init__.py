"""Exact-arithmetic toolkit for learning across families of labeled domains.

Builds finite labeled distributions, hypothesis classes over small instance
spaces, and distributions over domains; measures per-domain error and the mass
of domains where a hypothesis errs above a threshold; computes a shattering
dimension for domain families via partial concept classes; constructs hard
families (parity-anchored, threshold-sliced, flipped extensions); and runs
seeded, replayable experiments on top of all of it.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A name is looked up in
# its submodule on every access (PEP 562), so `import genlab` loads no
# submodule and `genlab.X` is always the object `genlab.<module>.X` holds.
_EXPORTS = {
    "Atom": "core",
    "CertificateError": "core",
    "ConfigError": "core",
    "ConstructionError": "core",
    "DomainFamily": "core",
    "GenlabError": "core",
    "Hypothesis": "core",
    "HypothesisClass": "core",
    "LabeledDistribution": "core",
    "LabeledSample": "core",
    "MetaDistribution": "core",
    "SpaceMismatchError": "core",
    "domain_error": "core",
    "domain_risk": "core",
    "empirical_error": "core",
    "flip_labels": "core",
    "mix": "core",
    "optimal_tau": "core",
    "DimensionQuery": "dimensions",
    "GdimResult": "dimensions",
    "PartialConceptClass": "dimensions",
    "ShatteringCertificate": "dimensions",
    "VcResult": "dimensions",
    "gdim": "dimensions",
    "induce_partial_class": "dimensions",
    "partial_vc_dim": "dimensions",
    "restriction_count": "dimensions",
    "verify_certificate": "dimensions",
    "ErrorTable": "learner",
    "TrainingSet": "learner",
    "draw_domain_indices": "learner",
    "estimate_errors": "learner",
    "exact_error_table": "learner",
    "minmax_erm": "learner",
    "pooled_erm": "learner",
    "sample_size_for": "learner",
    "sample_training_set": "learner",
    "uniform_weights": "learner",
    "BASE_RATE": "constructions",
    "LargeKFamily": "constructions",
    "LowerBoundFamily": "constructions",
    "ThresholdSlice": "constructions",
    "adversarial_meta": "constructions",
    "large_k_family": "constructions",
    "large_k_lower_bound": "constructions",
    "largest_k_for": "constructions",
    "lower_bound_family": "constructions",
    "odd_even_domain": "constructions",
    "product_family": "constructions",
    "slot_for_subset_mask": "constructions",
    "subset_mask_for_slot": "constructions",
    "unanimous_point_mass": "constructions",
    "Cover": "divergence",
    "DivergenceQuery": "divergence",
    "EmptyQualifyingSetWarning": "divergence",
    "checked_cover": "divergence",
    "cover_bound_check": "divergence",
    "cover_is_valid": "divergence",
    "greedy_cover": "divergence",
    "h_divergence": "divergence",
    "smooth_family": "divergence",
    "ExperimentReport": "experiments",
    "LowerBoundConfig": "experiments",
    "ScalingConfig": "experiments",
    "TrialRow": "experiments",
    "UniformConvergenceConfig": "experiments",
    "exposure_trial": "experiments",
    "run_lower_bound": "experiments",
    "run_scaling": "experiments",
    "run_uniform_convergence": "experiments",
    "FormatError": "serialize",
    "certificate_from_dict": "serialize",
    "certificate_to_dict": "serialize",
    "cover_from_dict": "serialize",
    "cover_to_dict": "serialize",
    "domain_from_dict": "serialize",
    "domain_to_dict": "serialize",
    "error_table_from_dict": "serialize",
    "error_table_to_dict": "serialize",
    "family_from_dict": "serialize",
    "family_to_dict": "serialize",
    "hypothesis_class_from_dict": "serialize",
    "hypothesis_class_to_dict": "serialize",
    "load_certificate": "serialize",
    "load_domain": "serialize",
    "load_family": "serialize",
    "load_hypothesis_class": "serialize",
    "load_meta": "serialize",
    "meta_from_dict": "serialize",
    "meta_to_dict": "serialize",
    "rational_from_str": "serialize",
    "rational_to_str": "serialize",
    "training_set_from_dict": "serialize",
    "training_set_to_dict": "serialize",
    "write_hypothesis_class": "serialize",
    "write_json_atomic": "serialize",
    "write_text_atomic": "serialize",
    "DEFAULT_SEED": "seeding",
    "derive_seed": "seeding",
    "rng_for": "seeding",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
