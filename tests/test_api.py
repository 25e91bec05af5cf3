"""The public API: every exported name resolves, and one batch contract.

A stale ``__all__`` entry fails here rather than in a user's ``import *``;
level differences enter the estimator only as a ``delta_batch``, so no
module defines a per-draw generator factory again; and schedules are their
formulas, checked by one finite-work rule, so none of the bump, the second
schedule cache, the arithmetic-only law check or the distance wrapper
returns; nor does any other name or field that no experiment reaches.
The exports of the package, the tuning module and the harness are
pinned, so adding or dropping one shows in review.
"""

import importlib
import pkgutil
from dataclasses import fields

import ubmc
from ubmc import harness, tuning
from ubmc.couplings import CoupledKernel, MarkovKernel
from ubmc.independence_sampler import UniformPriorModel
from ubmc.models import EllipticModel
from ubmc.pcn import PcnModel

# Names deleted from the library; tests that still need a reference keep
# their own copy in conftest.
DELETED = {
    "strictly_increasing", "_checked_prefix", "_arithmetic_survival", "DistanceLike",
    "minorized_step", "subgeometric_schedule", "PcnDistance", "pcn_distance",
    "pcn_acceptance", "circle_arc", "elliptic_observation_gap", "_dims_pair",
    "_block_rows", "second_moment_formula", "expected_work", "optimal_survival",
    "PartialKnowledgeResult", "_lane_block",
}


def test_exports_resolve_and_no_per_draw_generators():
    modules = [ubmc] + [
        importlib.import_module(f"ubmc.{info.name}") for info in pkgutil.iter_modules(ubmc.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
        per_draw = [
            name for name in vars(module)
            if name in ("LevelDifferenceGenerator", "_per_lane") or name.endswith("_generator")
        ]
        assert not per_draw, f"{module.__name__} defines {per_draw}"
        deleted = [name for name in vars(module) if name in DELETED]
        assert not deleted, f"{module.__name__} defines {deleted}"


def test_public_names_are_pinned():
    assert set(ubmc.__all__) == {
        "BatchResult",
        "ContractionFit",
        "CoupledKernel",
        "EstimatorError",
        "LevelSchedule",
        "MarkovKernel",
        "NonFiniteDeltaError",
        "Stream",
        "SurvivalDistribution",
        "UnbiasedDraw",
        "contraction_delta_batch",
        "estimate_batch",
        "estimate_once",
        "estimate_contraction",
        "sample_truncation",
    }


def test_tuning_names_are_pinned():
    assert set(tuning.__all__) == {
        "MseWorkReport",
        "msework_report",
        "contracting_delta_variances",
        "msework_optimum",
        "contracting_optimal_survival",
        "ergodic_msework_limit",
        "polylog_minus_half",
        "unbiased_msework",
        "optimal_w",
        "step_multiplier",
        "partial_knowledge_optimize",
    }


def test_harness_names_are_pinned():
    assert set(harness.__all__) == {
        "ConfigError",
        "ExperimentConfig",
        "run_experiment",
        "ergodic_baseline",
        "BaselineResult",
        "compare_msework",
        "EXPERIMENTS",
        "BLOCK_SIZE",
    }


def test_no_dead_fields():
    # Fields that every constructor set and no code read.
    assert "dim" not in {f.name for f in fields(MarkovKernel)}
    assert "marginal" not in {f.name for f in fields(CoupledKernel)}
    assert "lipschitz" not in {f.name for f in fields(PcnModel)}
    # Caches replaced by one checked, read-only array per model.
    assert "_eig_cache" not in {f.name for f in fields(PcnModel)}
    widths_model = UniformPriorModel(half_widths=lambda k: 1.0, forward=None, y=[0.0], alpha_star=1.0)
    assert not hasattr(widths_model, "_widths_cache")
    for name in ("coefficient_values", "coefficient_lower_bound", "coefficient_upper_bound"):
        assert not hasattr(EllipticModel, name), name
