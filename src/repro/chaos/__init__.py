"""Chaos engineering for the serving layer: recipes, SLOs, harness.

The package runs declarative fault recipes (:class:`ChaosRecipe`)
against a live :class:`~repro.serve.server.MatmulServer` under
closed-loop load, then asserts an :class:`SLOSpec` — p99 ceilings, the
zero-silent-wrong-answer invariant, counter reconciliation and
multi-window error-budget burn rates.  See ``docs/OBSERVABILITY.md``
("Chaos & SLO gates") for the recipe schema and the ``abft_chaos_*``
metric inventory, and ``aabft chaos run`` / ``aabft ci-gate`` for the
CLI entry points.
"""

from .harness import run_chaos
from .recipe import (
    CHAOS_KINDS,
    ChaosRecipe,
    default_quick_suite,
    dump_recipes,
    load_recipes,
)
from .report import ChaosReport, RecipeOutcome
from .slo import BurnSample, SLOBreach, SLOSpec, burn_rates, evaluate_slo

__all__ = [
    "CHAOS_KINDS",
    "ChaosRecipe",
    "load_recipes",
    "dump_recipes",
    "default_quick_suite",
    "SLOSpec",
    "SLOBreach",
    "BurnSample",
    "burn_rates",
    "evaluate_slo",
    "ChaosReport",
    "RecipeOutcome",
    "run_chaos",
]
