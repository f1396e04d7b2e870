"""Arithmetic-intensity-guided per-layer protection planning.

Per Kosaian & Rashmi, the right amount of fault tolerance for a GEMM
depends on where it sits on the roofline: compute-bound layers (high
op/byte ratio) hide a full A-ABFT pass behind arithmetic they already do,
mid-intensity layers afford the cheaper SEA check, and memory-bound
layers pay disproportionately for any extra traffic — they run unchecked
*only if* the model's end-to-end coverage target still holds.  The
:class:`ProtectionPlanner` turns a :class:`~repro.models.spec.ModelSpec`
into a :class:`ModelPlan`: one rung and one concrete
:class:`~repro.engine.config.AbftConfig` per layer, with coverage
(protected flops / total flops) as the constraint — layers upgrade from
unchecked in descending-intensity order until the target is met.

Low-precision layers map their protected rungs onto the variance-adaptive
scheme (:mod:`repro.bounds.adaptive`): the aabft/sea bounds model compute
rounding only, and the engine refuses them for fp16/bf16 storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..engine.config import AbftConfig
from ..errors import ConfigurationError
from ..perfmodel.intensity import arithmetic_intensity, gemm_bytes
from .spec import LayerSpec, ModelSpec

__all__ = ["PROTECTION_RUNGS", "LayerAssignment", "ModelPlan", "ProtectionPlanner"]

#: Protection rungs in decreasing strength; mirrors the serving ladder.
PROTECTION_RUNGS = ("full", "sea", "unchecked")


def _scheme_for(rung: str, layer: LayerSpec) -> str | None:
    """The engine scheme implementing a rung for a layer's dtype."""
    if rung == "unchecked":
        return None
    if layer.is_low_precision:
        return "adaptive"
    return "aabft" if rung == "full" else "sea"


@dataclass(frozen=True)
class LayerAssignment:
    """The planner's decision for one layer.

    Attributes
    ----------
    layer:
        The layer this assignment protects.
    rung:
        ``"full"`` | ``"sea"`` | ``"unchecked"``.
    scheme:
        The engine bound scheme implementing the rung (``"aabft"``,
        ``"sea"``, ``"adaptive"``), or ``None`` for unchecked layers.
    intensity:
        The layer's arithmetic intensity (flops / byte) at the model's
        batch size and the layer's storage dtype.
    flops / bytes:
        The roofline inputs the decision was made from.
    config:
        The concrete per-layer :class:`~repro.engine.config.AbftConfig`
        the runner executes under (``None`` for unchecked layers).
    upgraded:
        Whether the coverage constraint promoted this layer above what
        its intensity alone would have chosen.
    """

    layer: LayerSpec
    rung: str
    scheme: str | None
    intensity: float
    flops: float
    bytes: float
    config: AbftConfig | None = field(repr=False, default=None)
    upgraded: bool = False

    @property
    def protected(self) -> bool:
        return self.rung != "unchecked"

    def to_dict(self) -> dict:
        return {
            "layer": self.layer.name,
            "rung": self.rung,
            "scheme": self.scheme,
            "dtype": self.layer.dtype,
            "intensity": round(self.intensity, 3),
            "flops": self.flops,
            "bytes": self.bytes,
            "upgraded": self.upgraded,
        }


@dataclass(frozen=True)
class ModelPlan:
    """Per-layer protection assignments plus the coverage they add up to."""

    model: ModelSpec
    assignments: tuple[LayerAssignment, ...]
    coverage_target: float

    @property
    def coverage(self) -> float:
        """Protected flops as a fraction of the model's total flops."""
        total = sum(a.flops for a in self.assignments)
        if total == 0:
            return 0.0
        return sum(a.flops for a in self.assignments if a.protected) / total

    @property
    def meets_target(self) -> bool:
        return self.coverage >= self.coverage_target - 1e-12

    @property
    def mixed(self) -> bool:
        """Whether the plan assigns more than one distinct rung."""
        return len({a.rung for a in self.assignments}) > 1

    def assignment(self, layer_name: str) -> LayerAssignment:
        for a in self.assignments:
            if a.layer.name == layer_name:
                return a
        raise ConfigurationError(
            f"plan for model {self.model.name!r} has no layer {layer_name!r}"
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model.name,
            "batch": self.model.batch,
            "coverage_target": self.coverage_target,
            "coverage": round(self.coverage, 6),
            "assignments": [a.to_dict() for a in self.assignments],
        }

    def describe(self) -> str:
        """A human-readable per-layer decision table."""
        lines = [
            f"model {self.model.name!r} (batch={self.model.batch}): "
            f"coverage {self.coverage:.2%} "
            f"(target {self.coverage_target:.2%})"
        ]
        for a in self.assignments:
            scheme = a.scheme or "-"
            flag = " (upgraded)" if a.upgraded else ""
            lines.append(
                f"  {a.layer.name:<10} {a.layer.d_in}x{a.layer.d_out} "
                f"{a.layer.dtype:<8} ai={a.intensity:8.2f}  "
                f"{a.rung:<9} scheme={scheme}{flag}"
            )
        return "\n".join(lines)


class ProtectionPlanner:
    """Assigns per-layer protection from arithmetic intensity.

    Parameters
    ----------
    base_config:
        The config every per-layer config derives from (block size, p
        and omega carry over).
    coverage_target:
        Minimum fraction of the model's flops that must run protected;
        unchecked layers upgrade (highest intensity first — they are the
        cheapest to protect relative to their compute) until it is met.
    full_intensity / sea_intensity:
        Intensity thresholds (flops/byte): at or above ``full_intensity``
        a layer gets the full rung, at or above ``sea_intensity`` the
        cheaper SEA rung, below it unchecked (subject to the coverage
        constraint).
    """

    def __init__(
        self,
        base_config: AbftConfig | None = None,
        *,
        coverage_target: float = 0.85,
        full_intensity: float = 48.0,
        sea_intensity: float = 16.0,
    ) -> None:
        self.base_config = base_config if base_config is not None else AbftConfig()
        if not isinstance(self.base_config, AbftConfig):
            raise ConfigurationError(
                f"base_config must be an AbftConfig, got "
                f"{type(self.base_config).__name__}"
            )
        if not (0.0 <= coverage_target <= 1.0) or not math.isfinite(
            coverage_target
        ):
            raise ConfigurationError(
                f"coverage_target must be in [0, 1], got {coverage_target}"
            )
        if sea_intensity > full_intensity:
            raise ConfigurationError(
                f"sea_intensity ({sea_intensity}) must not exceed "
                f"full_intensity ({full_intensity})"
            )
        self.coverage_target = float(coverage_target)
        self.full_intensity = float(full_intensity)
        self.sea_intensity = float(sea_intensity)

    def _layer_config(self, rung: str, layer: LayerSpec) -> AbftConfig | None:
        scheme = _scheme_for(rung, layer)
        if scheme is None:
            return None
        return self.base_config.replace(
            scheme=scheme,
            dtype=layer.dtype if layer.is_low_precision else None,
        )

    def _rung_for(self, intensity: float) -> str:
        if intensity >= self.full_intensity:
            return "full"
        if intensity >= self.sea_intensity:
            return "sea"
        return "unchecked"

    def plan(self, model: ModelSpec) -> ModelPlan:
        """Plan the model: intensity rungs + coverage-constraint upgrades."""
        decided: list[dict] = []
        for layer in model.layers:
            m, k, n = model.batch, layer.d_in, layer.d_out
            intensity = arithmetic_intensity(m, n, k, dtype=layer.dtype)
            decided.append(
                {
                    "layer": layer,
                    "rung": self._rung_for(intensity),
                    "intensity": intensity,
                    "flops": layer.flops(model.batch),
                    "bytes": gemm_bytes(m, n, k, dtype=layer.dtype),
                    "upgraded": False,
                }
            )
        total = sum(d["flops"] for d in decided)

        def coverage() -> float:
            protected = sum(
                d["flops"] for d in decided if d["rung"] != "unchecked"
            )
            return protected / total if total else 0.0

        # Coverage constraint: promote unchecked layers, highest intensity
        # first (their protection overhead is smallest relative to their
        # compute), until the end-to-end target holds.
        candidates = sorted(
            (d for d in decided if d["rung"] == "unchecked"),
            key=lambda d: d["intensity"],
            reverse=True,
        )
        for d in candidates:
            if coverage() >= self.coverage_target:
                break
            d["rung"] = "sea"
            d["upgraded"] = True

        assignments = tuple(
            LayerAssignment(
                layer=d["layer"],
                rung=d["rung"],
                scheme=_scheme_for(d["rung"], d["layer"]),
                intensity=d["intensity"],
                flops=d["flops"],
                bytes=d["bytes"],
                config=self._layer_config(d["rung"], d["layer"]),
                upgraded=d["upgraded"],
            )
            for d in decided
        )
        return ModelPlan(
            model=model,
            assignments=assignments,
            coverage_target=self.coverage_target,
        )
