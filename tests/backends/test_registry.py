"""Backend registry: registration, lazy build, capability negotiation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    Backend,
    BackendCapabilities,
    BackendRegistry,
    NumpyBackend,
    default_registry,
    get_backend,
    negotiate,
)
from repro.backends.registry import ENV_BACKEND
from repro.engine import AbftConfig
from repro.errors import ConfigurationError


class CountingBackend(Backend):
    """A numpy clone that records how many times it was constructed."""

    built = 0

    def __init__(self):
        type(self).built += 1
        self._inner = NumpyBackend()

    @property
    def name(self):
        return "counting"

    def capabilities(self):
        return BackendCapabilities(name="counting")

    def matmul(self, a, b, *, out=None, tile=None, pool=None):
        return self._inner.matmul(a, b, out=out, tile=tile, pool=pool)


class UnavailableBackend(Backend):
    @property
    def name(self):
        return "broken"

    def capabilities(self):
        return BackendCapabilities(name="broken")

    def availability(self):
        return False, "hardware missing"

    def matmul(self, a, b, *, out=None, tile=None, pool=None):
        raise AssertionError("must never dispatch")


class NonDeterministicBackend(Backend):
    @property
    def name(self):
        return "fuzzy"

    def capabilities(self):
        return BackendCapabilities(name="fuzzy", deterministic=False)

    def matmul(self, a, b, *, out=None, tile=None, pool=None):
        return a @ b


class TinyBackend(Backend):
    """Capability-limited: refuses anything beyond 100 elements."""

    @property
    def name(self):
        return "tiny"

    def capabilities(self):
        return BackendCapabilities(name="tiny", max_elements=100)

    def matmul(self, a, b, *, out=None, tile=None, pool=None):
        return a @ b


def make_registry() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register("numpy", NumpyBackend)
    registry.register("counting", CountingBackend)
    registry.register("broken", UnavailableBackend)
    registry.register("fuzzy", NonDeterministicBackend)
    registry.register("tiny", TinyBackend)
    return registry


class TestRegistry:
    def test_lazy_single_instantiation(self):
        registry = make_registry()
        CountingBackend.built = 0
        assert CountingBackend.built == 0  # registration builds nothing
        first = registry.get("counting")
        second = registry.get("counting")
        assert first is second
        assert CountingBackend.built == 1

    def test_unknown_name_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_registry().get("nope")

    def test_duplicate_requires_replace(self):
        registry = make_registry()
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("numpy", NumpyBackend)
        registry.register("numpy", CountingBackend, replace=True)
        assert isinstance(registry.get("numpy"), CountingBackend)

    def test_contains_and_names(self):
        registry = make_registry()
        assert "numpy" in registry and "nope" not in registry
        assert registry.names()[0] == "numpy"

    def test_default_registry_ships_two_backends(self):
        names = default_registry().names()
        assert names == ["numpy", "blocked"]
        assert get_backend("numpy").availability() == (True, None)

    def test_describe_reports_availability(self):
        rows = {row["name"]: row for row in make_registry().describe()}
        assert rows["numpy"]["available"]
        assert not rows["broken"]["available"]
        assert rows["broken"]["reason"] == "hardware missing"
        assert rows["fuzzy"]["deterministic"] is False


class TestNegotiation:
    DTYPE = np.dtype(np.float64)

    def negotiate(self, config, *, m=64, n=64, q=64, environ=None, tuner=None):
        return negotiate(
            config,
            m,
            n,
            q,
            self.DTYPE,
            registry=make_registry(),
            autotuner=tuner,
            environ=environ if environ is not None else {},
        )

    def test_auto_defaults_to_numpy(self):
        sel = self.negotiate(AbftConfig())
        assert (sel.backend, sel.source) == ("numpy", "default")
        assert sel.fallback_from is None

    def test_config_pin_wins(self):
        sel = self.negotiate(AbftConfig(backend="counting"))
        assert (sel.backend, sel.source) == ("counting", "pinned")

    def test_env_pin_applies_to_auto_configs(self):
        sel = self.negotiate(
            AbftConfig(), environ={ENV_BACKEND: "counting"}
        )
        assert (sel.backend, sel.source) == ("counting", "env")

    def test_config_pin_beats_env_pin(self):
        sel = self.negotiate(
            AbftConfig(backend="counting"), environ={ENV_BACKEND: "fuzzy"}
        )
        assert (sel.backend, sel.source) == ("counting", "pinned")

    def test_unavailable_pin_falls_back_with_reason(self):
        sel = self.negotiate(AbftConfig(backend="broken"))
        assert sel.backend == "numpy"
        assert sel.fallback_from == "broken"
        assert sel.fallback_reason == "hardware missing"

    def test_unknown_pin_falls_back_with_reason(self):
        sel = self.negotiate(AbftConfig(backend="imaginary"))
        assert sel.backend == "numpy"
        assert "unknown backend" in sel.fallback_reason

    def test_excluded_pin_falls_back(self):
        # Config validation forbids pinning an excluded backend, so the
        # exclusion arrives via the environment pin instead.
        sel = self.negotiate(
            AbftConfig(exclude_backends=("counting",)),
            environ={ENV_BACKEND: "counting"},
        )
        assert sel.backend == "numpy"
        assert sel.fallback_reason == "excluded by config"

    def test_capability_mismatch_falls_back(self):
        sel = self.negotiate(AbftConfig(backend="tiny"), m=64, n=64, q=64)
        assert sel.backend == "numpy"
        assert sel.fallback_from == "tiny"

    def test_pinned_non_deterministic_backend_is_allowed(self):
        sel = self.negotiate(AbftConfig(backend="fuzzy"))
        assert sel.backend == "fuzzy"

    def test_autotuned_winner_serves_auto_configs(self):
        class Tuner:
            def lookup(self, m, n, q, dtype, config):
                from repro.backends import TunedChoice

                return TunedChoice(
                    backend="counting",
                    tile=32,
                    per_call_s=1.0,
                    baseline_per_call_s=2.0,
                )

        sel = self.negotiate(AbftConfig(), tuner=Tuner())
        assert (sel.backend, sel.tile, sel.source) == (
            "counting",
            32,
            "autotuned",
        )

    def test_explicit_tile_beats_autotuned_tile(self):
        class Tuner:
            def lookup(self, m, n, q, dtype, config):
                from repro.backends import TunedChoice

                return TunedChoice(
                    backend="counting",
                    tile=32,
                    per_call_s=1.0,
                    baseline_per_call_s=2.0,
                )

        sel = self.negotiate(AbftConfig(gemm_tile=48), tuner=Tuner())
        assert (sel.backend, sel.tile) == ("counting", 48)

    def test_autotuned_non_deterministic_winner_is_rejected(self):
        class Tuner:
            def lookup(self, m, n, q, dtype, config):
                from repro.backends import TunedChoice

                return TunedChoice(
                    backend="fuzzy",
                    tile=None,
                    per_call_s=1.0,
                    baseline_per_call_s=2.0,
                )

        sel = self.negotiate(AbftConfig(), tuner=Tuner())
        assert sel.backend == "numpy"
        assert "non-deterministic" in sel.fallback_reason

    def test_autotuned_tile_dies_with_its_backend(self):
        # When the cached winner's backend is rejected, its tile must not
        # leak into the numpy fallback: the bytes would silently change.
        class Tuner:
            def lookup(self, m, n, q, dtype, config):
                from repro.backends import TunedChoice

                return TunedChoice(
                    backend="broken",
                    tile=32,
                    per_call_s=1.0,
                    baseline_per_call_s=2.0,
                )

        sel = self.negotiate(AbftConfig(), tuner=Tuner())
        assert (sel.backend, sel.tile) == ("numpy", None)


class TestConfigValidation:
    def test_numpy_cannot_be_excluded(self):
        with pytest.raises(ConfigurationError, match="terminal fallback"):
            AbftConfig(exclude_backends=("numpy",))

    def test_pinned_and_excluded_conflict(self):
        with pytest.raises(ConfigurationError):
            AbftConfig(backend="blocked", exclude_backends=("blocked",))

    def test_gemm_tile_must_be_positive(self):
        with pytest.raises(ValueError):
            AbftConfig(gemm_tile=0)

    def test_describe_mentions_backend_choices(self):
        text = AbftConfig(
            backend="blocked", gemm_tile=64, exclude_backends=("cupy",)
        ).describe()
        assert "backend=blocked" in text
        assert "gemm_tile=64" in text
        assert "cupy" in text
