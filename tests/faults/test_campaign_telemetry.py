"""Campaign counters: per-injection labels and outcome accounting."""

from __future__ import annotations

import pytest

from repro.faults.campaign import CampaignConfig, FaultCampaign, _detection_outcome
from repro.telemetry import InMemorySink, MetricsRegistry, NULL_REGISTRY
from repro.workloads import SUITE_UNIT


@pytest.fixture
def campaign_config() -> CampaignConfig:
    return CampaignConfig(
        n=128, suite=SUITE_UNIT, num_injections=40, block_size=64, p=2, seed=7
    )


class TestOutcomeLabel:
    def test_mapping(self):
        assert _detection_outcome(True, True) == "detected"
        assert _detection_outcome(False, True) == "missed"
        assert _detection_outcome(True, False) == "false_positive"
        assert _detection_outcome(False, False) == "tolerated"


class TestCampaignCounters:
    def test_injection_totals_match_records(self, campaign_config):
        reg = MetricsRegistry()
        campaign = FaultCampaign(campaign_config, registry=reg)
        result = campaign.run()

        injections = reg.counter(
            "abft_campaign_injections_total", labelnames=("site",)
        )
        total = sum(child.get() for _, child in injections.children())
        assert total == campaign_config.num_injections == len(result.records)

        outcomes = reg.counter(
            "abft_campaign_outcomes_total",
            labelnames=("scheme", "site", "severity", "outcome"),
        )
        per_scheme: dict[str, float] = {}
        for (scheme, _site, _sev, _out), child in outcomes.children():
            per_scheme[scheme] = per_scheme.get(scheme, 0.0) + child.get()
        # One outcome sample per (injection, scheme).
        assert per_scheme == {
            "aabft": float(campaign_config.num_injections),
            "sea": float(campaign_config.num_injections),
        }

    def test_detected_plus_missed_equals_critical(self, campaign_config):
        reg = MetricsRegistry()
        result = FaultCampaign(campaign_config, registry=reg).run()
        outcomes = reg.counter(
            "abft_campaign_outcomes_total",
            labelnames=("scheme", "site", "severity", "outcome"),
        )
        critical_counted = sum(
            child.get()
            for (scheme, _site, severity, outcome), child in outcomes.children()
            if scheme == "aabft"
            and severity == "critical"
            and outcome in ("detected", "missed")
        )
        assert critical_counted == result.num_critical()
        detected = sum(
            child.get()
            for (scheme, _site, _sev, outcome), child in outcomes.children()
            if scheme == "aabft" and outcome == "detected"
        )
        rate = result.detection_rate("aabft")
        assert detected == round(rate * result.num_critical())

    def test_spans_stream_to_attached_sink(self, campaign_config):
        reg = MetricsRegistry()
        sink = InMemorySink()
        reg.attach(sink)
        FaultCampaign(campaign_config, registry=reg).run()
        names = [e["name"] for e in sink.events if e["type"] == "span"]
        assert names == ["campaign.prepare", "campaign.run"]

    def test_null_registry_runs_unmetered(self, campaign_config):
        campaign = FaultCampaign(campaign_config, registry=NULL_REGISTRY)
        result = campaign.run()
        assert len(result.records) == campaign_config.num_injections
        assert NULL_REGISTRY.snapshot() == {}

    def test_metering_does_not_change_results(self, campaign_config):
        metered = FaultCampaign(
            campaign_config, registry=MetricsRegistry()
        ).run()
        unmetered = FaultCampaign(campaign_config, registry=NULL_REGISTRY).run()
        assert len(metered.records) == len(unmetered.records)
        for left, right in zip(metered.records, unmetered.records):
            assert left.delta == right.delta
            assert left.detected == right.detected
            assert left.classification.error_class is right.classification.error_class
