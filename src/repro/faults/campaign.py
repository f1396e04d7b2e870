"""Fault-injection campaigns (paper Section VI-C, Figure 4).

A campaign injects one fault per (simulated) matrix multiplication and asks
two questions per injection:

1. **Ground truth** — is the error the fault induced in the affected result
   element *critical*?  The baseline is the probabilistic model of that
   element's own rounding error: errors beyond ``omega * sigma`` are
   intolerable critical compute errors, smaller ones are tolerable/rounding
   (Section VI-C).
2. **Detection** — does each ABFT scheme's checksum comparison flag the
   fault?  A-ABFT and SEA-ABFT tolerances are evaluated side by side on the
   identical fault, exactly like the paper's comparison.

The runner exploits the locality of a single injected fault: the fault-free
full-checksum result, the per-comparison tolerance arrays and the signed
fault-free checksum differences are computed once per workload; each
injection then only replays the affected element's sequential accumulation
(with the strike applied) and updates the two checksum comparisons the
element participates in.  This is numerically identical to re-running the
whole pipeline per fault and makes thousand-fault campaigns tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..abft.classify import Classification, ErrorClassifier
from ..abft.encoding import (
    encode_partitioned_columns,
    encode_partitioned_rows,
)
from ..abft.providers import AABFTEpsilonProvider, SEAEpsilonProvider
from ..bounds.probabilistic import ProbabilisticBound
from ..bounds.sea import SEABound
from ..bounds.upper_bound import determine_upper_bound, top_p_of_columns, top_p_of_rows
from ..errors import ConfigurationError
from ..gpusim.device import DeviceSpec, K20C
from ..gpusim.kernel import Dim3, LaunchConfig
from ..gpusim.scheduler import BlockScheduler
# Module (not name) import: repro.kernels may still be mid-initialisation
# when this module loads through kernels.matmul -> faults.injector; the
# attribute is resolved lazily at call time instead.
from ..kernels import matmul as _matmul_kernels
from ..telemetry import MetricsRegistry, get_registry, span
from ..workloads.suites import WorkloadSuite
from .injector import FaultInjector
from .model import FaultSite, FaultSpec
from .sampling import ALL_SITES, FaultSampler

__all__ = [
    "CampaignConfig",
    "InjectionRecord",
    "PairInjectionRecord",
    "CampaignResult",
    "FaultCampaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Declarative description of one injection campaign."""

    n: int
    suite: WorkloadSuite
    num_injections: int
    block_size: int = 64
    p: int = 2
    omega: float = 3.0
    sites: tuple[FaultSite, ...] = ALL_SITES
    fields: tuple[str, ...] = ("mantissa",)
    num_flips: int = 1
    fault_model: str = "flip"
    schemes: tuple[str, ...] = ("aabft", "sea")
    seed: int = 0
    device: DeviceSpec = K20C

    def __post_init__(self) -> None:
        if self.n % self.block_size:
            raise ConfigurationError(
                f"matrix size {self.n} must be a multiple of block size "
                f"{self.block_size}"
            )
        if self.num_injections < 1:
            raise ConfigurationError("num_injections must be >= 1")
        unknown = set(self.schemes) - {"aabft", "sea"}
        if unknown:
            raise ConfigurationError(f"unknown schemes: {sorted(unknown)}")


@dataclass
class InjectionRecord:
    """One completed injection."""

    spec: FaultSpec
    encoded_row: int
    encoded_col: int
    delta: float
    classification: Classification
    detected: dict[str, bool]

    @property
    def is_critical(self) -> bool:
        return self.classification.is_critical


@dataclass
class PairInjectionRecord:
    """Two faults applied to one multiplication (double-fault extension).

    Attributes
    ----------
    first / second:
        The per-fault records (classification uses each element's own
        model, as for single faults).
    detected:
        Per-scheme combined detection over all affected comparisons —
        including partial cancellation when both faults alias into the
        same checksum.
    same_block:
        Whether both faults landed in the same result block (the
        location-ambiguity case of the classic ABFT model).
    """

    first: InjectionRecord
    second: InjectionRecord
    detected: dict[str, bool]
    same_block: bool

    @property
    def any_critical(self) -> bool:
        return self.first.is_critical or self.second.is_critical


@dataclass
class CampaignResult:
    """All records of a campaign plus derived rates."""

    config: CampaignConfig
    records: list[InjectionRecord] = field(default_factory=list)
    false_positive_free: dict[str, bool] = field(default_factory=dict)

    def critical_records(
        self, site: FaultSite | None = None
    ) -> list[InjectionRecord]:
        """Records whose induced error is critical (the Figure 4 denominator)."""
        out = [r for r in self.records if r.is_critical]
        if site is not None:
            out = [r for r in out if r.spec.site is site]
        return out

    def detection_rate(self, scheme: str, site: FaultSite | None = None) -> float:
        """Fraction of *critical* errors the scheme detected (NaN if none)."""
        critical = self.critical_records(site)
        if not critical:
            return float("nan")
        detected = sum(1 for r in critical if r.detected[scheme])
        return detected / len(critical)

    def num_critical(self, site: FaultSite | None = None) -> int:
        return len(self.critical_records(site))

    def summary(self) -> str:
        """Per-site detection-rate table (A-ABFT vs baselines)."""
        lines = [
            f"campaign: n={self.config.n} suite={self.config.suite.name} "
            f"injections={len(self.records)} "
            f"critical={self.num_critical()}"
        ]
        header = f"{'site':<12}" + "".join(
            f"{s:>12}" for s in self.config.schemes
        )
        lines.append(header)
        for site in self.config.sites:
            row = f"{site.value:<12}"
            for scheme in self.config.schemes:
                rate = self.detection_rate(scheme, site)
                row += f"{rate * 100.0:>11.1f}%" if not math.isnan(rate) else f"{'n/a':>12}"
            lines.append(row)
        return "\n".join(lines)


def _detection_outcome(detected: bool, is_critical: bool) -> str:
    """Label one (scheme, injection) pair for the campaign counters.

    ``detected``/``missed`` grade the scheme on critical errors (the
    Figure 4 numerator/denominator); flagging a non-critical error is a
    ``false_positive`` (the tolerance was too tight for that element),
    letting one pass silently is ``tolerated``.
    """
    if is_critical:
        return "detected" if detected else "missed"
    return "false_positive" if detected else "tolerated"


class FaultCampaign:
    """Prepares one workload and runs a batch of fault injections against it.

    Parameters
    ----------
    config:
        The declarative campaign description.
    registry:
        Telemetry target for the per-injection counters
        (``abft_campaign_*``, labelled by fault site, scheme and
        classification outcome — see ``docs/OBSERVABILITY.md``).  Defaults
        to the process-wide registry; pass
        :data:`repro.telemetry.NULL_REGISTRY` to run unmetered.
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._prepared = False
        self.registry = registry if registry is not None else get_registry()
        self._m_injections = self.registry.counter(
            "abft_campaign_injections_total",
            "Faults injected, by struck operation site",
            ("site",),
        )
        self._m_outcomes = self.registry.counter(
            "abft_campaign_outcomes_total",
            "Per-scheme detection outcomes of injected faults",
            ("scheme", "site", "severity", "outcome"),
        )
        self._m_false_positive_baseline = self.registry.counter(
            "abft_campaign_baseline_false_positives_total",
            "Campaign workloads whose fault-free result failed a scheme's check",
            ("scheme",),
        )

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Generate the workload, encode, multiply fault-free, and derive
        the per-comparison tolerance arrays of every evaluated scheme."""
        with span(
            "campaign.prepare",
            registry=self.registry,
            n=self.config.n,
            suite=self.config.suite.name,
        ):
            self._prepare()

    def _prepare(self) -> None:
        cfg = self.config
        pair = cfg.suite.generate(cfg.n, self._rng)
        bs = cfg.block_size

        self.a_cc, self.row_layout = encode_partitioned_columns(pair.a, bs)
        self.b_rc, self.col_layout = encode_partitioned_rows(pair.b, bs)
        self.c_fc = self.a_cc @ self.b_rc
        self.inner_dim = pair.a.shape[1]

        self.row_tops = top_p_of_rows(self.a_cc, cfg.p)
        self.col_tops = top_p_of_columns(self.b_rc, cfg.p)

        providers: dict[str, object] = {}
        if "aabft" in cfg.schemes:
            providers["aabft"] = AABFTEpsilonProvider(
                scheme=ProbabilisticBound(omega=cfg.omega),
                row_tops=self.row_tops,
                col_tops=self.col_tops,
                row_layout=self.row_layout,
                col_layout=self.col_layout,
                inner_dim=self.inner_dim,
            )
        if "sea" in cfg.schemes:
            providers["sea"] = SEAEpsilonProvider(
                scheme=SEABound(),
                a_row_norms=np.linalg.norm(self.a_cc, axis=1),
                b_col_norms=np.linalg.norm(self.b_rc, axis=0),
                row_layout=self.row_layout,
                col_layout=self.col_layout,
                inner_dim=self.inner_dim,
            )

        # Signed fault-free checksum differences (reference - original).
        rows, cols = self.row_layout, self.col_layout
        self.col_diff = np.empty((rows.num_blocks, cols.encoded_rows))
        for blk in range(rows.num_blocks):
            data = self.c_fc[rows.data_indices(blk), :]
            self.col_diff[blk, :] = data.sum(axis=0) - self.c_fc[
                rows.checksum_index(blk), :
            ]
        self.row_diff = np.empty((rows.encoded_rows, cols.num_blocks))
        for blk in range(cols.num_blocks):
            data = self.c_fc[:, cols.data_indices(blk)]
            self.row_diff[:, blk] = data.sum(axis=1) - self.c_fc[
                :, cols.checksum_index(blk)
            ]

        # Tolerance arrays per scheme (fault-independent).
        self.col_eps: dict[str, np.ndarray] = {}
        self.row_eps: dict[str, np.ndarray] = {}
        for name, provider in providers.items():
            ce = np.empty_like(self.col_diff)
            for blk in range(rows.num_blocks):
                for col in range(cols.encoded_rows):
                    ce[blk, col] = provider.column_epsilon(blk, col)
            re = np.empty_like(self.row_diff)
            for blk in range(cols.num_blocks):
                for row in range(rows.encoded_rows):
                    re[row, blk] = provider.row_epsilon(row, blk)
            self.col_eps[name] = ce
            self.row_eps[name] = re

        # The fault-free result must pass every scheme's check — otherwise
        # the campaign would count false positives as detections.
        self.fault_free_pass = {
            name: bool(
                np.all(np.abs(self.col_diff) <= self.col_eps[name])
                and np.all(np.abs(self.row_diff) <= self.row_eps[name])
            )
            for name in providers
        }
        for name, passed in self.fault_free_pass.items():
            if not passed:
                self._m_false_positive_baseline.labels(scheme=name).inc()

        self.scheduler = BlockScheduler(cfg.device)
        self.launch = LaunchConfig(
            grid=Dim3(x=cols.num_blocks, y=rows.num_blocks),
            block=Dim3(x=cols.stride),
        )
        self.assignments = self.scheduler.assign(self.launch)
        self.classifier = ErrorClassifier(omega=cfg.omega)
        # Small launches occupy only the first few SMs (round-robin): the
        # strike must target an SM that actually executes a block.
        busy_sms = min(cfg.device.num_sms, rows.num_blocks * cols.num_blocks)
        self.sampler = FaultSampler(
            num_sms=busy_sms,
            inner_dim=self.inner_dim,
            block_rows=rows.stride,
            block_cols=cols.stride,
            sites=cfg.sites,
            fields=cfg.fields,
            num_flips=cfg.num_flips,
            fault_model=cfg.fault_model,
        )
        self._prepared = True

    # ------------------------------------------------------------------
    def inject_one(self, spec: FaultSpec) -> InjectionRecord:
        """Apply one fault and evaluate classification + detection."""
        if not self._prepared:
            raise RuntimeError("call prepare() before injecting")
        rows, cols = self.row_layout, self.col_layout

        injector = FaultInjector(spec, self._rng)
        activation = injector.resolve(
            self.assignments, (rows.stride, cols.stride)
        )
        blk_linear = activation.linear_block_index
        blk_col, blk_row = (
            blk_linear % cols.num_blocks,
            blk_linear // cols.num_blocks,
        )
        r = blk_row * rows.stride + activation.element_row
        c = blk_col * cols.stride + activation.element_col

        a_vec = self.a_cc[r, :]
        b_vec = self.b_rc[:, c]
        baseline = _matmul_kernels.sequential_inner_product(a_vec, b_vec)
        faulty = _matmul_kernels.sequential_inner_product(a_vec, b_vec, injector)
        delta = faulty - baseline

        y_elem = determine_upper_bound(self.row_tops[r], self.col_tops[c])
        classification = self.classifier.classify(delta, self.inner_dim, y_elem)

        # The element participates in exactly one column check and one row
        # check; a data element shifts the reference sum, a checksum element
        # shifts the original checksum (opposite sign).
        col_sign = -1.0 if rows.is_checksum_index(r) else 1.0
        row_sign = -1.0 if cols.is_checksum_index(c) else 1.0
        new_col = self.col_diff[blk_row, c] + col_sign * delta
        new_row = self.row_diff[r, blk_col] + row_sign * delta

        detected = {}
        for name in self.col_eps:
            col_hit = not math.isfinite(new_col) or abs(new_col) > self.col_eps[
                name
            ][blk_row, c]
            row_hit = not math.isfinite(new_row) or abs(new_row) > self.row_eps[
                name
            ][r, blk_col]
            detected[name] = bool(col_hit or row_hit)

        record = InjectionRecord(
            spec=spec,
            encoded_row=r,
            encoded_col=c,
            delta=delta,
            classification=classification,
            detected=detected,
        )
        site = spec.site.value
        severity = classification.error_class.value
        self._m_injections.labels(site=site).inc()
        for scheme, hit in detected.items():
            self._m_outcomes.labels(
                scheme=scheme,
                site=site,
                severity=severity,
                outcome=_detection_outcome(hit, record.is_critical),
            ).inc()
        return record

    # ------------------------------------------------------------------
    def inject_pair(self, spec_a: FaultSpec, spec_b: FaultSpec) -> "PairInjectionRecord":
        """Apply two faults to one multiplication (beyond the paper's
        single-fault model) and evaluate combined detection.

        Each fault perturbs one element; the two deltas are folded into the
        checksum comparisons they touch — including the aliasing case where
        both land in the same comparison and partially cancel.
        """
        if not self._prepared:
            raise RuntimeError("call prepare() before injecting")
        rows, cols = self.row_layout, self.col_layout

        singles = [self.inject_one(spec_a), self.inject_one(spec_b)]

        # Fold both deltas into the affected comparisons.
        col_adjust: dict[tuple[int, int], float] = {}
        row_adjust: dict[tuple[int, int], float] = {}
        for rec in singles:
            r, c = rec.encoded_row, rec.encoded_col
            blk_row = r // rows.stride
            blk_col = c // cols.stride
            col_sign = -1.0 if rows.is_checksum_index(r) else 1.0
            row_sign = -1.0 if cols.is_checksum_index(c) else 1.0
            key_c = (blk_row, c)
            key_r = (r, blk_col)
            col_adjust[key_c] = col_adjust.get(key_c, 0.0) + col_sign * rec.delta
            row_adjust[key_r] = row_adjust.get(key_r, 0.0) + row_sign * rec.delta

        detected: dict[str, bool] = {}
        for name in self.col_eps:
            hit = False
            for (blk_row, c), adj in col_adjust.items():
                value = self.col_diff[blk_row, c] + adj
                if not math.isfinite(value) or abs(value) > self.col_eps[name][
                    blk_row, c
                ]:
                    hit = True
            for (r, blk_col), adj in row_adjust.items():
                value = self.row_diff[r, blk_col] + adj
                if not math.isfinite(value) or abs(value) > self.row_eps[name][
                    r, blk_col
                ]:
                    hit = True
            detected[name] = hit

        same_block = (
            singles[0].encoded_row // rows.stride
            == singles[1].encoded_row // rows.stride
        ) and (
            singles[0].encoded_col // cols.stride
            == singles[1].encoded_col // cols.stride
        )
        return PairInjectionRecord(
            first=singles[0],
            second=singles[1],
            detected=detected,
            same_block=same_block,
        )

    def run_pairs(self, num_pairs: int) -> list["PairInjectionRecord"]:
        """Inject ``num_pairs`` double faults (two per multiplication)."""
        if not self._prepared:
            self.prepare()
        records = []
        for _ in range(num_pairs):
            spec_a = self.sampler.sample(self._rng)
            spec_b = self.sampler.sample(self._rng)
            records.append(self.inject_pair(spec_a, spec_b))
        return records

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Prepare (if needed) and execute the configured injections."""
        if not self._prepared:
            self.prepare()
        result = CampaignResult(
            config=self.config, false_positive_free=dict(self.fault_free_pass)
        )
        with span(
            "campaign.run",
            registry=self.registry,
            injections=self.config.num_injections,
        ):
            for spec in self.sampler.sample_many(
                self.config.num_injections, self._rng
            ):
                result.records.append(self.inject_one(spec))
        return result
