"""Online DL2Fence guard: closed-loop detection, localization and mitigation.

The guard turns the offline DL2Fence pipeline into a runtime system.  It
subscribes to the :class:`~repro.monitor.sampler.GlobalPerformanceMonitor`
stream, pushes every sampling window through the trained detector/localizer
(using the batched single-forward fast path of
:meth:`repro.core.pipeline.DL2Fence.process_sample`), and pulls the
injection rate-limit hook on the mesh's source queues for every node the
Table-Like Method pins as an attacker.

The countermeasure surface is backend-agnostic: ``set_injection_limit`` /
``flush_source_queue`` exist on both the object mesh and the vectorized
structure-of-arrays backend (where a limit update writes the per-node
limit/credit arrays the injection kernel gates on), and both backends feed
the guard identical windows and delivered-packet streams — a defended
episode produces the same :class:`DefenseReport` under either
``REPRO_SIM_BACKEND`` value (pinned by
``tests/noc/test_soa_equivalence.py``).  Reports round-trip losslessly
through :meth:`DefenseReport.to_payload`, which is what the experiment
engine's per-episode cache stores.

Engagement and release follow the hysteresis of the configured
:class:`~repro.defense.policy.MitigationPolicy` so a single noisy window can
neither trip nor lift the fence, and nodes that stop being re-flagged roll
back automatically even while an attack continues elsewhere.

Concurrent multi-attacker floods are handled through **iterative
localization rounds**, following the paper's Figure-3 multi-attacker rules:
fencing the loudest localized attacker removes its congestion signature, the
guard keeps streaming windows through the Table-Like Method, and the next
rounds surface the remaining attackers one batch at a time.  Per-node engage
counts drive an exponential re-engage backoff (quarantined attackers leave
no evidence, so every release is a probe; repeat offenders are held
exponentially longer), and ``max_engaged_nodes`` bounds the blast radius of
an over-approximated localization superset.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import DL2Fence, LocalizationResult
from repro.defense.degraded import DegradedModeConfig, WindowSanitizer
from repro.defense.evidence import EvidenceAccumulator, EvidenceConfig
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseEvent, DefenseReport, WindowRecord
from repro.faults.monitor import DETOUR_KEY, LOCAL_BOC_KEY
from repro.monitor.frames import FrameSample
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS, guard_events_counter

__all__ = ["DL2FenceGuard"]

#: ``DefenseReport.event_counts`` keys, in the order a traced report lists them.
_EVENT_COUNT_KEYS = (
    "engagements",
    "releases",
    "convictions",
    "clamps",
    "detour_discounts",
)
#: The ``event_counts`` key each tallied decision kind adds its nodes to.
_TALLY_KEYS = {
    "engaged": "engagements",
    "rolled_back": "releases",
    "released": "releases",
    "convicted": "convictions",
}


@dataclass(frozen=True)
class _WindowStats:
    """Per-window delivery measurements, split at the containment epoch."""

    latency: float
    benign_delivered: int
    malicious_delivered: int
    fresh_latency: float
    fresh_delivered: int
    backlog_delivered: int


@dataclass
class _EngagedNode:
    """Book-keeping for one node under an active countermeasure."""

    previous_limit: float
    windows_since_flagged: int = 0
    #: Shadow counter: estimated residual pressure behind the fence.  A
    #: quarantined node emits no congestion evidence, so the guard keeps a
    #: decaying estimate instead — seeded from the node's suspicion at
    #: engage time, bumped whenever the node is re-flagged while fenced,
    #: cooled every quiet window.  Release probes go lowest-pressure first.
    shadow_pressure: float = 0.0


@dataclass(frozen=True)
class _Window:
    """One sampling window as ``_observe`` establishes it, before any decision."""

    #: The (sanitized) sample the pipeline sees.
    sample: FrameSample
    stats: _WindowStats
    #: Nodes with no trustworthy telemetry this window.
    unobservable: frozenset[int]
    #: Detour carriers whose evidence is discounted, and those whose own
    #: injection corroborates an accusation (full weight).
    detour: frozenset[int]
    corroborated: frozenset[int]
    #: Sampling windows lost in delivery since the previous one.
    missed: int
    #: Whether the capture clock is current; stale windows never release.
    fresh_clock: bool


@dataclass(frozen=True)
class _Decision:
    """What ``_decide`` concludes about one window, before anything acts."""

    #: Detector fired, or evidence convicted a not-yet-fenced node.
    acted: bool
    phase: str
    #: Localized or convicted nodes with trustworthy telemetry, sorted, and
    #: those of them whose flag streaks may advance this window.
    flagged: tuple[int, ...]
    streak_eligible: tuple[int, ...]


class DL2FenceGuard:
    """Attaches DL2Fence to a live simulator and acts on what it localizes."""

    #: PI gains of the adaptive throttle (``MitigationPolicy.adaptive_throttle``):
    #: the controller tracks a benign recovery ratio of 1.0 against the
    #: pre-engagement delivery baseline; under-recovery tightens the limit,
    #: over-recovery relaxes it.
    _ADAPTIVE_KP = 0.5
    _ADAPTIVE_KI = 0.1
    #: Anti-windup clamp on the recovery-error integral.
    _ADAPTIVE_INTEGRAL_CAP = 5.0
    #: Adaptive limit bounds, as multiples of ``throttle_factor``.
    _ADAPTIVE_MIN_SCALE = 0.25
    _ADAPTIVE_MAX_SCALE = 4.0
    #: EWMA retention of the pre-engagement benign delivery baseline.
    _BASELINE_DECAY = 0.8
    #: Per-window retention of an engaged node's shadow-pressure counter.
    _SHADOW_DECAY = 0.8

    def __init__(
        self,
        fence: DL2Fence,
        policy: MitigationPolicy | None = None,
        attack_start: int | None = None,
        attack_end: int | None = None,
        true_attackers: tuple[int, ...] = (),
        evidence: EvidenceConfig | None = EvidenceConfig(),
        degraded: DegradedModeConfig | None = DegradedModeConfig(),
    ) -> None:
        """``attack_start``, ``attack_end`` and ``true_attackers`` are
        optional ground truth used only for evaluation metrics (detection
        latency, recovery, collateral); the guard's decisions never read
        them.

        ``evidence`` configures the cross-window evidence accumulator the
        guard consults alongside the per-window Table-Like Method (see
        :mod:`repro.defense.evidence`); ``None`` restores pure
        single-window localization.

        ``degraded`` configures degraded-mode operation against faulty
        telemetry (see :mod:`repro.defense.degraded`): windows are scrubbed
        through a :class:`WindowSanitizer`, delivery gaps charge extra
        evidence decay, stale (delayed) windows never drive release probes,
        and nodes with no trustworthy telemetry — declared-silent or
        stuck-counter — are excluded from evidence, flag streaks and new
        engagements.  On a healthy stream the whole machinery is a no-op,
        which is why it defaults on; ``None`` disables it."""
        if isinstance(evidence, bool) or isinstance(degraded, bool):
            raise TypeError("evidence and degraded take a config or None, not a bool")
        self.fence = fence
        self.policy = policy or MitigationPolicy()
        self.evidence_config = evidence
        self.degraded_config = degraded
        # Built lazily on the first window (the scripted test harness wires
        # a guard to a simulator without attach(), so the mesh size is only
        # reliably known once a sample arrives).
        self.evidence: EvidenceAccumulator | None = None
        self._simulator = None
        self.report = DefenseReport(
            policy=self.policy,
            sample_period=0,
            attack_start=attack_start,
            attack_end=attack_end,
            true_attackers=tuple(true_attackers),
        )
        self._engaged: dict[int, _EngagedNode] = {}
        # Consecutive detection windows each candidate node was flagged in —
        # per-node engagement hysteresis, so one spurious localization in an
        # otherwise correct detection streak cannot fence an innocent node.
        self._flag_streaks: dict[int, int] = {}
        # Lifetime engagement count per node: feeds the policy's re-engage
        # backoff so an attacker that oscillates through release probes is
        # held exponentially longer each time.
        self._engage_counts: dict[int, int] = {}
        # Iterative localization round counter: each batch of engagements is
        # one round of the paper's multi-attacker sampling procedure.
        self._round = 0
        self._consecutive_detections = 0
        self._consecutive_clean = 0
        self._delivered_index = 0
        self._window_index = 0
        # Degraded-mode state: the sanitizer is built lazily (mesh size is
        # only known once a sample arrives), the last-window cycle detects
        # delivery gaps, and the containment epoch anchors the drain-aware
        # fresh/backlog split of the latency accounting.
        self._sanitizer: WindowSanitizer | None = None
        self._last_window_cycle: int | None = None
        self._containment_epoch: int | None = None
        self._last_probe_window: int | None = None
        # Adaptive-throttle (PI controller) state: the benign delivery
        # baseline is learned on un-engaged windows, the integral and the
        # steered limit only live while fences are up.
        self._baseline_rate: float | None = None
        self._throttle_integral = 0.0
        self._adaptive_limit: float | None = None

    # -- wiring ------------------------------------------------------------
    @property
    def simulator(self) -> NoCSimulator | None:
        """The simulator this guard is wired to (``None`` once it is gone)."""
        return self._simulator() if self._simulator is not None else None

    @simulator.setter
    def simulator(self, simulator: NoCSimulator | None) -> None:
        # Held weakly, and the monitor not at all: the simulator already
        # reaches this guard through its monitor's observer and listener
        # callbacks, and a strong reference back would leave the whole
        # episode, network arrays included, in a reference cycle that only
        # the cyclic garbage collector frees.
        self._simulator = weakref.ref(simulator) if simulator is not None else None

    def attach(
        self,
        simulator: NoCSimulator,
        monitor: GlobalPerformanceMonitor | None = None,
        monitor_config: MonitorConfig | None = None,
    ) -> "DL2FenceGuard":
        """Wire the guard into a simulator's monitoring stream.

        Reuses ``monitor`` when given (it must already observe ``simulator``);
        otherwise creates and attaches a fresh
        :class:`GlobalPerformanceMonitor` with ``monitor_config``.
        """
        if monitor is None:
            monitor = GlobalPerformanceMonitor(monitor_config).attach(simulator)
        self.simulator = simulator
        self.report.sample_period = monitor.config.sample_period
        # The guard is the one listener whose failure must abort the episode
        # (a defense silently detached from its stream is worse than a
        # crash); auxiliary listeners default to isolated dispatch.
        monitor.add_listener(self.on_sample, critical=True)
        return self

    # -- state --------------------------------------------------------------
    @property
    def engaged_nodes(self) -> list[int]:
        """Nodes currently under an active countermeasure."""
        return sorted(self._engaged)

    # -- the closed loop -----------------------------------------------------
    def on_sample(self, sample: FrameSample, simulator: NoCSimulator) -> None:
        """Process one sampling window: observe, localize, fuse, decide, act.

        The window's actionable attacker set is the union of the Table-Like
        Method's per-window localization and the nodes the cross-window
        evidence accumulator currently holds convicted.  A window counts as
        "acted on" when either the detector fires or the evidence convicts a
        not-yet-fenced node — the latter is what makes stealth, migrating
        and on-route attacks actionable even though no single window trips
        the detector.  Convictions on already-fenced nodes deliberately do
        *not* keep the loop in attack mode: a fenced attacker leaves no
        fresh evidence, so its stale suspicion must not block the release
        probing the hysteresis machinery schedules.
        """
        window = self._observe(sample, simulator)
        result, weight = self._localize(window, simulator)
        convicted = self._fuse(window, result, weight)
        decision = self._decide(window, result, convicted, simulator)
        self._actuate(window, decision, simulator)
        self._record_window(window, result, convicted, decision)

    def _observe(self, sample: FrameSample, simulator: NoCSimulator) -> _Window:
        """Open the window: trace coordinates, live routing, telemetry health.

        Points the pipeline's TLM/VCE at the live (possibly fault-degraded)
        routing function, so a mid-episode link death re-anchors the
        reverse deduction at the next sample.  In degraded mode, splits off
        the detour carriers, scrubs the window against fault signatures
        (frame-less stub samples of scripted harnesses bypass it) and judges
        the capture clock: a stale (delayed) window testifies about the past
        and never releases a fence.  Counts the windows lost in delivery.
        """
        period = self.report.sample_period
        if BUS.active:
            # Coordinates for every event this window emits, including from
            # nested emitters (evidence accumulator, sanitizer).  The episode
            # label is the batched backend's lane index; solo simulators
            # default to 0 unless the harness stamps one.
            BUS.set_context(
                episode=getattr(simulator, "lane_index", 0),
                cycle=sample.cycle,
                window=self._window_index,
            )
            if not self.report.event_counts:
                self.report.event_counts = dict.fromkeys(_EVENT_COUNT_KEYS, 0)
        sync_provider = getattr(self.fence, "set_route_provider", None)
        if sync_provider is not None:
            sync_provider(
                getattr(getattr(simulator, "network", None), "route_provider", None)
            )
        config = self.degraded_config
        detour = corroborated = unobservable = frozenset()
        fresh_clock = True
        if config is not None:
            detour, corroborated = self._split_detour(sample, config)
            if getattr(sample, "vco", None) is not None:
                if self._sanitizer is None:
                    self._sanitizer = WindowSanitizer(
                        simulator.topology, config, sample_period=period or None
                    )
                sample, health = self._sanitizer.sanitize(sample)
                unobservable = health.unobservable
                if BUS.active and health.imputed_cells:
                    self.report.event_counts["clamps"] += health.imputed_cells
            if period > 0:
                lag = simulator.cycle - sample.cycle
                fresh_clock = lag <= config.stale_window_tolerance * period
        missed = 0
        if period > 0 and self._last_window_cycle is not None:
            elapsed = int(round((sample.cycle - self._last_window_cycle) / period))
            missed = max(0, elapsed - 1)
        if self._last_window_cycle is None or sample.cycle > self._last_window_cycle:
            self._last_window_cycle = sample.cycle
        return _Window(
            sample=sample,
            stats=self._window_latency(simulator),
            unobservable=unobservable,
            detour=detour,
            corroborated=corroborated,
            missed=missed,
            fresh_clock=fresh_clock,
        )

    @staticmethod
    def _split_detour(
        sample: FrameSample, config: DegradedModeConfig
    ) -> tuple[frozenset[int], frozenset[int]]:
        """(discounted, corroborated) detour carriers of the window.

        Detour carriers of an active data-plane fault deliver trustworthy
        telemetry, but congestion partly caused by the reroute itself.  The
        reroute can shift what a router forwards, never what its PE
        injects: a carrier whose LOCAL-port activity runs well above the
        mesh-wide median this window is injecting a flood of its own, and
        any accusation against it keeps full evidence weight — per-window,
        so one benign burst never latches an innocent carrier out of the
        protections.
        """
        metadata = getattr(sample, "metadata", None) or {}
        detour = frozenset(int(node) for node in metadata.get(DETOUR_KEY, ()))
        local = metadata.get(LOCAL_BOC_KEY) if detour else None
        if not local:
            return detour, frozenset()
        activity = np.asarray(local, dtype=np.float64)
        bar = config.detour_injection_factor * max(float(np.median(activity)), 1.0)
        corroborated = frozenset(node for node in detour if activity[node] >= bar)
        return detour - corroborated, corroborated

    def _localize(
        self, window: _Window, simulator: NoCSimulator
    ) -> tuple[LocalizationResult, float]:
        """Run the pipeline and weigh the window as evidence.

        A sub-threshold window that still carries evidence weight is
        segmented anyway, so weak evidence (partial routes, frontier
        candidates) enters the accumulator instead of being discarded with
        the window; the detection outcome is handed back in, so the
        detector forward pass is not repeated.
        """
        result = self.fence.process_sample(window.sample)
        if self.evidence_config is None:
            return result, 0.0
        if self.evidence is None:
            self.evidence = EvidenceAccumulator(
                simulator.topology.num_nodes, self.evidence_config
            )
        weight = self.evidence.window_weight(
            result.detected,
            result.detection_probability,
            benign_calibration=getattr(
                getattr(self.fence, "detector", None), "benign_calibration", None
            ),
        )
        if not result.detected and weight > 0.0:
            result = self.fence.process_sample(
                window.sample,
                force_localization=True,
                detection=(result.detected, result.detection_probability),
            )
        return result, weight

    def _fuse(
        self, window: _Window, result: LocalizationResult, weight: float
    ) -> tuple[int, ...]:
        """Fold the window into the cross-window evidence; record convictions.

        A delivery gap first charges the decay the lost windows would have.
        Hard invariant: a node with no trustworthy telemetry this window
        contributes no affirmative evidence — a merely silent or stuck node
        can decay out of suspicion but never accrue into it.  Evidence
        against uncorroborated detour carriers is discounted.
        """
        if self.evidence is None:
            return ()
        config = self.degraded_config
        if window.missed:
            cap = config.max_gap_decay if config is not None else 8
            self.evidence.decay_gap(min(window.missed, cap))
        observed, hidden = result, window.unobservable
        if hidden:
            observed = dataclasses.replace(
                result,
                attackers=[n for n in result.attackers if n not in hidden],
                frontier=[n for n in result.frontier if n not in hidden],
            )
        discounts = None
        if window.detour:
            discounts = dict.fromkeys(window.detour, config.detour_discount)
        if BUS.active and (discounts or window.corroborated):
            BUS.emit(
                "detour_discount",
                nodes=window.detour,
                discount=config.detour_discount if discounts else 1.0,
                promoted=window.corroborated,
            )
            if discounts:
                self.report.event_counts["detour_discounts"] += len(window.detour)
        fresh = self.evidence.observe(
            observed,
            weight,
            discounts=discounts,
            promotions=window.corroborated or None,
        )
        if fresh:
            self._emit(
                "convicted", window.sample.cycle, sorted(fresh), "cross-window evidence"
            )
        return tuple(self.evidence.convicted_nodes())

    def _decide(
        self,
        window: _Window,
        result: LocalizationResult,
        convicted: tuple[int, ...],
        simulator: NoCSimulator,
    ) -> _Decision:
        """Whether the window acts, whom it flags, who may build a streak.

        Also advances the per-window controllers (shadow pressure, adaptive
        throttle) and the detection/clean-window counters, and records the
        first window of a detection streak as ``detected``.  The phase is
        judged before anything in this window engages or releases.
        """
        acted = result.detected or any(
            node not in self._engaged and node not in window.unobservable
            for node in convicted
        )
        flagged = tuple(
            sorted(set(result.attackers).union(convicted) - window.unobservable)
        )
        # Detour carriers never engage on raw per-window flag streaks: a
        # reroute shifts legitimate congestion onto their row/column, so
        # per-frame naming is expected, not incriminating.  Only a full
        # cross-window conviction — which discounted evidence cannot
        # deliver unless the carrier's own injection telemetry lifts the
        # discount — makes them streak-eligible.  (``window.detour``
        # already excludes injection-corroborated carriers.)
        streak_eligible = tuple(
            node for node in flagged if node not in window.detour or node in convicted
        )
        self._update_shadow_pressure(set(flagged))
        self._update_adaptive_throttle(window.stats, simulator)
        if acted:
            if self._consecutive_detections == 0:
                detail = f"p={result.detection_probability:.2f}"
                if not result.detected:
                    detail += " evidence"
                self._emit(
                    "detected",
                    window.sample.cycle,
                    detail=detail,
                    trace=lambda: {
                        "probability": float(result.detection_probability),
                        "via": "detector" if result.detected else "evidence",
                    },
                )
            self._consecutive_detections += 1
            self._consecutive_clean = 0
        else:
            self._consecutive_clean += 1
            self._consecutive_detections = 0
            if not self._engaged:
                # Before anything engages, a clean window breaks every flag
                # streak: engagement requires N *consecutive* detections.
                # While mitigation is active, clean windows are expected (the
                # fence suppresses the evidence), so streaks survive there.
                self._flag_streaks.clear()
        return _Decision(
            acted=acted,
            phase="mitigated" if self._engaged else "attack" if acted else "benign",
            flagged=flagged,
            streak_eligible=streak_eligible,
        )

    def _actuate(
        self, window: _Window, decision: _Decision, simulator: NoCSimulator
    ) -> None:
        """Engage and roll back on acted windows; probe releases on clean ones."""
        cycle = window.sample.cycle
        if decision.acted:
            self._engage_flagged(decision.streak_eligible, cycle, simulator)
            self._rollback_stale(
                set(decision.flagged), cycle, simulator, fresh_clock=window.fresh_clock
            )
        elif self._engaged and window.fresh_clock:
            self._release_ready(cycle, simulator)

    def _record_window(
        self,
        window: _Window,
        result: LocalizationResult,
        convicted: tuple[int, ...],
        decision: _Decision,
    ) -> None:
        """Append the window's record to the report (and to the trace)."""
        self.report.windows.append(
            WindowRecord(
                index=self._window_index,
                cycle=window.sample.cycle,
                detected=decision.acted,
                probability=result.detection_probability,
                phase=decision.phase,
                victims=tuple(result.victims),
                attackers=tuple(result.attackers),
                restricted=tuple(sorted(self._engaged)),
                benign_latency=window.stats.latency,
                benign_delivered=window.stats.benign_delivered,
                malicious_delivered=window.stats.malicious_delivered,
                suspected=convicted,
                unobservable=tuple(sorted(window.unobservable)),
                benign_fresh_latency=window.stats.fresh_latency,
                benign_fresh_delivered=window.stats.fresh_delivered,
                benign_backlog_delivered=window.stats.backlog_delivered,
            )
        )
        if BUS.active or METRICS.active:
            BUS.emit(
                "window",
                phase=decision.phase,
                detected=decision.acted,
                probability=float(result.detection_probability),
                attackers=sorted(result.attackers),
                suspected=list(convicted),
                engaged=sorted(self._engaged),
                unobservable=window.unobservable,
            )
            if METRICS.active:
                guard_events_counter().inc(kind="window")
        self._window_index += 1

    # -- mitigation mechanics ---------------------------------------------------
    def _engage_flagged(
        self, attackers: tuple[int, ...], cycle: int, simulator: NoCSimulator
    ) -> None:
        """Apply the countermeasure to persistently localized attackers.

        A node engages only once it has been flagged in ``engage_after``
        consecutive detection windows — per-node hysteresis on top of the
        detection itself, which keeps one-off localization noise from
        throttling innocents.  When the policy caps simultaneously engaged
        nodes, the most persistently flagged candidates are fenced first and
        the rest wait for the next localization round — the superset-recovery
        safeguard for a Table-Like Method that over-approximates.
        """
        flagged = set(attackers)
        for node in list(self._flag_streaks):
            if node not in flagged:
                del self._flag_streaks[node]
        eligible: list[tuple[int, int]] = []
        for node in attackers:
            if node in self._engaged:
                continue
            streak = self._flag_streaks.get(node, 0) + 1
            self._flag_streaks[node] = streak
            if streak >= self.policy.engage_after:
                eligible.append((node, streak))
        budget = len(eligible)
        if self.policy.max_engaged_nodes is not None:
            budget = max(0, self.policy.max_engaged_nodes - len(self._engaged))
        # Longest streak first: the most consistently localized candidate is
        # the "loudest" attacker of this round.
        eligible.sort(key=lambda item: (-item[1], item[0]))
        newly_engaged = []
        limit = self._current_limit()
        for node, _streak in eligible[:budget]:
            previous = simulator.network.injection_limit(node)
            simulator.throttle_node(node, limit)
            if self.policy.flush_queue:
                simulator.network.flush_source_queue(node)
            self._engage_counts[node] = self._engage_counts.get(node, 0) + 1
            self._engaged[node] = _EngagedNode(
                previous_limit=previous,
                # Seed the shadow counter from the suspicion the node built
                # in the open: the loudest conviction enters quarantine with
                # the most residual pressure to decay off.
                shadow_pressure=(
                    float(self.evidence.suspicion_of(node))
                    if self.evidence is not None
                    else 1.0
                ),
            )
            newly_engaged.append(node)
        if newly_engaged:
            if self._containment_epoch is None:
                # Anchor of the drain-aware latency split: benign packets
                # created before this cycle experienced the unmitigated
                # attack and drain as backlog; packets created after it
                # measure the fenced network itself.
                self._containment_epoch = cycle
            self._round += 1
            # A new localization round just opened: the attack is still
            # surfacing attackers, and a fenced attacker is indistinguishable
            # from a false positive (no evidence either way).  Restart the
            # stale clocks of every held node so the round churn cannot roll
            # back attacker k right as attacker k+1 engages — the whack-a-mole
            # failure of multi-source floods.  Once rounds stop opening, the
            # stale clocks run again and innocents release as before.
            for state in self._engaged.values():
                state.windows_since_flagged = 0
            self._emit(
                "engaged",
                cycle,
                sorted(newly_engaged),
                f"limit={limit:g}",
                round=self._round,
                trace=lambda: {"limit": float(limit)},
            )

    def _rollback_stale(
        self,
        flagged: set[int],
        cycle: int,
        simulator: NoCSimulator,
        fresh_clock: bool = True,
    ) -> None:
        """Release engaged nodes the localizer has stopped flagging.

        The per-node threshold grows with the node's engagement count: a
        fenced attacker looks exactly like a false positive (no congestion
        evidence), so a node that already bounced through a release probe is
        held longer before the next one.  Stale-clocked windows (delayed
        delivery) re-flag as usual but never advance the rollback clocks:
        releases are only earned on current observations.
        """
        rolled_back = []
        for node, state in list(self._engaged.items()):
            if node in flagged:
                state.windows_since_flagged = 0
                continue
            if not fresh_clock:
                continue
            state.windows_since_flagged += 1
            threshold = self.policy.stale_threshold(self._engage_counts.get(node, 1))
            if state.windows_since_flagged >= threshold:
                self._release_node(node, simulator)
                rolled_back.append(node)
        if rolled_back:
            self._emit("rolled_back", cycle, rolled_back, "no longer localized")
            if not self._engaged:
                # The rollback lifted the last restriction: record a full
                # release so the report's release_cycle reflects reality.
                # Its nodes were tallied by the rollback already.
                self._emit(
                    "released",
                    cycle,
                    rolled_back,
                    "all restrictions rolled back",
                    tally=False,
                )

    def _release_ready(self, cycle: int, simulator: NoCSimulator) -> None:
        """Release ONE engaged node whose clean-window hold has expired.

        Per-node release state: each node's required clean streak is scaled
        by the policy's re-engage backoff, so first offenders release after
        ``release_after`` clean windows exactly as before, while oscillating
        nodes wait exponentially longer.

        Releases are **staggered, one fence at a time**: a quarantined
        attacker leaves no evidence, so every release is a probe, and
        releasing all ready nodes at once would restart a distributed flood
        in a single window and forfeit containment.  The least re-engaged
        node goes first (most likely an innocent), ties broken by the
        lowest shadow-pressure estimate — the node whose residual pressure
        behind the fence has decayed furthest is the safest probe — and the
        policy's
        ``release_probe_spacing`` leaves clean windows between consecutive
        probes so a released attacker's congestion has time to rebuild and
        break the streak before the next fence lifts.
        """
        ready = [
            node
            for node in sorted(self._engaged)
            if self._consecutive_clean
            >= self.policy.release_threshold(self._engage_counts.get(node, 1))
        ]
        if not ready:
            return
        if (
            self._last_probe_window is not None
            and self._window_index - self._last_probe_window
            < self.policy.release_probe_spacing
        ):
            return
        probe = min(
            ready,
            key=lambda node: (
                self._engage_counts.get(node, 1),
                self._engaged[node].shadow_pressure,
                node,
            ),
        )
        self._release_node(probe, simulator)
        self._last_probe_window = self._window_index
        if not self._engaged:
            self._flag_streaks.clear()
        detail = f"{self._consecutive_clean} clean windows"
        if self._engaged:
            detail += f"; staggered probe, {len(self._engaged)} still fenced"
        self._emit(
            "released",
            cycle,
            (probe,),
            detail,
            trace=lambda: {"clean_windows": self._consecutive_clean},
        )

    def _release_node(self, node: int, simulator: NoCSimulator) -> None:
        state = self._engaged.pop(node)
        # A released node must rebuild a full engage_after streak before it
        # can be fenced again — without this, a streak surviving a partial
        # release would let one noisy localization instantly re-engage it.
        self._flag_streaks.pop(node, None)
        if self.evidence is not None:
            # The release is a probe: whatever suspicion the node retained
            # while fenced is stale (a fenced flood leaves no signature), so
            # re-conviction must come from fresh post-release evidence.
            self.evidence.reset_node(node)
        if self.policy.flush_queue:
            # Restart the interface cleanly: the backlog accumulated while
            # fenced would otherwise pour out the moment the limit lifts.
            simulator.network.flush_source_queue(node)
        simulator.throttle_node(node, state.previous_limit)
        if not self._engaged:
            self._containment_epoch = None
            # The PI controller's error history belongs to the episode that
            # just closed; the next engagement starts from the base factor.
            self._throttle_integral = 0.0
            self._adaptive_limit = None

    # -- adaptive throttle & shadow counters ----------------------------------
    def _current_limit(self) -> float:
        """Injection limit to apply at the next engagement.

        The policy's static limit, unless the adaptive throttle has steered
        one (throttle action only — quarantine is absolute by definition).
        """
        if (
            self.policy.adaptive_throttle
            and self.policy.action == "throttle"
            and self._adaptive_limit is not None
        ):
            return self._adaptive_limit
        return self.policy.injection_limit

    def _update_adaptive_throttle(
        self, stats: "_WindowStats", simulator: NoCSimulator
    ) -> None:
        """One PI step of the adaptive throttle; re-applies the steered limit.

        Un-engaged windows learn the benign delivery baseline (EWMA of
        benign packets delivered per window).  Engaged windows measure the
        *fresh* benign delivery — packets created under the fence, the
        drain-aware recovery signal — against that baseline and steer the
        limit: under-recovery (error > 0) tightens it below
        ``throttle_factor``, sustained full recovery relaxes it above, so
        a mis-fenced innocent wins its bandwidth back without a release.
        """
        if not self.policy.adaptive_throttle or self.policy.action != "throttle":
            return
        if not self._engaged:
            rate = float(stats.benign_delivered)
            if self._baseline_rate is None:
                self._baseline_rate = rate
            else:
                decay = self._BASELINE_DECAY
                self._baseline_rate = decay * self._baseline_rate + (1.0 - decay) * rate
            return
        baseline = self._baseline_rate
        if not baseline:
            return
        # Cap the ratio: a backlog draining out can briefly over-deliver,
        # and one such burst must not slam the integral.
        recovery = min(float(stats.fresh_delivered) / baseline, 2.0)
        error = 1.0 - recovery
        cap = self._ADAPTIVE_INTEGRAL_CAP
        self._throttle_integral = float(
            np.clip(self._throttle_integral + error, -cap, cap)
        )
        base = self.policy.throttle_factor
        limit = base * (
            1.0
            - self._ADAPTIVE_KP * error
            - self._ADAPTIVE_KI * self._throttle_integral
        )
        limit = float(
            np.clip(
                limit,
                self._ADAPTIVE_MIN_SCALE * base,
                min(self._ADAPTIVE_MAX_SCALE * base, 0.95),
            )
        )
        self._adaptive_limit = limit
        for node in self._engaged:
            simulator.throttle_node(node, limit)

    def _update_shadow_pressure(self, flagged: set[int]) -> None:
        """Cool every engaged node's shadow counter; re-heat re-flagged ones.

        Runs every window (detected or clean): pressure is an estimate of
        what the fence is currently holding back, and quiet windows are the
        only evidence a quarantined source has actually stopped pushing.
        """
        for node, state in self._engaged.items():
            state.shadow_pressure *= self._SHADOW_DECAY
            if node in flagged:
                state.shadow_pressure += 1.0

    # -- observability ---------------------------------------------------------
    def _emit(
        self,
        kind: str,
        cycle: int,
        nodes: Sequence[int] = (),
        detail: str = "",
        round: int = 0,
        tally: bool = True,
        trace: Callable[[], dict[str, object]] | None = None,
    ) -> None:
        """Record one decision in the report; mirror it while observability is on.

        The :class:`DefenseEvent` is always appended.  With tracing on, it
        is emitted on the bus (the fields ``trace`` returns plus the event's
        nodes and round when set, and the nodes still fenced after a release;
        not ``convicted``, which the evidence accumulator traces itself) and,
        if ``tally``, its nodes are added to the report's ``event_counts``.
        With metrics on, it is counted (``convicted`` by nodes, every other
        kind by events).  ``trace`` is only called while tracing, so the
        extra fields cost nothing when observability is off.
        """
        event = DefenseEvent(
            cycle=cycle, kind=kind, nodes=tuple(nodes), detail=detail, round=round
        )
        self.report.events.append(event)
        if BUS.active:
            if kind != "convicted":
                fields = trace() if trace is not None else {}
                if event.nodes:
                    fields["nodes"] = event.nodes
                if round:
                    fields["round"] = round
                if kind in ("rolled_back", "released"):
                    fields["remaining"] = len(self._engaged)
                BUS.emit(kind, **fields)
            if tally and kind in _TALLY_KEYS:
                self.report.event_counts[_TALLY_KEYS[kind]] += len(event.nodes)
        if METRICS.active:
            amount = len(event.nodes) if kind == "convicted" else 1
            guard_events_counter().inc(amount, kind=kind)

    # -- measurement ----------------------------------------------------------
    def _window_latency(self, simulator: NoCSimulator) -> "_WindowStats":
        """Benign latency and delivery counts since the last window.

        Alongside the plain benign mean, delivered benign packets are split
        at the containment epoch (the first engagement of the current
        episode) into **backlog** — created before the fence went up, so
        their latency is attack damage draining out — and **fresh** —
        created under the fence, measuring the quality of the fenced
        network itself.  Before any engagement everything counts as fresh.
        """
        view = simulator.stats.delivered_view(self._delivered_index)
        self._delivered_index += len(view)
        benign = ~view.malicious
        latencies = (view.ejected - view.created)[benign]
        mean = float(np.mean(latencies)) if latencies.size else math.nan
        epoch = self._containment_epoch
        if epoch is None:
            fresh_latencies = latencies
        else:
            fresh_latencies = latencies[view.created[benign] >= epoch]
        fresh_mean = (
            float(np.mean(fresh_latencies)) if fresh_latencies.size else math.nan
        )
        return _WindowStats(
            latency=mean,
            benign_delivered=int(latencies.size),
            malicious_delivered=len(view) - int(latencies.size),
            fresh_latency=fresh_mean,
            fresh_delivered=int(fresh_latencies.size),
            backlog_delivered=int(latencies.size - fresh_latencies.size),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DL2FenceGuard(policy={self.policy.name}, "
            f"engaged={self.engaged_nodes}, windows={self._window_index})"
        )
