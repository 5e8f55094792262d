"""Stateful laws of the guard's decision machine.

A ``hypothesis`` rule-based state machine drives one guard with a scripted
fence through an arbitrary interleaving of attack, stealth, benign, detour,
dropped (a delivery gap) and stale-clocked (delayed) windows on an idle 4x4
mesh, and checks after every window the laws the hysteresis, the blast
radius cap and the degraded-mode clock must keep whatever the stream:

* a stream with no attack evidence never engages anything;
* every ``engaged`` event is emitted in a window recorded ``detected``;
* no more than ``max_engaged_nodes`` nodes are fenced at once;
* stale-clocked windows never roll back or release a fence;
* the fenced set, the mesh's injection limits and the report's event log
  tell the same story;
* under a trace session, the trace and the report's ``event_counts`` and
  event log agree (``crosscheck_report`` finds nothing).
"""

from contextlib import ExitStack
from types import SimpleNamespace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.pipeline import LocalizationResult
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.faults.monitor import DETOUR_KEY, LOCAL_BOC_KEY
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.obs.bus import RingBufferSink, trace_session
from repro.obs.summarize import crosscheck_report

PERIOD = 16
ROWS = 4
#: Nodes the scripted localizer may name (attackers and innocents alike).
POOL = (1, 5, 6, 10, 15)
MAX_ENGAGED = 2

POLICIES = (
    MitigationPolicy.quarantine(
        engage_after=1, release_after=2, stale_after=2, flush_queue=True,
        max_engaged_nodes=MAX_ENGAGED,
    ),
    MitigationPolicy.throttle(
        0.1, engage_after=2, release_after=2, stale_after=2,
        max_engaged_nodes=MAX_ENGAGED,
    ),
    MitigationPolicy.throttle(
        0.2, engage_after=1, release_after=1, stale_after=1,
        max_engaged_nodes=MAX_ENGAGED, adaptive_throttle=True,
    ),
)

namings = st.lists(st.sampled_from(POOL), max_size=3, unique=True)


class ScriptedFence:
    """Replays the (detected, probability, attackers) each sample carries."""

    def process_sample(self, sample, force_localization=False, detection=None):
        detected, probability, attackers = sample.script
        return LocalizationResult(
            cycle=sample.cycle,
            detected=detected,
            detection_probability=probability,
            attackers=list(attackers),
        )


class GuardLaws(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(POLICIES))
    def start(self, policy):
        self._stack = ExitStack()
        self.sink = self._stack.enter_context(trace_session(RingBufferSink()))
        self.simulator = NoCSimulator(SimulationConfig(rows=ROWS, warmup_cycles=0))
        self.guard = DL2FenceGuard(ScriptedFence(), policy)
        self.guard.simulator = self.simulator
        self.guard.report.sample_period = PERIOD
        self.attack_seen = False

    def teardown(self):
        stack = getattr(self, "_stack", None)
        if stack is not None:
            stack.close()

    # -- the window stream ----------------------------------------------------
    def _deliver(self, script, lag=0, metadata=None):
        """Advance the mesh one window and hand the guard a sample ``lag``
        windows behind the mesh clock."""
        self.simulator.run(PERIOD)
        sample = SimpleNamespace(
            cycle=self.simulator.cycle - lag * PERIOD,
            script=script,
            metadata=metadata or {},
        )
        events_before = len(self.guard.report.events)
        self.guard.on_sample(sample, self.simulator)
        new = self.guard.report.events[events_before:]
        window = self.guard.report.windows[-1]
        if any(event.kind == "engaged" for event in new):
            assert window.detected, "engaged in a window not recorded detected"
        return new

    @rule(attackers=namings)
    def attack_window(self, attackers):
        self.attack_seen = True
        self._deliver((True, 0.9, attackers))

    @rule(attackers=namings)
    def stealth_window(self, attackers):
        """Under the detector's bar but above the evidence floor."""
        self.attack_seen = True
        self._deliver((False, 0.6, attackers))

    @rule(spurious=namings)
    def benign_window(self, spurious):
        """Quiet detector; the localizer may still name innocents."""
        self._deliver((False, 0.1, spurious))

    @rule(
        attackers=namings,
        detour=st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True),
        hot=st.lists(st.sampled_from(POOL), max_size=2, unique=True),
    )
    def detour_window(self, attackers, detour, hot):
        """An attack window on a rerouted mesh; ``hot`` carriers inject."""
        self.attack_seen = True
        activity = [1.0] * (ROWS * ROWS)
        for node in hot:
            activity[node] = 10.0
        self._deliver(
            (True, 0.9, attackers),
            metadata={DETOUR_KEY: tuple(detour), LOCAL_BOC_KEY: activity},
        )

    @rule(windows=st.integers(1, 4))
    def dropped_windows(self, windows):
        """Windows lost in delivery: the mesh runs on, the guard sees nothing."""
        self.simulator.run(windows * PERIOD)

    @precondition(lambda self: self.simulator.cycle >= 2 * PERIOD)
    @rule(detected=st.booleans(), attackers=namings)
    def stale_window(self, detected, attackers):
        """A delayed window two periods behind the mesh clock."""
        if detected or attackers:
            self.attack_seen = True
        new = self._deliver((detected, 0.9 if detected else 0.1, attackers), lag=2)
        released = [e for e in new if e.kind in ("rolled_back", "released")]
        assert not released, f"stale window released: {released}"

    # -- laws --------------------------------------------------------------
    @invariant()
    def benign_streams_never_engage(self):
        if not self.attack_seen:
            assert not self.guard.report.engaged_nodes

    @invariant()
    def blast_radius_is_capped(self):
        assert len(self.guard.engaged_nodes) <= MAX_ENGAGED
        assert all(len(w.restricted) <= MAX_ENGAGED for w in self.guard.report.windows)

    @invariant()
    def fence_state_matches_events_and_mesh(self):
        fenced: set[int] = set()
        for event in self.guard.report.events:
            if event.kind == "engaged":
                fenced.update(event.nodes)
            elif event.kind in ("rolled_back", "released"):
                fenced.difference_update(event.nodes)
        assert sorted(fenced) == self.guard.engaged_nodes
        network = self.simulator.network
        limited = [
            node for node in range(ROWS * ROWS) if network.injection_limit(node) < 1.0
        ]
        assert limited == self.guard.engaged_nodes

    @invariant()
    def trace_agrees_with_report(self):
        problems = crosscheck_report(self.sink.events(), self.guard.report.as_dict())
        assert problems == []


GuardLaws.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestGuardLaws = GuardLaws.TestCase
