"""Unit tests for the trace-summary CLI (`python -m repro.obs.summarize`)."""

import json

import pytest

from repro.core.pipeline import LocalizationResult
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.monitor.sampler import MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.obs.bus import RingBufferSink, serialize_event, trace_session
from repro.obs.summarize import (
    crosscheck_report,
    load_events,
    main,
    timeline_lines,
    trace_counts,
)
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.synthetic import UniformRandomTraffic


def event(kind, episode=0, cycle=100, window=1, **fields):
    return {
        "schema": 1,
        "kind": kind,
        "episode": episode,
        "cycle": cycle,
        "window": window,
        **fields,
    }


SAMPLE_EVENTS = [
    event("window", window=0, cycle=100, phase="benign", detected=False),
    event("detected", window=2, cycle=300, probability=0.9, via="detector"),
    event("engaged", window=2, cycle=300, nodes=[5, 34], limit=0.0),
    event("convicted", window=3, cycle=400, nodes=[5, 34]),
    event("window_sanitized", window=4, cycle=500, imputed_cells=3),
    event("detour_discount", window=4, cycle=500, nodes=[7], discount=0.5),
    event("released", window=8, cycle=900, nodes=[5], clean_windows=2, remaining=1),
    event("rolled_back", window=9, cycle=1000, nodes=[34], remaining=0),
    event("released", window=9, cycle=1000, nodes=[34], remaining=0),
]


def write_trace(path, events):
    path.write_text("".join(serialize_event(e) + "\n" for e in events))
    return path


class TestLoadEvents:
    def test_reads_files_and_directories(self, tmp_path):
        write_trace(tmp_path / "trace-1.jsonl", SAMPLE_EVENTS[:2])
        write_trace(tmp_path / "trace-2.jsonl", SAMPLE_EVENTS[2:4])
        assert len(load_events([tmp_path])) == 4
        assert len(load_events([tmp_path / "trace-1.jsonl"])) == 2

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events([tmp_path / "absent.jsonl"])

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events([tmp_path])

    def test_garbage_line_raises_with_location(self, tmp_path):
        bad = tmp_path / "trace-1.jsonl"
        bad.write_text('{"kind":"window"}\nnot json\n')
        with pytest.raises(ValueError, match="trace-1.jsonl:2"):
            load_events([bad])

    def test_non_event_json_rejected(self, tmp_path):
        bad = tmp_path / "trace-1.jsonl"
        bad.write_text('{"no_kind": 1}\n')
        with pytest.raises(ValueError, match="not a trace event"):
            load_events([bad])


class TestTraceCounts:
    def test_counts_match_guard_bookkeeping(self):
        assert trace_counts(SAMPLE_EVENTS) == {
            "engagements": 2,
            # one probe release + one rolled-back node; the final bare
            # "released" marker restates the rollback and must not double-count
            "releases": 2,
            "convictions": 2,
            "clamps": 3,
            "detour_discounts": 1,
        }

    def test_empty_trace_is_all_zero(self):
        assert set(trace_counts([]).values()) == {0}


class TestCrosscheck:
    def report(self, **overrides):
        report = {
            "event_counts": {
                "engagements": 2,
                "releases": 2,
                "convictions": 2,
                "clamps": 3,
                "detour_discounts": 1,
            },
            "events": [
                {"kind": "engaged", "cycle": 300, "nodes": [5, 34]},
                {"kind": "convicted", "cycle": 400, "nodes": [5, 34]},
                {"kind": "rolled_back", "cycle": 1000, "nodes": [34]},
            ],
        }
        report.update(overrides)
        return report

    def test_agreeing_report_passes(self):
        assert crosscheck_report(SAMPLE_EVENTS, self.report()) == []

    def test_count_mismatch_detected(self):
        report = self.report()
        report["event_counts"]["convictions"] = 9
        problems = crosscheck_report(SAMPLE_EVENTS, report)
        assert any("convictions" in p for p in problems)

    def test_event_log_mismatch_detected(self):
        report = self.report(
            events=[{"kind": "engaged", "cycle": 300, "nodes": [5]}]
        )
        problems = crosscheck_report(SAMPLE_EVENTS, report)
        assert any("engaged nodes" in p for p in problems)

    def test_report_without_counts_checks_event_log_only(self):
        assert crosscheck_report(SAMPLE_EVENTS, self.report(event_counts={})) == []


class NoisyOracleFence:
    """Detects exactly while the attack is active, naming the attackers and,
    in the first attack window only, one innocent node."""

    def __init__(self, attackers, innocent):
        self.attackers = list(attackers)
        self.innocent = innocent

    def process_sample(self, sample, force_localization=False, detection=None):
        attackers = list(self.attackers) if sample.attack_active else []
        if attackers and self.innocent is not None:
            attackers.append(self.innocent)
            self.innocent = None
        return LocalizationResult(
            cycle=sample.cycle,
            detected=sample.attack_active,
            detection_probability=1.0 if sample.attack_active else 0.0,
            attackers=attackers,
        )


class TestRealEpisodeCrosscheck:
    def test_guarded_episode_trace_agrees_with_report(self):
        """A traced 6x6 flood episode that runs past the attack's end: the
        innocent named once is rolled back, the attackers are released
        once the flood stops, and trace and report agree throughout."""
        period, warmup = 64, 16
        simulator = NoCSimulator(SimulationConfig(rows=6, warmup_cycles=warmup, seed=5))
        topology = simulator.topology
        simulator.add_source(
            UniformRandomTraffic(topology, injection_rate=0.05, seed=6)
        )
        simulator.add_source(
            FloodingAttacker(
                FloodingConfig(
                    attackers=(35, 3),
                    victim=1,
                    start_cycle=warmup + 2 * period,
                    end_cycle=warmup + 8 * period,
                ),
                topology,
                seed=7,
            )
        )
        guard = DL2FenceGuard(
            NoisyOracleFence((35, 3), innocent=20),
            MitigationPolicy.quarantine(
                engage_after=1, release_after=2, stale_after=2, flush_queue=True
            ),
        )
        with trace_session(RingBufferSink()) as sink:
            guard.attach(simulator, monitor_config=MonitorConfig(sample_period=period))
            simulator.run(warmup + 14 * period)
        events = sink.events()
        report = guard.report.as_dict()
        assert crosscheck_report(events, report) == []
        traced = {event["kind"] for event in events}
        logged = {event["kind"] for event in report["events"]}
        assert {"engaged", "rolled_back", "released"} <= traced & logged
        assert report["event_counts"]["releases"] > 0
        assert guard.engaged_nodes == []


class TestTimeline:
    def test_decision_events_rendered_in_order(self):
        lines = timeline_lines(SAMPLE_EVENTS, episode=0)
        assert lines[0].startswith("episode 0: 8 decision events")
        assert "detected" in lines[1]
        assert "engaged" in lines[2]
        assert "nodes=[5, 34]" in lines[2]

    def test_window_events_opt_in(self):
        assert len(timeline_lines(SAMPLE_EVENTS, episode=0)) == 9
        assert (
            len(timeline_lines(SAMPLE_EVENTS, episode=0, include_windows=True)) == 10
        )

    def test_other_episodes_filtered(self):
        assert timeline_lines(SAMPLE_EVENTS, episode=3) == [
            "episode 3: 0 decision events"
        ]


class TestMainExitCodes:
    def test_ok_run(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace-1.jsonl", SAMPLE_EVENTS)
        assert main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "9 events" in out
        assert "totals:" in out

    def test_crosscheck_pass_and_fail(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace-1.jsonl", SAMPLE_EVENTS)
        good = TestCrosscheck().report()
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(good))
        assert main([str(trace), "--report", str(report_path)]) == 0
        assert "cross-check ok" in capsys.readouterr().out

        good["event_counts"]["engagements"] = 99
        report_path.write_text(json.dumps(good))
        assert main([str(trace), "--report", str(report_path)]) == 1
        assert "cross-check FAILED" in capsys.readouterr().err

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_report_is_usage_error(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace-1.jsonl", SAMPLE_EVENTS)
        assert main([str(trace), "--report", str(tmp_path / "absent.json")]) == 2
        assert "cannot read report" in capsys.readouterr().err

    def test_episode_filter(self, tmp_path, capsys):
        events = SAMPLE_EVENTS + [event("engaged", episode=1, nodes=[2])]
        trace = write_trace(tmp_path / "trace-1.jsonl", events)
        assert main([str(trace), "--episode", "1"]) == 0
        out = capsys.readouterr().out
        assert "episode 1: 1 decision events" in out
        assert "episode 0:" not in out

    def test_module_entrypoint(self, tmp_path):
        """`python -m repro.obs.summarize` must resolve and run."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        trace = write_trace(tmp_path / "trace-1.jsonl", SAMPLE_EVENTS)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.summarize", str(trace)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "9 events" in proc.stdout
