"""Per-episode caching of the mitigation sweep and the robustness/chaos matrices.

The whole-matrix record is memoised too; these tests pin the finer
granularity: every guarded episode and every unmitigated comparator is
cached individually, so extending a sweep or matrix only simulates the new
episodes, and a cached episode reproduces its row bit for bit.
"""

import math

import pytest

from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseEvent, DefenseReport, WindowRecord
from repro.experiments import ExperimentConfig
from repro.experiments.mitigation import run_mitigation_sweep
from repro.experiments.robustness import run_chaos_matrix, run_robustness_matrix
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ExperimentEngine
from repro.runtime.parallel import ParallelRunner

QUICK = ExperimentConfig.quick()
POLICY = MitigationPolicy.quarantine(engage_after=1)


def _engine(tmp_path) -> ExperimentEngine:
    return ExperimentEngine(
        cache=ArtifactCache(root=tmp_path / "cache", enabled=True),
        runner=ParallelRunner(workers=1),
    )


def _sweep(firs):
    return lambda engine: run_mitigation_sweep(
        firs=firs,
        rows_values=(QUICK.rows,),
        policies=(POLICY,),
        config=QUICK,
        engine=engine,
    )


def _robustness(attacks):
    return lambda engine: run_robustness_matrix(
        attacks=attacks,
        rows_values=(QUICK.rows,),
        config=QUICK,
        attack_windows=6,
        engine=engine,
    )


def _chaos(attacks, scenarios):
    return lambda engine: run_chaos_matrix(
        attacks=attacks,
        rows_values=(QUICK.rows,),
        fault_scenarios=scenarios,
        config=QUICK,
        attack_windows=6,
        engine=engine,
    )


def _row_id(point) -> tuple:
    return type(point), getattr(point, "attack", None), getattr(point, "fir", None)


#: (first call, extended call, cache hits and misses of the extended call,
#: rows the two calls share).  Every extended call misses its whole-matrix
#: record and hits the trained-fence entry of the shared mesh.
EXTENSIONS = {
    # + one FIR: the shared FIR's comparator and episode hit.
    "sweep-fir": (_sweep((0.8,)), _sweep((0.8, 0.4)), 3, 3, 1),
    # + one attack: pulsed's comparator and episode hit, ramping simulates.
    "robustness-attack": (
        _robustness(("pulsed",)),
        _robustness(("pulsed", "ramping")),
        3,
        3,
        1,
    ),
    # A chaos matrix after a robustness matrix shares only the pipeline.
    "chaos-after-robustness": (
        _robustness(("pulsed",)),
        _chaos(("pulsed",), ("dropout_silent",)),
        1,
        2,
        0,
    ),
}


class TestDefenseReportPayload:
    def test_round_trip_preserves_everything(self):
        report = DefenseReport(
            policy=MitigationPolicy.throttle(0.2, engage_after=3, flush_queue=True),
            sample_period=100,
            attack_start=200,
            attack_end=900,
            true_attackers=(5, 9),
            windows=[
                WindowRecord(
                    index=0,
                    cycle=100,
                    detected=False,
                    probability=0.12,
                    phase="benign",
                    benign_latency=math.nan,
                ),
                WindowRecord(
                    index=1,
                    cycle=200,
                    detected=True,
                    probability=0.97,
                    phase="attack",
                    victims=(1, 2),
                    attackers=(5,),
                    restricted=(5,),
                    benign_latency=14.5,
                    benign_delivered=7,
                    malicious_delivered=3,
                ),
            ],
            events=[
                DefenseEvent(cycle=200, kind="detected", detail="p=0.97"),
                DefenseEvent(cycle=200, kind="engaged", nodes=(5,), round=1),
            ],
        )
        rebuilt = DefenseReport.from_payload(report.to_payload())
        assert rebuilt.policy == report.policy
        assert rebuilt.windows == report.windows
        assert rebuilt.events == report.events
        assert rebuilt.as_dict() == report.as_dict()


class TestPerEpisodeCache:
    @pytest.mark.parametrize(
        "first, extended, hits, misses, shared",
        list(EXTENSIONS.values()),
        ids=list(EXTENSIONS),
    )
    def test_extending_reuses_cached_episodes(
        self, tmp_path, first, extended, hits, misses, shared
    ):
        """Extending a sweep or matrix re-runs none of the overlapping episodes."""
        first_rows = {
            _row_id(point): point.to_payload() for point in first(_engine(tmp_path))
        }
        engine = _engine(tmp_path)
        points = extended(engine)
        assert (engine.cache.stats.hits, engine.cache.stats.misses) == (hits, misses)
        common = [point for point in points if _row_id(point) in first_rows]
        assert len(common) == shared
        assert [first_rows[_row_id(point)] for point in common] == [
            point.to_payload() for point in common
        ]

    def test_cached_episode_matches_fresh(self, tmp_path):
        """A cache-served sweep equals the freshly simulated one exactly."""
        warm_engine = _engine(tmp_path)
        fresh = run_mitigation_sweep(
            firs=(0.8,),
            rows_values=(QUICK.rows,),
            policies=(POLICY,),
            config=QUICK,
            engine=warm_engine,
        )
        replay_engine = _engine(tmp_path)
        replayed = run_mitigation_sweep(
            firs=(0.8,),
            rows_values=(QUICK.rows,),
            policies=(POLICY,),
            config=QUICK,
            engine=replay_engine,
        )
        assert [p.to_payload() for p in fresh] == [p.to_payload() for p in replayed]
        assert replay_engine.cache.stats.hits > 0
