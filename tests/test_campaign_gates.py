"""The campaigns' gates (``benchmarks/campaign.py``), without running a
campaign: each gate's minimal passing results give no failure, and a
copy with one criterion broken gives exactly that criterion, by name.
"""

import copy
import json

import pytest

import bench_common
import campaign
import perf_suite
from bench_common import PERF_BASELINE_PATH


def _gate(name):
    return campaign.CAMPAIGNS[name][1]


def _broken(results, path, value):
    """A deep copy of ``results`` with the item at ``path`` set."""
    broken = copy.deepcopy(results)
    target = broken
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return broken


CHAOS = {"checks": {
    "integrity_false_positives": 0, "lost_acked_writes": 0,
    "duplicated_writes": 0, "root_matches_uninterrupted_run": True,
    "sync_check": True, "tampered_wal_detected": True,
    "at_least_20_drops_and_truncations": True, "at_least_5_restarts": True,
}}
BYZANTINE = {"checks": {
    "false_positives": 0, "missed_detections": 0,
    "out_of_bound_detections": 0, "unproven_detections": 0,
    "attacks_that_never_deviated": 0, "obs_consistent": True,
}}
REPLICATION = {"checks": {
    "false_positives": 0, "missed_divergences": 0,
    "misattributed_bundles": 0, "unproven_detections": 0,
    "falsely_excluded_witnesses": 0, "false_accusations": 0,
    "stalled_honest_clients": 0, "collusions_never_exercised": 0,
    "attacks_that_never_deviated": 0, "obs_consistent": True,
}}
SCALE = {"checks": {
    "verify_failures": 0, "roots_match": True, "vo_growth_olog_s": True,
    "overhead_bounded": True, "sim_false_positives": 0,
}}
STORAGE = {
    "crash_matrix": [{"backend": "file", "point": "wal:append", "checks": {
        "fired": True, "landed": True, "acked_lost": 0,
        "root_matches_reference": True, "dedup_matches_reference": True,
        "vos_verify": True, "writable_after_recovery": True}}],
    "tamper_gallery": [{"backend": "file", "scenario": "wal-length-flip",
                        "pass": True, "outcome": "refused"}],
    "flip_sweep": [{"backend": "sqlite", "file": "pages.db", "failing": []}],
    "streaming_restart": {"checks": {"root_matches": True,
                                     "streamed_over_10_pages": True,
                                     "resident_under_bound": True}},
    "incremental_checkpoint": {"checks": {"root_matches": True}},
}
THROUGHPUT = {
    "mode": "quick",
    "rows": [{"transport": "pipelined", "ops_per_s": 900.0,
              "sync_check": True}],
    "protocol1": {
        "stop_and_wait": {"sync_check": True, "ops_per_s": 100.0},
        "pipelined": {"sync_check": True, "signatures": 12, "ops": 32,
                      "ops_per_s": 500.0},
        "amortization_bound": 16, "speedup": 5.0,
    },
}

#: (campaign, passing results, broken path, broken value, the failure)
BROKEN = [
    ("chaos", CHAOS, ("checks", "lost_acked_writes"), 1,
     "lost_acked_writes = 1"),
    ("chaos-pipelined", CHAOS, ("checks", "tampered_wal_detected"), False,
     "tampered_wal_detected = False"),
    ("byzantine", BYZANTINE, ("checks", "false_positives"), 1,
     "false_positives = 1"),
    ("replication", REPLICATION, ("checks", "misattributed_bundles"), 2,
     "misattributed_bundles = 2"),
    ("scale", SCALE, ("checks", "roots_match"), False, "roots_match = False"),
    ("storage", STORAGE, ("crash_matrix", 0, "checks", "acked_lost"), 1,
     "crash file/wal:append: acked_lost = 1"),
    ("storage", STORAGE, ("tamper_gallery", 0, "pass"), False,
     "tamper file/wal-length-flip: refused"),
    ("storage", STORAGE, ("flip_sweep", 0, "failing"), ["7518: silent"],
     "flip sqlite/pages.db at 7518: silent"),
    ("storage", STORAGE,
     ("streaming_restart", "checks", "resident_under_bound"), False,
     "streaming_restart: resident_under_bound = False"),
    ("throughput", THROUGHPUT, ("protocol1", "pipelined", "signatures"), 17,
     "Protocol I signatures not amortized: 17 for 32 ops (bound 16)"),
    ("throughput", THROUGHPUT, ("protocol1", "stop_and_wait", "sync_check"),
     False, "Protocol I count sync failed (stop_and_wait)"),
]


@pytest.mark.parametrize("name,results", [
    ("chaos", CHAOS), ("chaos-pipelined", CHAOS), ("byzantine", BYZANTINE),
    ("replication", REPLICATION), ("scale", SCALE), ("storage", STORAGE),
    ("throughput", THROUGHPUT)])
def test_passing_results_fail_nothing(name, results):
    assert _gate(name)(results) == []


@pytest.mark.parametrize("name,results,path,value,failure", BROKEN,
                         ids=[f"{case[0]}-{case[2][-1]}" for case in BROKEN])
def test_one_broken_criterion_is_named(name, results, path, value, failure):
    assert _gate(name)(_broken(results, path, value)) == [failure]


def test_a_count_is_not_a_bool():
    """A count of 1 is a failure even though ``1 == True``, and
    ``False`` one even though ``False == 0``."""
    results = {"checks": {"lost": 1, "held": False}}
    assert _gate("chaos")(results) == ["lost = 1", "held = False"]


class TestPerfGate:
    @pytest.fixture
    def baseline(self):
        with open(PERF_BASELINE_PATH, encoding="utf-8") as handle:
            return json.load(handle)["after"]

    @pytest.mark.parametrize("gate", ["perf", "perf-baseline"])
    def test_the_baseline_itself_passes(self, baseline, gate):
        results = {"metrics": dict(baseline), "baseline": baseline}
        assert _gate(gate)(results) == []

    @pytest.mark.parametrize("row,factor", [("rsa_sign_per_s", 1 / 3.2),
                                            ("pagestore_load_ms", 3.2)])
    def test_a_row_3x_off_is_named(self, baseline, row, factor):
        metrics = dict(baseline, **{row: baseline[row] * factor})
        failures = _gate("perf")({"metrics": metrics, "baseline": baseline})
        assert len(failures) == 1 and failures[0].startswith(f"{row}: ")

    def test_a_row_under_3x_off_passes(self, baseline):
        metrics = dict(baseline,
                       rsa_sign_per_s=baseline["rsa_sign_per_s"] / 2.9)
        assert _gate("perf")({"metrics": metrics, "baseline": baseline}) == []

    @pytest.mark.parametrize("delta", [1, -1])
    def test_a_count_one_off_is_named(self, baseline, delta):
        """The hook count of the fixed E12 run is compared exactly: one
        hook more or fewer is named, where the 3x ratio passed it."""
        count = baseline["obs_hook_fires_e12"]
        metrics = dict(baseline, obs_hook_fires_e12=count + delta)
        failures = _gate("perf")({"metrics": metrics, "baseline": baseline})
        assert failures == [f"obs_hook_fires_e12: {count + delta} vs baseline "
                            f"{count} (a count: compared exactly)"]

    def test_disabled_hooks_over_budget_are_named(self, baseline):
        metrics = dict(baseline, obs_disabled_overhead_pct=3.5)
        failures = _gate("perf")({"metrics": metrics, "baseline": baseline})
        assert failures == ["obs_disabled_overhead_pct: 3.5 exceeds the 3% "
                            "disabled-hook budget"]

    def test_no_baseline_is_a_failure(self, baseline):
        failures = _gate("perf")({"metrics": baseline, "baseline": {}})
        assert failures == ["BENCH_perf.json has no 'after' block: record "
                            "one with perf-baseline"]
        failures = _gate("perf")({"mode": "quick", "metrics": baseline,
                                  "baseline": {}})
        assert failures == ["BENCH_perf.json has no 'quick' block: record "
                            "one with perf-baseline --quick"]


class TestPerfModes:
    """A quick run is judged against the quick rows ``perf-baseline
    --quick`` recorded, a full one against the full rows: the quick
    suite's smaller store reads several times better than the full
    one, so against full rows a quick regression that size passes."""

    @pytest.fixture
    def recorded(self):
        with open(PERF_BASELINE_PATH, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture
    def suite(self, monkeypatch, tmp_path):
        """The suite with ``measure`` returning the recorded rows of the
        mode asked for, writing into ``tmp_path``."""
        monkeypatch.setattr(bench_common, "RESULTS_DIR", str(tmp_path))
        return perf_suite

    @pytest.mark.parametrize("quick,block", [(True, "quick"), (False, "after")])
    def test_each_mode_is_judged_by_its_own_block(self, suite, recorded,
                                                  monkeypatch, quick, block):
        monkeypatch.setattr(suite, "measure",
                            lambda quick: dict(recorded[block]))
        results = suite.run(quick)
        assert results["baseline"] == recorded[block]
        assert suite.failures(results) == []

    def test_a_quick_row_3x_off_is_named_where_full_rows_hid_it(self, recorded):
        quick = recorded["quick"]
        slowed = dict(quick, pagestore_load_ms=quick["pagestore_load_ms"] * 3.2)
        failures = _gate("perf")({"mode": "quick", "metrics": slowed,
                                  "baseline": quick})
        assert len(failures) == 1 and failures[0].startswith("pagestore_load_ms: ")
        # the comparison this gate replaced: quick rows against full ones
        assert not any(failure.startswith("pagestore_load_ms: ")
                       for failure in _gate("perf")({
                           "metrics": slowed, "baseline": recorded["after"]}))

    def test_recording_one_mode_keeps_the_other(self, suite, recorded,
                                                monkeypatch, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(recorded))
        monkeypatch.setattr(suite, "PERF_BASELINE_PATH", str(path))
        monkeypatch.setattr(suite, "measure", lambda quick: {"row_ms": 1.0})
        suite.record_baseline(quick=True)
        written = json.loads(path.read_text())
        assert written["quick"] == {"row_ms": 1.0}
        assert written["after"] == recorded["after"]
        suite.record_baseline(quick=False)
        written = json.loads(path.read_text())
        assert written["after"] == {"row_ms": 1.0}
        assert written["before"] == recorded["after"]
        assert written["quick"] == {"row_ms": 1.0}


class TestEntryPoint:
    """``campaign.py`` runs each named campaign once, prints its verdict
    and each failure, and exits 1 under ``--check`` when any failed."""

    @pytest.fixture
    def fake(self, monkeypatch):
        runs = []

        def run(quick, seed=7):
            runs.append((quick, seed))
            return {"checks": {"held": True, "lost": int(quick)}}

        monkeypatch.setattr(campaign, "CAMPAIGNS",
                            {"fake": (run, _gate("chaos"))})
        return runs

    def test_a_failure_is_named_and_gated(self, fake, capsys):
        assert campaign.main(["fake", "--quick"]) == 0
        assert campaign.main(["fake", "--quick", "--check"]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == \
            ["fake: FAIL", "  lost = 1"]
        assert fake == [(True, 7), (True, 7)]

    def test_a_pass_exits_0_and_the_seed_reaches_the_run(self, fake,
                                                          capsys):
        assert campaign.main(["fake", "--check", "--json",
                              "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"fake": {"results": {"checks": {"held": True,
                                                          "lost": 0}},
                                   "failures": []}}
        assert fake == [(False, 3)]

    def test_an_unknown_name_is_refused(self, fake):
        with pytest.raises(SystemExit) as exc:
            campaign.main(["nope"])
        assert exc.value.code == 2
