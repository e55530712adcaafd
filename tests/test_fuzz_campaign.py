"""Randomized soundness campaign: seeded adversaries vs Protocol II.

The empirical form of Theorem 4.2 over a broad adversary space: for any
randomly chosen attack strategy, victim, and trigger round,

* no honest user ever raises a false alarm, and
* whenever the attack produces a deviation AND the workload gives any
  user more than k post-deviation operations, some user detects it.
"""

import pytest

from helpers import run_scenario
from repro.server.attacks import CompositeAttack, ForkAttack, RandomizedAttackSchedule, TamperValueAttack
from repro.simulation.workload import steady_workload

K = 4


def campaign_run(seed: int):
    workload = steady_workload(3, 16, spacing=4, keyspace=6,
                               write_ratio=0.6, seed=seed)
    attack = RandomizedAttackSchedule(workload.user_ids, workload.horizon(), seed)
    report = run_scenario("protocol2", workload, attack=attack, k=K, seed=seed)
    return attack, report


class TestRandomizedCampaign:
    @pytest.mark.parametrize("seed", range(20))
    def test_soundness_and_conditional_detection(self, seed):
        attack, report = campaign_run(seed)
        assert not report.false_alarm, (seed, attack.chosen, report.alarms)
        if report.first_deviation_round is None:
            return  # the attack never actually deviated (e.g. no victim read)
        ops_after = report.max_ops_after_deviation()
        # Theorem 4.2's exact conditional promise:
        assert report.detected or ops_after <= K, (seed, attack.chosen, ops_after)

    def test_campaign_actually_exercises_attacks(self):
        deviated = sum(1 for seed in range(20)
                       if campaign_run(seed)[1].first_deviation_round is not None)
        assert deviated >= 10  # most seeds must produce real deviations

    def test_detection_rate_is_high(self):
        detected = fired = 0
        for seed in range(20):
            _attack, report = campaign_run(seed)
            if report.first_deviation_round is not None:
                fired += 1
                if report.detected:
                    detected += 1
        assert detected >= fired * 0.8  # near-total detection across the space


class TestCompositeAttack:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            CompositeAttack([])

    def test_combines_fork_and_tamper(self):
        workload = steady_workload(3, 16, spacing=4, keyspace=6,
                                   write_ratio=0.5, seed=99)
        attack = CompositeAttack([
            ForkAttack(victims=["user1"], fork_round=workload.horizon() // 2),
            TamperValueAttack(victim="user0", tamper_round=workload.horizon() // 3),
        ])
        report = run_scenario("protocol2", workload, attack=attack, k=K, seed=99)
        assert report.first_deviation_round is not None
        assert report.detected
        assert not report.false_alarm

    def test_deviation_round_is_earliest_component(self):
        workload = steady_workload(3, 16, spacing=4, keyspace=6,
                                   write_ratio=0.5, seed=7)

        def onset(attack):
            return run_scenario("protocol2", workload, attack=attack,
                                k=500, seed=7).first_deviation_round

        tamper = lambda: TamperValueAttack(victim="user0", tamper_round=10)
        fork = lambda: ForkAttack(victims=["user1"], fork_round=60)
        onsets = [onset(tamper()), onset(fork())]
        assert onsets[0] is not None
        assert onset(CompositeAttack([fork(), tamper()])) == min(
            r for r in onsets if r is not None)
