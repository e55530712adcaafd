"""Tests for the network layer and the partially synchronous clock."""

import pytest

from repro.simulation.channels import Network
from repro.simulation import LocalClock


class TestNetwork:
    def test_delivery_after_delay(self):
        net = Network(user_ids=["u1", "u2"], delay=1)
        net.send("u1", "server", "hello", round_no=5)
        assert list(net.deliveries(5)) == []
        batch = list(net.deliveries(6))
        assert len(batch) == 1
        assert batch[0].payload == "hello"
        assert batch[0].sender == "u1"

    def test_configurable_delay(self):
        net = Network(user_ids=["u1"], delay=3)
        net.send("u1", "server", "x", round_no=1)
        assert list(net.deliveries(2)) == []
        assert len(list(net.deliveries(4))) == 1

    def test_fifo_within_round(self):
        net = Network(user_ids=["u1"])
        net.send("u1", "server", "first", 1)
        net.send("u1", "server", "second", 1)
        payloads = [e.payload for e in net.deliveries(2)]
        assert payloads == ["first", "second"]

    def test_deliveries_pop(self):
        net = Network(user_ids=["u1"])
        net.send("u1", "server", "x", 1)
        list(net.deliveries(2))
        assert list(net.deliveries(2)) == []

    def test_broadcast_excludes_sender(self):
        net = Network(user_ids=["a", "b", "c"])
        net.broadcast("a", {"hi": 1}, 1)
        recipients = sorted(e.recipient for e in net.deliveries(2))
        assert recipients == ["b", "c"]

    def test_counters(self):
        net = Network(user_ids=["a", "b"])
        net.send("a", "server", "x", 1)
        net.broadcast("a", "y", 1)
        assert net.messages_sent == 1
        assert net.broadcasts_sent == 1

    def test_in_flight(self):
        net = Network(user_ids=["a"])
        assert net.in_flight() == 0
        net.send("a", "server", "x", 1)
        assert net.in_flight() == 1
        list(net.deliveries(2))
        assert net.in_flight() == 0


class TestLocalClock:
    def test_p1_is_exact(self):
        clock = LocalClock(p=1)
        for _ in range(50):
            clock.advance()
        assert clock.time == 50
        assert clock.global_time_bounds() == (50, 50)

    def test_ticks_at_least_every_p(self):
        clock = LocalClock(p=4, tick_probability=0.0, seed=1)
        for _ in range(40):
            clock.advance()
        assert clock.time == 10  # forced tick exactly every 4 rounds

    def test_bounds_contain_truth(self):
        for seed in range(5):
            clock = LocalClock(p=3, tick_probability=0.4, seed=seed)
            for global_round in range(1, 200):
                clock.advance()
                lo, hi = clock.global_time_bounds()
                assert lo <= global_round <= hi, (seed, global_round, lo, hi)

    def test_plausible_epochs(self):
        clock = LocalClock(p=1)
        for _ in range(100):
            clock.advance()
        lo, hi = clock.plausible_epochs(epoch_length=30)
        assert lo == hi == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalClock(p=0)
        with pytest.raises(ValueError):
            LocalClock(p=1, tick_probability=1.5)
