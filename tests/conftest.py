"""Pytest configuration: make the shared helpers and the benchmark
campaigns importable and expose common fixtures.

PKI-dependent tests share one set of deterministic keypairs per session
instead of regenerating 512/1024-bit RSA keys per module: the fixtures
below are session-scoped, and underneath them the seeded keypair cache
in :mod:`repro.crypto.rsa` makes any *further* ``generate_keypair``/
``Signer.generate``/``make_keys`` call with an already-seen
``(bits, seed)`` a dictionary hit.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
# the campaigns' tables and gates (benchmarks/campaign.py)
sys.path.insert(1, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

import pytest

from helpers import FakeContext

SHARED_USERS = ["alice", "bob"]
SHARED_KEY_BITS = 512


@pytest.fixture(autouse=True)
def obs_isolation():
    """Every test starts and ends with observability off and zeroed, so
    counters from one test never bleed into another's reconciliation."""
    from repro import obs

    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def fake_ctx():
    return FakeContext()


@pytest.fixture(scope="session")
def shared_signers():
    """Deterministic per-user signers shared across the whole session."""
    from repro.crypto.signatures import Signer

    return {
        user: Signer.generate(user, bits=SHARED_KEY_BITS, seed=20 + index)
        for index, user in enumerate(SHARED_USERS)
    }


@pytest.fixture(scope="session")
def shared_keys():
    """A full CA + signers + verifier bundle shared across the session.

    Matches ``make_keys(["alice", "bob"], seed=77)`` so tests that need
    certificate-backed verification reuse one generation.
    """
    from repro.core.scenarios import make_keys

    return make_keys(list(SHARED_USERS), seed=77)
