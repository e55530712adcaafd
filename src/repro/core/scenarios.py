"""Scenario builders: wire databases, protocols, agents, and attacks
into ready-to-run simulations.

Every experiment in :mod:`benchmarks` and most integration tests start
here: pick a protocol ("naive", "tokenpass", "protocol1", "protocol2",
"protocol3"), a workload, and optionally an attack, and get back a
:class:`~repro.simulation.runner.Simulation`.

Key generation is deterministic (seeded) and uses short RSA moduli by
default -- the simulations need unforgeability against the simulated
server, not real-world security margins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.pki import CertificateAuthority, build_verifier
from repro.crypto.signatures import Signer, Verifier
from repro.mtree.database import VerifiedDatabase, WriteQuery
from repro.protocols.base import ProtocolClient, ServerProtocol, ServerState
from repro.protocols.aggregation import AggregatedProtocol2Client
from repro.protocols.naive import NaiveClient, NaiveServer
from repro.protocols.protocol1 import Protocol1Client, Protocol1Server, bootstrap_server_state
from repro.protocols.protocol2 import (
    Protocol2Client,
    Protocol2Server,
    Protocol2StrongClient,
)
from repro.protocols.protocol3 import Protocol3Client, Protocol3Server
from repro.protocols.tokenpass import (
    TokenPassClient,
    TokenPassServer,
    bootstrap_server_state as bootstrap_tokenpass,
)
from repro.server.attacks import Attack
from repro.simulation.agents import ServerAgent, UserAgent
from repro.simulation.channels import Network  # noqa: F401  (re-exported for callers)
from repro.simulation.runner import Simulation
from repro.simulation.workload import Workload

PROTOCOLS = ("naive", "tokenpass", "protocol1", "protocol2", "protocol2strong",
             "protocol2agg", "protocol3")

# Simulation-grade RSA keys: unforgeable to the simulated adversary,
# cheap enough to generate dozens per scenario.
SIM_KEY_BITS = 512


@dataclass
class ScenarioKeys:
    """Deterministic key material for one scenario."""

    ca: CertificateAuthority
    signers: dict[str, Signer]
    verifier: Verifier


def make_keys(user_ids: list[str], seed: int = 0, bits: int = SIM_KEY_BITS) -> ScenarioKeys:
    """Generate a CA, per-user signers, and a certificate-backed verifier."""
    ca = CertificateAuthority(bits=bits, seed=seed * 7919 + 1)
    signers = {
        user_id: Signer.generate(user_id, bits=bits, seed=seed * 7919 + 2 + index)
        for index, user_id in enumerate(sorted(user_ids))
    }
    certificates = [ca.issue(user_id, signer.public_key) for user_id, signer in signers.items()]
    verifier = build_verifier(certificates, ca.public_key)
    return ScenarioKeys(ca=ca, signers=signers, verifier=verifier)


def populate_database(database: VerifiedDatabase, workload: Workload) -> None:
    """Pre-load every key the workload will ever touch, so reads hit
    populated data and stale answers are distinguishable."""
    keys: set[bytes] = set()
    for intents in workload.schedules.values():
        for intent in intents:
            query = intent.query
            for attribute in ("key", "low", "high"):
                if hasattr(query, attribute):
                    keys.add(getattr(query, attribute))
    for key in sorted(keys):
        database.execute(WriteQuery(key=key, value=b"// initial revision\n"))


def build_simulation(
    protocol: str,
    workload: Workload,
    attack: Attack | None = None,
    k: int = 8,
    epoch_length: int = 40,
    order: int = 8,
    shards: int = 1,
    seed: int = 0,
    service_rate: int | None = None,
    slot_length: int = 6,
    p: int = 1,
    keep_checkpoints: bool = False,
    network: Network | None = None,
    offline: dict[str, set[int]] | None = None,
    transaction_timeout: int = 30,
    populate_from: Workload | None = None,
) -> Simulation:
    """Assemble a full simulation for one protocol + workload + attack."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; pick one of {PROTOCOLS}")
    user_ids = workload.user_ids
    if not user_ids:
        raise ValueError("workload has no users")

    database = VerifiedDatabase(order=order, shards=shards)
    # populate_from lets run-comparison experiments (Theorem 3.1's
    # rA / rB / r construction) start every run from the same state
    # even when the workloads' key sets differ.
    populate_database(database, populate_from or workload)
    initial_root = database.root_digest()
    state = ServerState(database=database)
    # Clients verify against the full store spec.
    order = database.spec

    needs_keys = protocol in ("protocol1", "protocol3", "tokenpass")
    keys = make_keys(user_ids, seed=seed) if needs_keys else None

    server_protocol: ServerProtocol
    clients: dict[str, ProtocolClient] = {}

    if protocol == "naive":
        server_protocol = NaiveServer()
        clients = {u: NaiveClient(u) for u in user_ids}
    elif protocol == "tokenpass":
        server_protocol = TokenPassServer()
        elected = keys.signers[user_ids[0]]
        bootstrap_tokenpass(state, elected)
        # Let the token keep cycling for a few full rotations past the
        # workload horizon (time enough to detect late attacks), then
        # go quiet so the simulation can drain.
        quiet_after = workload.horizon() + 6 * slot_length * len(user_ids)
        clients = {
            u: TokenPassClient(u, user_ids, keys.signers[u], keys.verifier,
                               slot_length=slot_length, order=order,
                               quiet_after=quiet_after)
            for u in user_ids
        }
    elif protocol == "protocol1":
        server_protocol = Protocol1Server()
        elected = keys.signers[user_ids[0]]
        bootstrap_server_state(state, elected)
        clients = {
            u: Protocol1Client(u, user_ids, k, keys.signers[u], keys.verifier, order=order)
            for u in user_ids
        }
    elif protocol == "protocol2":
        server_protocol = Protocol2Server()
        clients = {
            u: Protocol2Client(u, user_ids, k, initial_root, order=order,
                               keep_checkpoints=keep_checkpoints)
            for u in user_ids
        }
    elif protocol == "protocol2strong":
        server_protocol = Protocol2Server()
        clients = {
            u: Protocol2StrongClient(u, user_ids, k, initial_root, order=order,
                                     keep_checkpoints=keep_checkpoints)
            for u in user_ids
        }
    elif protocol == "protocol2agg":
        server_protocol = Protocol2Server()
        clients = {
            u: AggregatedProtocol2Client(u, user_ids, k, initial_root, order=order,
                                         keep_checkpoints=keep_checkpoints)
            for u in user_ids
        }
    else:  # protocol3
        server_protocol = Protocol3Server(epoch_length=epoch_length)
        clients = {
            u: Protocol3Client(
                u,
                user_ids,
                epoch_length,
                initial_root,
                keys.signers[u],
                keys.verifier,
                order=order,
                p=p,
                clock_seed=seed + index,
            )
            for index, u in enumerate(user_ids)
        }

    server = ServerAgent(server_protocol, state, attack=attack, service_rate=service_rate)
    offline = offline or {}
    users = [
        UserAgent(
            user_id,
            clients[user_id],
            workload.schedules[user_id],
            transaction_timeout=transaction_timeout,
            offline_rounds=offline.get(user_id),
        )
        for user_id in user_ids
    ]
    network = network or Network(user_ids=user_ids)
    return Simulation(server=server, users=users, network=network)
