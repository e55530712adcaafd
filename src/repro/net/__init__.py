"""Socket deployment: the Trusted CVS server and verifying client over
TCP, speaking the binary wire format of :mod:`repro.wire`, with
crash-safe server recovery (:mod:`repro.net.wal`), self-healing clients,
a fault-injecting proxy (:mod:`repro.net.chaosproxy`) for chaos testing,
forensic evidence bundles (:mod:`repro.net.evidence`) for provable
detections, and N-server replicated root deposits
(:mod:`repro.net.replication`) that out-vote a forking primary through
witness quorums.  Byzantine mode is ``serve_in_thread(attack=...)`` with
a gallery :class:`~repro.server.attacks.Attack`: the server core runs it
and judges each response against an honest replay; the ground truth is
``core.judge`` (:class:`~repro.net.core.DeviationJudge`: ``first_round``,
``first_op``, ``deviations``)."""

from repro.net.aserver import (
    AsyncServerHandle,
    AsyncTrustedCvsServer,
    serve_in_thread,
)
from repro.net.chaosproxy import ChaosConfig, ChaosProxy
from repro.net.client import (
    EndpointConnector,
    IntegrityError,
    PipelinedRemoteClient,
    RemoteClient,
    RemoteClientP1,
    ReplicationDivergence,
    RetryPolicy,
    ServerBusyError,
    TransientNetworkError,
    count_sync_check,
    read_anchor,
    sync_check,
)
from repro.net.replication import (
    QuorumChecker,
    Replicator,
    RootAttestation,
    RootDeposit,
    WitnessCollusion,
    WitnessProtocol,
    attest,
    attestation_valid,
    deposit_valid,
    make_deposit,
    make_replica_keys,
)
from repro.net.core import DedupTable, DeviationJudge, ServerCore
from repro.net.evidence import EvidenceError, read_bundle, reverify, write_bundle
from repro.net.framing import FramingError, recv_message, send_message
from repro.net.wal import ServerStore, WalError

# The second name of the one function: benchmarks/e2e/launcher.py and
# benchmarks/e2e/trace_run.py (frozen by BENCHMARK.json) import both.
serve_async_in_thread = serve_in_thread

__all__ = [
    "AsyncServerHandle",
    "AsyncTrustedCvsServer",
    "DedupTable",
    "DeviationJudge",
    "ServerCore",
    "PipelinedRemoteClient",
    "ChaosConfig",
    "ChaosProxy",
    "QuorumChecker",
    "Replicator",
    "RootAttestation",
    "RootDeposit",
    "WitnessCollusion",
    "WitnessProtocol",
    "attest",
    "attestation_valid",
    "deposit_valid",
    "make_deposit",
    "make_replica_keys",
    "EndpointConnector",
    "ReplicationDivergence",
    "EvidenceError",
    "read_bundle",
    "reverify",
    "write_bundle",
    "IntegrityError",
    "RemoteClient",
    "RemoteClientP1",
    "RetryPolicy",
    "ServerBusyError",
    "TransientNetworkError",
    "count_sync_check",
    "read_anchor",
    "sync_check",
    "FramingError",
    "recv_message",
    "send_message",
    "serve_in_thread",
    "ServerStore",
    "WalError",
]
