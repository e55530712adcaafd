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

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "AsyncTrustedCvsServer": ".aserver",
    "serve_in_thread": ".aserver",
    "ChaosConfig": ".chaosproxy",
    "ChaosProxy": ".chaosproxy",
    "EndpointConnector": ".client",
    "PipelinedRemoteClient": ".client",
    "RemoteClient": ".client",
    "RemoteClientP1": ".client",
    "ReplicationDivergence": ".client",
    "RetryPolicy": ".client",
    "count_sync_check": ".client",
    "read_anchor": ".client",
    "sync_check": ".client",
    "QuorumChecker": ".replication",
    "Replicator": ".replication",
    "RootAttestation": ".replication",
    "RootDeposit": ".replication",
    "WitnessCollusion": ".replication",
    "WitnessProtocol": ".replication",
    "attest": ".replication",
    "attestation_valid": ".replication",
    "deposit_valid": ".replication",
    "make_deposit": ".replication",
    "make_replica_keys": ".replication",
    "DedupTable": ".core",
    "DeviationJudge": ".core",
    "ServerCore": ".core",
    "EvidenceError": ".evidence",
    "read_bundle": ".evidence",
    "reverify": ".evidence",
    "write_bundle": ".evidence",
    "FramingError": ".framing",
    "recv_message": ".framing",
    "send_message": ".framing",
    "IntegrityError": ".session",
    "ServerBusyError": ".session",
    "SessionCore": ".session",
    "TransientNetworkError": ".session",
    "ServerStore": ".wal",
    "WalError": ".wal",
    # The second name of the one function: benchmarks/e2e/launcher.py
    # and benchmarks/e2e/trace_run.py (frozen by BENCHMARK.json) import
    # both.
    "serve_async_in_thread": ".aserver:serve_in_thread",
})
