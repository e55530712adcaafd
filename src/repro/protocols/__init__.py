"""The paper's protocols (Section 4) and the baselines they improve on.

* :mod:`repro.protocols.protocol1` -- signed roots + counter sync
  (needs a PKI, one extra blocking message per operation).
* :mod:`repro.protocols.protocol2` -- tagged-state XOR registers
  (no signatures, no blocking message).
* :mod:`repro.protocols.protocol3` -- epoch deposits audited through
  the server (no broadcast channel; restricted workload).
* :mod:`repro.protocols.tokenpass` -- the Section 2.2.3 strawman that
  fails bounded workload preservation.
* :mod:`repro.protocols.naive` -- today's trusting CVS client.
* :mod:`repro.protocols.graph` -- the Lemma 4.1 seen-state graph.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "AggregatedProtocol2Client": ".aggregation",
    "ClientContext": ".base",
    "DeviationDetected": ".base",
    "Followup": ".base",
    "ProtocolClient": ".base",
    "Request": ".base",
    "Response": ".base",
    "ServerProtocol": ".base",
    "ServerState": ".base",
    "Checkpoint": ".localization",
    "CheckpointRing": ".localization",
    "FaultLocalization": ".localization",
    "localize_fault": ".localization",
    "prefix_consistent": ".localization",
    "StateGraph": ".graph",
    "Transition": ".graph",
    "lemma41_path_theorem": ".graph",
    "NaiveClient": ".naive",
    "NaiveServer": ".naive",
    "Protocol1Client": ".protocol1",
    "Protocol1Server": ".protocol1",
    "Protocol2Client": ".protocol2",
    "Protocol2Server": ".protocol2",
    "initial_state_tag": ".protocol2",
    "EpochDeposit": ".protocol3",
    "Protocol3Client": ".protocol3",
    "Protocol3Server": ".protocol3",
    "SyncingClient": ".syncbase",
    "TokenPassClient": ".tokenpass",
    "TokenPassServer": ".tokenpass",
    "VerifiedOutcome": ".verify",
    "derive_outcome": ".verify",
})
