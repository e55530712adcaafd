"""Trusted CVS (ICDE 2006) -- a full reproduction.

A multi-user versioning system on an *untrusted* server, with protocols
that let mutually trusting users detect any integrity or availability
violation by the server:

* the Merkle B+-tree substrate with O(log n) verification objects
  (:mod:`repro.mtree`);
* the CVS storage substrate -- Myers diff, RCS revision chains,
  repositories (:mod:`repro.storage`);
* the round-based multi-agent model of the paper
  (:mod:`repro.simulation`);
* Protocols I, II, III and the baselines (:mod:`repro.protocols`);
* malicious-server attack strategies (:mod:`repro.server`);
* the developer-facing facade and scenario builders
  (:mod:`repro.core`).

Quickstart::

    from repro.core import CvsServer, CvsClient

    server = CvsServer()
    alice = CvsClient(server, author="alice")
    alice.commit("src/main.c", ["int main() { return 0; }"], "initial")
    print(alice.checkout("src/main.c"))

Every response from the server is verified against a single tracked
root digest; a compromised server raises
:class:`~repro.mtree.proofs.ProofError` /
:class:`~repro.protocols.DeviationDetected` instead of corrupting your
checkout.
"""

from repro._lazy import exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = exports(__name__, {
    "CvsClient": ".core",
    "CvsServer": ".core",
    "build_simulation": ".core",
    "DeviationDetected": ".protocols",
})
__all__.append("__version__")
