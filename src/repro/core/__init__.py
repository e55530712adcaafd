"""The top-level Trusted CVS API.

* :class:`~repro.core.facade.CvsServer` /
  :class:`~repro.core.facade.CvsClient` -- the direct, in-process
  verified CVS (single-user verification loop of Section 4.1).
* :func:`~repro.core.scenarios.build_simulation` -- multi-user
  simulations with Protocols I/II/III, baselines, and attacks.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "CvsClient": ".facade",
    "CvsServer": ".facade",
    "PROTOCOLS": ".scenarios",
    "SIM_KEY_BITS": ".scenarios",
    "ScenarioKeys": ".scenarios",
    "build_simulation": ".scenarios",
    "make_keys": ".scenarios",
    "populate_database": ".scenarios",
})
