"""Server-side machinery: the agent lives in
:mod:`repro.simulation.agents`; this package contributes the attack
strategies a compromised server can mount.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "ALL_ATTACKS": ".attacks",
    "Attack": ".attacks",
    "CompositeAttack": ".attacks",
    "CounterReplayAttack": ".attacks",
    "DropCommitAttack": ".attacks",
    "ForkAttack": ".attacks",
    "HonestBehavior": ".attacks",
    "RandomizedAttackSchedule": ".attacks",
    "SignatureForgeAttack": ".attacks",
    "StaleRootReplayAttack": ".attacks",
    "TamperValueAttack": ".attacks",
})
