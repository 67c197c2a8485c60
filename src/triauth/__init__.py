"""Desk-scale simulator for two three-factor authentication schemes.

The package models a password + smart card + biometric login protocol
in two variants (a baseline and a hardened revision), an adversary
engine that mounts an offline dictionary attack from leaked session
randomness, and cost instrumentation that reproduces the schemes'
published efficiency comparison.
"""

from .adversary import (
    AdversaryKnowledge,
    AttackOutcome,
    attack_baseline,
    attack_improved,
)
from .core import (
    AuthFailure,
    CostLedger,
    Env,
    Field128,
    FreshnessFailure,
    GroupParams,
    HashEngine,
    LocalAuthFailure,
    ProtocolConfig,
    ProtocolError,
    RegistrationError,
    SessionRng,
    SimClock,
    UnknownUser,
    derive_seed,
    encode_text,
    mod_exp,
)
from .fuzzy import BiometricTemplate, HelperData

__version__ = "0.1.0"
