"""Desk-scale simulator for two three-factor authentication schemes.

The package models a password + smart card + biometric login protocol
in two variants (a baseline and a hardened revision), an adversary
engine that mounts an offline dictionary attack from leaked session
randomness, and cost instrumentation that reproduces the schemes'
published efficiency comparison.
"""

__version__ = "0.1.0"
