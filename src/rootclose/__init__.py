"""Exact arithmetic for p-power root towers of mixed characteristic:
normal-form tower rings, root-closure certificates, finite-depth
Frobenius-compatible sequences, and truncated Witt vectors."""

__version__ = "0.1.0"
