"""Correctness-gated benchmark of the served allocation stack (see README.md)."""
