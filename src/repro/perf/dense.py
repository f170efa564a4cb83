"""Retired: the struct-of-arrays dense ring-stepping tier.

Rings step with the reference walk (``engine="ref"``) or the exact-skip
tier (``engine="skip"``, the default); see docs/PERFORMANCE.md.  This
module is kept empty only because the paper-workload benchmark still
imports it.
"""
