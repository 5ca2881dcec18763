"""Numerical tolerance defaults, collected in one record.

Geometric predicates (vertex enumeration, redundancy, involution checks) run
at a much tighter tolerance than iterative numeric duals; keeping both in a
single frozen record makes every threshold auditable.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    geometry: float = 1e-12        # exact-mode geometric predicates
    vertex_dedupe: float = 1e-9    # clustering of enumerated vertices
    redundancy: float = 1e-9       # LP feasibility margin for redundant functionals
    dual: float = 1e-8             # default accuracy target of numeric duals
    contact_unique: float = 1e-6   # margin for second-best contact candidates


DEFAULT = Tolerances()
