"""Face-dimension bounds for contraction-ray systems.

The package has six layers:

- ``core``: exact rational vectors, trilinear forms, linear algebra, and
  inequality feasibility.
- ``polytope``: combinatorial simple polytopes, face lattices, f-vectors, and
  the closed-form average-face bounds.
- ``raysystem``: abstract ray-divisor systems, their invariants, contact
  graphs, and the banded breadth-first search that reads their distances.
- ``structure``: component classification, minimal non-extremal sets, and the
  shape filter for maximal extremal sets.
- ``realized``: systems with explicit rational coordinates, nef certificates,
  orthogonal-extension maps, and dependence detection.
- ``bounds``: weighted-angle verification on polytope cross-sections and the
  closed-form dimension caps.

``generate`` builds seeded instances of every kind, and ``cli`` reads and
writes instance files; the layers work on parsed JSON through their
``*_from_json`` / ``*_to_json`` pairs.  Each public name is imported from
the one module that defines it; the package re-exports nothing.
"""

__version__ = "0.1.0"
