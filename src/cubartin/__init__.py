"""cubartin: cocompact cubulation of 2-dimensional Artin groups.

Decides the cubulation classification from a labeled defining graph, builds
and verifies the nonpositively curved cube complexes of the constructive
route, and ships the supporting cubical-geometry and Garside word-algebra
engines.  The package root holds no names: import them from their layer,
as in `from cubartin.defining_graph import verdict`.
"""

__version__ = "0.1.0"
