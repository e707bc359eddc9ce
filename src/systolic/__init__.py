"""Exact computational backend for systolic-volume bounds.

Integer simplicial homology with torsion, Smith normal forms, group
abelianizations, regular graphs of prescribed girth, sleeve assemblies,
Waring decompositions, recurrence detection, and evaluators for the
closed-form inequalities tying these quantities together.  Each name is
imported from the module that defines it: ``from systolic.graphs import girth``.
"""

__version__ = "0.1.0"
