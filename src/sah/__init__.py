"""Homology of basic semialgebraic sets through condition numbers.

The pipeline covers the solution set on the sphere by balls around grid
points that nearly satisfy the system, sizes the balls with a condition
number, and reads off Betti numbers and torsion from the nerve of the
ball union.
"""
