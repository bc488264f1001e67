"""Matchstick graphs on the triangular lattice.

Exact Eisenstein-coordinate arithmetic, geometric validation of unit-segment
plane graphs, face census and edge-bound checks, extremal constructions,
lattice-component decomposition, isoperimetric inequality engines, and
brute-force oracles that certify everything at desk scale.
"""
