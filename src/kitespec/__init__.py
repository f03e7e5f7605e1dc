"""Exact-arithmetic spectral toolkit for kite graphs.

Characteristic polynomials over arbitrary-precision integers, cospectrality
decisions, spectral-radius and clique bounds, isomorph-free enumeration, and
exhaustive determined-by-spectrum verification at desk scale.
"""

__version__ = "0.1.0"
