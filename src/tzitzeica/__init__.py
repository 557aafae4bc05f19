"""Doubly periodic Tzitzeica fields, unitary moving frames at a unit-modulus
spectral parameter, and minimal complexly-normal surfaces in the sphere
S^5 in C^3, with verification of every geometric identity along the way."""

__version__ = "0.1.0"
