"""Coefficient-space engine for weighted Bergman spaces on the unit disc and
the first-order operator theory of the SU(1,1) discrete series.

The package binds no names: import each one from the module that defines it,
for example ``from bergman11.weights import CoeffVector``."""
