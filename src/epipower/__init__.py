"""Distributed uplink power control under channel uncertainty.

The package models a shared-receiver network where each transmitter
must clear a SINR target at minimum power.  With full channel knowledge
that is a finite game solved by best-response iteration; without it,
each node reasons over a Gamma surrogate of the interference it cannot
observe, simulating its rivals' choices before committing to its own.
A Monte Carlo harness scores both against equal-allocation and
mean-interference baselines.

The API lives in the submodules (``epipower.game``, ``epipower.engine``,
``epipower.harness`` ...); the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
