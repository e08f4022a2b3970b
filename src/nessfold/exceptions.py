"""Failure modes of the stationary-state construction, one type per mode; the CLI
turns each type into its own row status."""


class NessfoldError(Exception):
    """Base class for solver failures.

    A VacuumVanishes or UnphysicalReadout raised by `pipeline.solve` carries the solve's
    `NessSolution` with no report as `solution`: the fold and the replay finished, so their
    diagnostics stay readable.  Every other failure carries None.
    """

    solution = None


class NonUniqueNess(NessfoldError):
    """The stationary state is not unique (zero or near-zero decay modes)."""


class SingularEigenbasis(NessfoldError):
    """The eigenvectors of the covariance drift X are numerically singular (defective generator)."""


class ClosureViolation(NessfoldError):
    """A folded row does not close onto a single fermionic mode: its site pair breaks the
    self-orthogonality closure, or its weight vanishes so that it defines no mode."""


class VacuumVanishes(NessfoldError):
    """The vacuum coefficient is zero, so vacuum normalization breaks down."""


class UnphysicalReadout(NessfoldError, ValueError):
    """A readout is unphysical: an occupancy lies outside [0, 1], as a tight bond cap can leave it."""
