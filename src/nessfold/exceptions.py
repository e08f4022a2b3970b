"""Failure modes of the stationary-state construction, one type per mode; the CLI
turns each type into its own row status."""


class NessfoldError(Exception):
    """Base class for solver failures."""


class NonUniqueNess(NessfoldError):
    """The stationary state is not unique (zero or near-zero decay modes)."""


class SingularEigenbasis(NessfoldError):
    """The mode eigenbasis is numerically singular (defective generator)."""


class ClosureViolation(NessfoldError):
    """A folded row does not close onto a single fermionic mode: its site pair breaks the
    self-orthogonality closure, or its weight vanishes so that it defines no mode."""


class VacuumVanishes(NessfoldError):
    """The vacuum coefficient is zero, so vacuum normalization breaks down."""


class UnphysicalReadout(NessfoldError, ValueError):
    """A readout is unphysical: an occupancy has complex leakage or lies outside [0, 1].

    Raised by `pipeline.solve`, it carries the solve's `NessSolution` with no report as
    `solution`: the fold and the replay finished, so their diagnostics stay readable.
    """

    solution = None
