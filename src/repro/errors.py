"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch one base class at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment or hardware configuration is invalid or inconsistent."""


class UnknownSpecError(ConfigurationError):
    """A registry lookup (GPU, model, system) failed."""

    def __init__(self, kind: str, name: str, known: tuple = ()):
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        msg = f"unknown {kind} {name!r}"
        if self.known:
            msg += f" (known: {', '.join(sorted(self.known))})"
        super().__init__(msg)


class InfeasibleConfigError(ConfigurationError):
    """A workload does not fit on the target system (e.g. out of memory)."""


class FleetError(ReproError):
    """A fleet (coordinator/worker job-queue) operation failed."""


class TaskContractError(FleetError):
    """A :class:`~repro.fleet.task.SimTask` violates the wire contract
    (missing fields, malformed payload, or a declared cache key that
    does not match the task's own config + modes)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class DeadlockError(SimulationError):
    """No event can make progress but tasks remain unfinished."""


class PlanError(ReproError):
    """An execution plan is malformed (cycles, bad stream refs, ...)."""
