"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. a process
    yielded an unknown command, or time went backwards)."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent.  Also a
    ``ValueError``, so generic bad-argument handlers catch it too."""


class CoherenceError(ReproError):
    """A cache-coherence invariant was violated (these indicate bugs in a
    protocol implementation, and are asserted on heavily in tests)."""


class AddressError(ReproError):
    """An address fell outside every mapped region, or was misaligned for
    the requested operation."""


class DeviceError(ReproError):
    """A device was driven outside its supported envelope (e.g. a D2D
    request to an unmapped device-memory region)."""


class OffloadError(ReproError):
    """The offload framework was misused (unknown transport, payload too
    large for the doorbell slot, completion for an unknown tag)."""


class KernelError(ReproError):
    """A simulated-kernel invariant failed (double free of a page frame,
    swap-in of a non-resident page, ...)."""


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""


class CheckpointError(ReproError):
    """A simulator snapshot could not be taken or restored (live
    generator-based processes in the graph, unpicklable callbacks, a
    corrupt snapshot file).  The message says which — and how to get to
    a checkpointable state (usually: run the simulator to quiescence)."""


class FaultError(ReproError):
    """Base class for *injected or modeled hardware faults* (RAS events).

    Distinct from the classes above, which flag misuse of the library:
    a ``FaultError`` means the simulated hardware failed while being
    driven correctly.  Robust callers (the offload retry machinery,
    zswap/ksm graceful degradation) catch this base class; the concrete
    subclasses say what broke:

    ``LinkError``
        the CXL/PCIe link is down or was hot-reset mid-transaction;
    ``PoisonError``
        a consumed cache line carried CXL data poison;
    ``OffloadTimeoutError``
        a doorbell command's completion never arrived within the
        per-command timeout (device hang / dropped completion).
    """


class LinkError(FaultError):
    """A message was sent over a dead or resetting interconnect link."""


class PoisonError(FaultError):
    """A read consumed a line marked with CXL data poison."""


class OffloadTimeoutError(FaultError):
    """An offload command timed out waiting for its completion."""
