"""Deterministic discrete-event simulation kernel.

This package is the bottom-most substrate: a seeded, single-threaded
event loop (:class:`~repro.sim.simulator.Simulator`), actor processes
(:class:`~repro.sim.process.Process`), FIFO resources modelling CPU
cores and NICs (:mod:`repro.sim.cpu`), and named RNG streams
(:class:`~repro.sim.rng.RngRegistry`).
"""

from .cpu import Cpu, Nic, Resource
from .event import Event, EventQueue
from .process import Process, Timer
from .rng import RngRegistry, RngStreamConflict
from .simulator import SimulationError, Simulator

__all__ = [
    "Cpu",
    "Nic",
    "Resource",
    "Event",
    "EventQueue",
    "Process",
    "Timer",
    "RngRegistry",
    "RngStreamConflict",
    "SimulationError",
    "Simulator",
]
