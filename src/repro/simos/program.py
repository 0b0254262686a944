"""Application programs: explicit state machines over the syscall API.

Why not generators? A checkpoint must capture a *point-in-time* copy of the
process that can be restarted any number of times while the original keeps
running — a live Python generator cannot be copied or rewound, but a program
whose entire mutable state lives in instance attributes can (that is the
honest analogue of saving virtual memory + registers). Programs therefore
implement::

    def step(self, result):          # result of the previous syscall
        ...mutate self...            # "memory"
        return sys("recv", fd, 100)  # the next syscall, or Exit(code)

with a ``self.pc``-style attribute tracking where to resume — exactly like
a CPU program counter inside saved registers.

:class:`PhasedProgram` removes the boilerplate: subclasses define
``phase_<name>`` methods and jump between them with :meth:`goto`.
"""

from __future__ import annotations

from typing import Any, Union

from repro.errors import ReproError
from repro.simos.syscalls import Exit, Syscall


class Program:
    """Base class for checkpointable application programs."""

    #: Human-readable name used in traces and process listings.
    name = "program"

    def step(self, result: Any) -> Union[Syscall, Exit]:
        """Advance one syscall. ``result`` is the previous call's result.

        The first invocation receives ``None``. A :class:`SyscallError`
        raised by the previous call is delivered here as the ``result``
        (programs check ``isinstance(result, SyscallError)``), mirroring
        errno-style error handling.
        """
        raise NotImplementedError


class PhasedProgram(Program):
    """A program whose control flow is named phases.

    Subclasses define ``phase_<name>(self, result)`` methods; each returns
    the next :class:`Syscall` or :class:`Exit`. Use :meth:`goto` to change
    which phase handles the *next* result. The current phase name lives in
    ``self.pc`` — plain data, so checkpoints capture control flow for free.
    """

    initial_phase = "main"

    def __init__(self):
        self.pc = self.initial_phase

    def goto(self, phase: str) -> None:
        if not hasattr(self, f"phase_{phase}"):
            raise ReproError(f"{type(self).__name__}: no phase {phase!r}")
        self.pc = phase

    def step(self, result: Any) -> Union[Syscall, Exit]:
        handler = getattr(self, f"phase_{self.pc}", None)
        if handler is None:
            raise ReproError(
                f"{type(self).__name__}: unknown phase {self.pc!r}")
        outcome = handler(result)
        if not isinstance(outcome, (Syscall, Exit)):
            raise ReproError(
                f"{type(self).__name__}.phase_{self.pc} returned "
                f"{outcome!r}, expected Syscall or Exit")
        return outcome
