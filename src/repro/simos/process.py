"""Process control blocks and signals.

Only the signals the checkpoint path needs are modelled: SIGSTOP (Zap stops
every process in a pod before extracting state, §4.1), SIGCONT, SIGKILL and
SIGTERM.
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, TYPE_CHECKING

from repro.sim.core import Event, Simulator
from repro.simos.files import FdTable
from repro.simos.memory import AddressSpace
from repro.simos.program import Program
from repro.simos.syscalls import Syscall

if TYPE_CHECKING:
    from repro.zap.pod import Pod

SIGSTOP = "SIGSTOP"
SIGCONT = "SIGCONT"
SIGKILL = "SIGKILL"
SIGTERM = "SIGTERM"


class ProcessState(enum.Enum):
    RUNNABLE = "RUNNABLE"
    BLOCKED = "BLOCKED"
    STOPPED = "STOPPED"
    ZOMBIE = "ZOMBIE"


class ProcessControlBlock:
    """Kernel bookkeeping for one process."""

    def __init__(self, sim: Simulator, pid: int, program: Program,
                 name: str = "", ppid: int = 0):
        self.sim = sim
        self.pid = pid
        self.ppid = ppid
        self.program = program
        self.name = name or program.name
        self.state = ProcessState.RUNNABLE
        self.memory = AddressSpace()
        self.fds = FdTable()
        self.pod: Optional["Pod"] = None

        self.stopped = False
        self.killed = False
        self.exit_code: Optional[int] = None
        #: Set when the program raised instead of exiting cleanly.
        self.crash_exception: Optional[BaseException] = None
        self.exit_event: Event = sim.event(f"exit(pid={pid})")
        #: The call in flight or to issue again, as the program issued it.
        self.current_syscall: Optional[Syscall] = None
        #: What the next ``step`` receives (a forked child: ("child", 0)).
        self.pending_result: Any = None
        self._continue_waiters: List[Event] = []

        # Accounting.
        self.syscall_count = 0
        self.cpu_seconds = 0.0

    @property
    def is_alive(self) -> bool:
        return self.exit_code is None and not self.killed

    def signal(self, sig: str) -> None:
        if not self.is_alive:
            return
        if sig == SIGSTOP:
            self.stopped = True
            if self.state == ProcessState.RUNNABLE:
                self.state = ProcessState.STOPPED
        elif sig == SIGCONT:
            self.stopped = False
            if self.state == ProcessState.STOPPED:
                self.state = ProcessState.RUNNABLE
            waiters, self._continue_waiters = self._continue_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()
        elif sig in (SIGKILL, SIGTERM):
            self.killed = True
            # A stopped process must still die.
            self.stopped = False
            waiters, self._continue_waiters = self._continue_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def wait_continue(self) -> Event:
        """Event that fires on SIGCONT (or SIGKILL)."""
        event = self.sim.event(f"cont(pid={self.pid})")
        if not self.stopped:
            event.succeed()
        else:
            self._continue_waiters.append(event)
        return event

    def mark_exited(self, code: int) -> None:
        self.exit_code = code
        self.state = ProcessState.ZOMBIE
        if not self.exit_event.triggered:
            self.exit_event.succeed(code)

    def __repr__(self) -> str:
        return (f"<PCB pid={self.pid} {self.name!r} {self.state.value}"
                f"{' stopped' if self.stopped else ''}>")
