"""User-mode instruction and cycle counts for the calling thread.

Reads the CPU's retired-instruction and cycle counters through the
Linux ``perf_event_open`` system call, using ``ctypes`` and the standard
library only.  Both events form one group, so a single ``read`` returns
them as a consistent pair.  Only user mode is counted, only for the
calling thread, and counting starts at open.

Instruction counts are what the benchmark gates on: on a host whose
speed changes under it (an SMT sibling busy one moment and idle the
next), wall and CPU time move by a factor of two while the instructions
a piece of Python retires repeat to a fraction of a percent.  Cycles
are read alongside so that instructions per cycle can say which phase
the host was in.
"""

from __future__ import annotations

import ctypes
import errno
import fcntl
import os
import platform
import struct
import sys

#: ``perf_event_open`` syscall numbers of the architectures we know.
_SYSCALL_NR = {"x86_64": 298, "aarch64": 241, "arm64": 241}

_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_CPU_CYCLES = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_PERF_FORMAT_GROUP = 1 << 3
# perf_event_attr flag bits
_DISABLED = 1 << 0
_PINNED = 1 << 2
_EXCLUDE_KERNEL = 1 << 5
_EXCLUDE_HV = 1 << 6
# ioctls (_IO('$', n)) and their group flag
_IOC_ENABLE = 0x2400
_IOC_DISABLE = 0x2401
_IOC_RESET = 0x2403
_IOC_FLAG_GROUP = 1


class CounterUnavailable(RuntimeError):
    """The hardware instruction counter cannot be opened on this host."""


class _PerfEventAttr(ctypes.Structure):
    # struct perf_event_attr up to PERF_ATTR_SIZE_VER5 (112 bytes); the
    # unions (sample_period, wakeup_events, bp_addr, bp_len) are given
    # by their first member.
    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
        ("config2", ctypes.c_uint64),
        ("branch_sample_type", ctypes.c_uint64),
        ("sample_regs_user", ctypes.c_uint64),
        ("sample_stack_user", ctypes.c_uint32),
        ("clockid", ctypes.c_int32),
        ("sample_regs_intr", ctypes.c_uint64),
        ("aux_watermark", ctypes.c_uint32),
        ("sample_max_stack", ctypes.c_uint16),
        ("reserved_2", ctypes.c_uint16),
    ]


def _perf_event_open(attr: _PerfEventAttr, group_fd: int) -> int:
    """Open one counter on the calling thread, any CPU.  Returns the
    file descriptor; raises :class:`CounterUnavailable` with the
    reason when the kernel, the architecture or the policy refuses."""
    if sys.platform != "linux":
        raise CounterUnavailable(f"perf_event_open needs Linux, not {sys.platform}")
    nr = _SYSCALL_NR.get(platform.machine())
    if nr is None:
        raise CounterUnavailable(
            f"no perf_event_open syscall number for {platform.machine()!r}"
        )
    libc = ctypes.CDLL(None, use_errno=True)
    syscall = libc.syscall
    syscall.restype = ctypes.c_long
    syscall.argtypes = [
        ctypes.c_long, ctypes.POINTER(_PerfEventAttr),
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_ulong,
    ]
    fd = syscall(nr, ctypes.byref(attr), 0, -1, group_fd, 0)
    if fd < 0:
        err = ctypes.get_errno()
        hint = ""
        if err in (errno.EACCES, errno.EPERM):
            hint = " (check /proc/sys/kernel/perf_event_paranoid <= 2)"
        elif err in (errno.ENOENT, errno.EOPNOTSUPP):
            hint = " (no hardware counters, e.g. under a VM without a vPMU)"
        raise CounterUnavailable(
            f"perf_event_open failed: {os.strerror(err)}{hint}"
        )
    return int(fd)


class InstructionCounter:
    """Running user-mode instruction and cycle totals of this thread.

    Use as a context manager, or call :meth:`close`.  :meth:`read`
    returns ``(instructions, cycles)`` since the counter was opened;
    differences of two reads measure the code between them.
    """

    def __init__(self) -> None:
        self._fds: list = []
        try:
            leader = self._open(_PERF_COUNT_HW_INSTRUCTIONS, -1)
            self._open(_PERF_COUNT_HW_CPU_CYCLES, leader)
            fcntl.ioctl(leader, _IOC_RESET, _IOC_FLAG_GROUP)
            fcntl.ioctl(leader, _IOC_ENABLE, _IOC_FLAG_GROUP)
        except BaseException:
            self.close()
            raise
        self._leader = leader
        self.read()  # fail here, not mid-run, if the group cannot count

    def _open(self, config: int, group_fd: int) -> int:
        attr = _PerfEventAttr()
        attr.type = _PERF_TYPE_HARDWARE
        attr.size = ctypes.sizeof(_PerfEventAttr)
        attr.config = config
        attr.read_format = _PERF_FORMAT_GROUP
        flags = _EXCLUDE_KERNEL | _EXCLUDE_HV
        if group_fd == -1:
            flags |= _DISABLED | _PINNED
        attr.flags = flags
        fd = _perf_event_open(attr, group_fd)
        self._fds.append(fd)
        return fd

    def read(self) -> tuple:
        """``(instructions, cycles)`` retired in user mode so far."""
        data = os.read(self._leader, 24)
        if len(data) != 24:
            # A pinned group that lost its counters reads as EOF.
            raise CounterUnavailable(
                "instruction counter was descheduled (another perf user "
                "holds the hardware counters)"
            )
        nr, instructions, cycles = struct.unpack("=QQQ", data)
        if nr != 2:
            raise CounterUnavailable(f"counter group returned {nr} values, expected 2")
        return instructions, cycles

    def close(self) -> None:
        fds, self._fds = self._fds, []
        if fds:
            try:
                fcntl.ioctl(fds[0], _IOC_DISABLE, _IOC_FLAG_GROUP)
            except OSError:
                pass
        for fd in reversed(fds):
            os.close(fd)

    def __enter__(self) -> "InstructionCounter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def reference_loop(n: int = 20_000) -> int:
    """A fixed pure-Python loop owned by the benchmark.  Its instruction
    count is constant, so its instructions per cycle read the host's
    current speed phase independently of the code under test."""
    total = 0
    for i in range(n):
        total += i * i & 0xFF
    return total


def host_ipc(counter: InstructionCounter, n: int = 20_000) -> float:
    """Instructions per cycle of one :func:`reference_loop` run."""
    i0, c0 = counter.read()
    reference_loop(n)
    i1, c1 = counter.read()
    return (i1 - i0) / max(c1 - c0, 1)
