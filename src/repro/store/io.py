"""Crash-injectable I/O for the durable store.

Every byte the store writes to disk flows through this module, which
buys the crash-recovery harness its headline property: a *faithful*,
deterministic model of ``kill -9`` at an arbitrary byte offset.

The model: when a process dies from SIGKILL, every byte already handed
to the kernel via ``os.write`` survives (it is in the page cache; the
machine did not lose power), every byte not yet written is gone, and
the write the process died inside may be *torn* -- a prefix landed.
Metadata operations (``rename``, ``unlink``, ``fsync``, file creation)
are atomic units that either happened or did not.

:func:`arm` plants a crash ``budget`` charged inside a named *scope*
(``"wal"``, ``"flush"``, ``"compact"`` -- the store tags its phases via
:func:`scope`): each data write charges its byte length, each metadata
op charges one unit.  The op that exhausts the budget performs only
the affordable prefix (data writes really write that prefix -- a torn
frame on disk) and then *crashes*:

- ``action="raise"`` raises :class:`SimulatedCrash` (a
  ``BaseException``: nothing accidentally swallows it), after which
  **every** store I/O call raises until :func:`disarm` -- the process
  is "dead", so abandoned engine objects cannot keep mutating disk
  through ``finally`` blocks the real SIGKILL would never run;
- ``action="kill"`` delivers a real ``SIGKILL`` to the current
  process, for subprocess drills (:mod:`repro.store.drill`).

:func:`measure` runs a workload without crashing and reports the units
each scope charged, so a drill can seed a crash offset *uniformly over
the real I/O volume* of the phase it targets.  Arming can also come
from the environment (``REPRO_STORE_CRASH="flush:1234:kill"``) so a
driver subprocess needs no plumbing.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs import recorder as _recorder

__all__ = [
    "SimulatedCrash",
    "StoreCorruption",
    "StoreError",
    "arm",
    "arm_from_env",
    "crashed",
    "disarm",
    "fsync",
    "fsync_dir",
    "measure",
    "open_fresh",
    "replace",
    "scope",
    "unlink",
    "write",
]

#: Environment variable a drill subprocess is armed through:
#: ``scope:budget`` or ``scope:budget:kill``.
CRASH_ENV = "REPRO_STORE_CRASH"


class StoreError(RuntimeError):
    """A durable-store protocol violation (bad directory, geometry
    mismatch, use-after-close)."""


class StoreCorruption(StoreError):
    """Durable bytes fail verification in a way no crash explains (a
    damaged record with acknowledged records after it); the store
    refuses to open and leaves the files as they are."""


class SimulatedCrash(BaseException):
    """The armed crash point fired.

    A ``BaseException`` on purpose: the store's (and its callers')
    ``except Exception`` handlers must not swallow a simulated death --
    the test harness alone catches it, abandons the engine object, and
    reopens the directory the way a fresh process would.
    """


class _State:
    __slots__ = (
        "armed_scope",
        "budget",
        "action",
        "crashed",
        "current",
        "totals",
    )

    def __init__(self) -> None:
        self.armed_scope: Optional[str] = None
        self.budget = 0
        self.action = "raise"
        self.crashed = False
        #: The store phase currently executing (via :func:`scope`).
        self.current: Optional[str] = None
        #: Per-scope charged units, accumulated while a
        #: :func:`measure` context is active (else ``None``).
        self.totals: Optional[Dict[str, int]] = None


_state = _State()


def arm(scope_name: str, budget: int, action: str = "raise") -> None:
    """Arm a crash after ``budget`` charged units inside ``scope_name``.

    ``budget=0`` crashes on the scope's very first I/O op.  A scope of
    ``"any"`` matches every store phase.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if action not in ("raise", "kill"):
        raise ValueError(f"action must be 'raise' or 'kill', got {action!r}")
    _state.armed_scope = scope_name
    _state.budget = budget
    _state.action = action
    _state.crashed = False


def disarm() -> None:
    """Remove any armed crash point and clear the crashed latch."""
    _state.armed_scope = None
    _state.crashed = False


def crashed() -> bool:
    """Whether the armed crash point has fired.  Drills check this
    rather than relying on :class:`SimulatedCrash` escaping: a crash
    landing in an already-redundant final fsync (e.g. ``close()``
    after per-op syncs) is absorbed by process-death semantics."""
    return _state.crashed


def arm_from_env() -> bool:
    """Arm from ``REPRO_STORE_CRASH`` (``scope:budget[:action]``);
    returns whether anything was armed.  No-op when already armed, so a
    test's programmatic :func:`arm` wins over a leaked variable."""
    spec = os.environ.get(CRASH_ENV)
    if not spec or _state.armed_scope is not None:
        return False
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"{CRASH_ENV} must be 'scope:budget[:action]', got {spec!r}"
        )
    arm(parts[0], int(parts[1]), parts[2] if len(parts) == 3 else "raise")
    return True


@contextmanager
def scope(name: str) -> Iterator[None]:
    """Tag the store phase the enclosed I/O belongs to."""
    previous = _state.current
    _state.current = name
    try:
        yield
    finally:
        _state.current = previous


@contextmanager
def measure() -> Iterator[Dict[str, int]]:
    """Accumulate (instead of crash-count) the units each scope
    charges; yields the live per-scope dict."""
    previous = _state.totals
    totals: Dict[str, int] = {}
    _state.totals = totals
    try:
        yield totals
    finally:
        _state.totals = previous


def _crash() -> None:
    _state.crashed = True
    _recorder.record(
        "fault_injected",
        fault="simulated_crash",
        scope=_state.current or "?",
        action=_state.action,
    )
    if _state.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise SimulatedCrash(
        f"injected crash in scope {_state.current!r}"
    )


def _charge(units: int) -> int:
    """Charge ``units`` against the armed budget; returns how many
    units the caller may still perform (data writes use this to land a
    torn prefix) and crashes when the budget is exhausted.  A charge of
    the full amount returns ``units``."""
    current = _state.current
    if _state.totals is not None and current is not None:
        _state.totals[current] = _state.totals.get(current, 0) + units
    if _state.armed_scope is None:
        return units
    if _state.crashed:
        # The process is dead: nothing performs I/O any more.
        raise SimulatedCrash("process already crashed")
    if current is None or (
        _state.armed_scope != "any" and _state.armed_scope != current
    ):
        return units
    if units <= _state.budget:
        _state.budget -= units
        return units
    affordable = _state.budget
    _state.budget = 0
    return affordable


def write(fd: int, data: bytes) -> int:
    """``os.write`` with byte-granular crash accounting: a crash point
    landing inside ``data`` writes exactly the affordable prefix (a
    torn write) and then dies."""
    n = len(data)
    affordable = _charge(n)
    view = memoryview(data)[:affordable]
    while view:
        written = os.write(fd, view)
        view = view[written:]
    if affordable < n:
        _crash()
    return n


def fsync(fd: int) -> None:
    """``os.fsync`` as one metadata unit."""
    if _charge(1) < 1:
        _crash()
    os.fsync(fd)


def open_fresh(path: str) -> int:
    """Create-or-truncate ``path`` for writing (one metadata unit)."""
    if _charge(1) < 1:
        _crash()
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)


def replace(src: str, dst: str) -> None:
    """Atomic ``os.replace`` as one metadata unit (it either happened
    or it did not -- exactly rename's crash contract on POSIX)."""
    if _charge(1) < 1:
        _crash()
    os.replace(src, dst)


def unlink(path: str) -> None:
    """``os.unlink`` as one metadata unit (missing files ignored)."""
    if _charge(1) < 1:
        _crash()
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creations inside it are durable
    (one metadata unit; silently skipped where unsupported)."""
    if _charge(1) < 1:
        _crash()
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)
