"""Shared logging helper (the ``repro.*`` logger hierarchy).

The library itself never configures handlers -- it only emits through
:func:`get_logger`, so embedding applications keep full control.  The
CLIs (``repro.tool``) call :func:`configure_logging` with their
``-v``/``-vv`` count to attach one stderr handler to the ``repro`` root
logger:

====== =========== =====================================================
flags  level       what you see
====== =========== =====================================================
(none) WARNING     only problems
-v     INFO        lifecycle events (workload phases, store recovery)
-vv    DEBUG       per-step detail
====== =========== =====================================================
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional

__all__ = ["configure_logging", "get_logger", "verbosity_to_level"]

_ROOT = "repro"
#: The handler installed by configure_logging (kept so repeated calls
#: reconfigure instead of stacking duplicate handlers).
_handler: Optional[logging.Handler] = None


def get_logger(name: str = "") -> logging.Logger:
    """Logger ``repro.<name>`` (or the ``repro`` root for empty name)."""
    return logging.getLogger(f"{_ROOT}.{name}" if name else _ROOT)


def verbosity_to_level(verbosity: int) -> int:
    """Map a ``-v`` count to a :mod:`logging` level."""
    if verbosity <= 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(
    verbosity: int = 0, stream: Optional[IO[str]] = None
) -> logging.Logger:
    """Attach (or retune) one stream handler on the ``repro`` logger.

    Idempotent: calling again replaces the previous handler's stream and
    level instead of stacking a second handler.  Returns the root
    ``repro`` logger.
    """
    global _handler
    logger = get_logger()
    level = verbosity_to_level(verbosity)
    if _handler is not None:
        logger.removeHandler(_handler)
    _handler = logging.StreamHandler(stream or sys.stderr)
    _handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger.addHandler(_handler)
    logger.setLevel(level)
    return logger
