"""The observability on/off switch (the zero-cost-off contract).

Every probe in the hot paths guards itself with a *single* check of the
module-level :data:`enabled` flag -- one module attribute load and a
truth test per operation (or, for the traversal kernels, one check per
*call*, after which the uninstrumented engine runs untouched).  With the
flag off -- the default -- no counter is touched, no label is resolved,
no timestamp is taken; ``tests/obs/test_overhead.py`` pins the disabled
overhead of the ``get_many``/``query`` hot paths at <= 5%.

Hot modules must read the flag through the module object, never by
``from repro.obs.runtime import enabled`` (which would snapshot the
value at import time)::

    from repro.obs import runtime as _rt
    ...
    if _rt.enabled:
        _probes.ops_get.inc()

The flag is process-local: it covers the traversals of the process
that set it.
"""

from __future__ import annotations

__all__ = ["disable", "enable", "enabled", "is_enabled"]

#: The global switch.  Mutate only through :func:`enable`/:func:`disable`.
enabled = False


def enable() -> None:
    """Turn all probes on (metrics start accumulating immediately)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn all probes off (the default; hot paths revert to the
    uninstrumented engines)."""
    global enabled
    enabled = False


def is_enabled() -> bool:
    """Current state of the switch (for callers that want a function)."""
    return enabled
