"""The fault hook: one seam at every place the product can fail.

Production code calls :func:`fire` where real systems fail — store
reads and writes, job evaluation, batch dispatch, pool workers, the
scheduler's worker loop, the server's crash points and WAL appends.
While :data:`HOOK` is ``None`` (always, outside the test suite) a call
is one module-global ``None`` check that hands ``payload`` back.  The
test suite's fault plane (``tests/faults.py``) sets it to raise, stall,
kill or corrupt at a named site, deterministically.

This module imports nothing from ``repro``, so every layer can call it.
"""

from __future__ import annotations

#: ``HOOK(site, context, payload) -> payload`` while a fault plan is
#: installed; ``None`` otherwise.
HOOK = None


def fire(site, context=None, payload=None):
    """Traverse the hook at ``site`` (``context`` names the job, key or
    item): returns ``payload``, or whatever the installed hook makes of
    it — which may instead raise, stall or kill the process."""
    hook = HOOK
    if hook is None:
        return payload
    return hook(site, context, payload)
