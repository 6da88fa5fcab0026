"""The code version: a digest of this package's own source.

Results are pure functions of (program, inputs, options, *code*), so
everything durable is stamped with the code that produced it — sweep
journal headers (:mod:`repro.sim.journal`), the service's store keys
and WAL header (:mod:`repro.service.store` re-exports
:func:`code_version`).  It lives at the package root because every layer
that checkpoints needs it, the engine tier's journal included.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

#: Process-wide memo for :func:`code_version` (hashing ~100 source files
#: once per process, not once per request).
_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """A digest of the ``repro`` package's own source code.

    Computed by hashing every ``*.py`` file under the package root (path
    + contents, in sorted path order), so *any* code change — engine,
    scenarios, serialization — bumps the version and thereby invalidates
    every durable artifact stamped with it (sweep-journal headers, the
    service tier's store keys and WAL header).  ``EQUEUE_CODE_VERSION``
    overrides the digest (tests use it to simulate a version bump
    without editing files).
    """
    global _CODE_VERSION
    override = os.environ.get("EQUEUE_CODE_VERSION")
    if override:
        return hashlib.sha256(override.encode("utf-8")).hexdigest()[:16]
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION
