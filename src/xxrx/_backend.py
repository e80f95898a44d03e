"""The kernels of ``_scan_py`` under one name, for the benchmark alone.

No package module imports this one.  ``perfbench`` traces the callables
it finds here and reads ``available_backends()`` for its run records.
Delete it, with ``cache.py``, once the benchmark no longer imports it
(ROADMAP.md, open items).
"""

from __future__ import annotations

from ._scan_py import BACKEND, is_member, profile_of, scan_xxrx

__all__ = ["BACKEND", "available_backends", "is_member", "profile_of", "scan_xxrx"]


def available_backends() -> list[str]:
    return [BACKEND]
