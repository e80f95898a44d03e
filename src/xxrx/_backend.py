"""The kernels the package calls, from the pure-Python module ``_scan_py``.

``BACKEND`` and ``available_backends()`` name that kernel module for
reports and benchmark records.
"""

from __future__ import annotations

from ._scan_py import is_member, profile_of, scan_xxrx

__all__ = ["BACKEND", "available_backends", "is_member", "profile_of", "scan_xxrx"]

BACKEND = "python"


def available_backends() -> list[str]:
    return [BACKEND]
