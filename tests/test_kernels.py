"""Direct checks of the pure-Python kernels."""

import pytest

from xxrx import _scan_py


def test_profile_raises_on_tripled_letters():
    for bad in (b"000", b"111", b"010111"):
        with pytest.raises(ValueError):
            _scan_py.profile_of(bad)


def test_pure_kernels_direct():
    assert _scan_py.scan_xxrx(b"010110100101") == (0, 4)
    assert _scan_py.scan_xxrx(b"0101") is None
    assert _scan_py.profile_of(b"010110100101") == [4, 4, 4]
    assert _scan_py.profile_of(b"") == []
    assert _scan_py.is_member(b"00")
    assert not _scan_py.is_member(b"010110100101")
