import xxrx


def test_public_names_are_unique_and_resolve():
    assert len(set(xxrx.__all__)) == len(xxrx.__all__)
    namespace = {}
    exec("from xxrx import *", namespace)
    assert set(xxrx.__all__) <= namespace.keys()
    # the table cap and the reconstruct bound are public through the package too
    assert {"BACKEND", "MAX_RECONSTRUCT_LEN", "MAX_TABLE_LIMIT", "__version__"} <= namespace.keys()
