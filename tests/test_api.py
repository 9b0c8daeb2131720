import purefx


def test_every_public_name_resolves():
    assert len(set(purefx.__all__)) == len(purefx.__all__)
    for name in purefx.__all__:
        assert hasattr(purefx, name), name
    namespace = {}
    exec("from purefx import *", namespace)
    assert set(purefx.__all__) <= namespace.keys()
