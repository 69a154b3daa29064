import cavity_eit as ce


def test_public_names_resolve():
    # a stale export fails here rather than at a user's star import
    assert len(ce.__all__) == len(set(ce.__all__))
    missing = [name for name in ce.__all__ if not hasattr(ce, name)]
    assert missing == []
    namespace = {}
    exec("from cavity_eit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ce.__all__)
