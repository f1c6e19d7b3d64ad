"""The package's public names: a name listed in ``__all__`` that no longer
resolves fails here rather than in a user's star import."""
import edgeslice


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from edgeslice import *", namespace)
    assert set(edgeslice.__all__) <= namespace.keys()
    assert len(set(edgeslice.__all__)) == len(edgeslice.__all__)
