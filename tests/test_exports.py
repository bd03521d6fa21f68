"""The package's public names all exist."""

import poolnet


def test_every_exported_name_is_an_attribute():
    stale = [name for name in poolnet.__all__ if not hasattr(poolnet, name)]
    assert not stale, f"__all__ names that poolnet does not define: {stale}"

