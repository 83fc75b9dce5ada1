import sys

import pytest


@pytest.fixture
def fresh_caches():
    """Empty the table store and every content-keyed cache, so the test
    computes everything again instead of reusing an earlier test's results:
    every attribute of a loaded `grpinv` module that has `cache_clear`."""
    for name, module in list(sys.modules.items()):
        if name == "grpinv" or name.startswith("grpinv."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
