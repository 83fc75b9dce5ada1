import pytest

from grpinv import corpus, groups, invariants, iso, lattice


@pytest.fixture
def fresh_caches():
    """Empty the table store and every content-keyed cache, so the test
    computes everything again instead of reusing an earlier test's results."""
    groups._checked.cache_clear()
    groups._product.cache_clear()
    lattice.all_subgroups.cache_clear()
    lattice._subgroup_table.cache_clear()
    iso.embeds.cache_clear()
    invariants._join.cache_clear()
    corpus.corpus.cache_clear()
