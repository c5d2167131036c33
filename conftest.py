"""pytest configuration shared by tests/ and perfbench/."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def table_cache_home(tmp_path_factory):
    """Every test, and every process a test starts, keeps its cache
    (kitti_io's table and pair entries) in one directory of the session's
    own, never in the user's ~/.cache. Returns that XDG_CACHE_HOME."""
    home = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home
