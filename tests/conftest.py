"""Shared pytest configuration."""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def table_cache_home(tmp_path_factory):
    """Every test, and every process a test starts, keeps its table cache
    (kitti_io's) in one directory of the session's own, never in the
    user's ~/.cache. Returns that XDG_CACHE_HOME."""
    home = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home
