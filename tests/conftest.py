import os
import tempfile

import pytest

# the reference routes guard themselves with assert statements; rewriting
# them keeps those checks live under python -O
pytest.register_assert_rewrite("oracles")


@pytest.fixture(scope="session", autouse=True)
def _cache_sandbox():
    """Point the KL disk cache at a throwaway directory for the whole run."""
    with tempfile.TemporaryDirectory(prefix="primspec-cache-") as tmp:
        old = os.environ.get("PRIMSPEC_CACHE")
        os.environ["PRIMSPEC_CACHE"] = tmp
        yield tmp
        if old is None:
            os.environ.pop("PRIMSPEC_CACHE", None)
        else:
            os.environ["PRIMSPEC_CACHE"] = old
