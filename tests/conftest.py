import pytest
from hypothesis import settings

# Fuzz tests draw the same examples on every run (a fixed per-test
# seed, no example database), so a tier-1 pass count is reproducible;
# each test's own max_examples still applies.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (local mode)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield
    ray.shutdown()
