import pytest

from resom import som


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each thread pool ``resom.som`` starts in the test."""
    sizes = []

    class CountingPool(som.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(som, "ThreadPoolExecutor", CountingPool)
    return sizes
