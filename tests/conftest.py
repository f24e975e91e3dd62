import pytest

from hermlab import catalog
from hermlab.geometry import GeometryCache


@pytest.fixture(scope="session")
def geo():
    return GeometryCache()


@pytest.fixture(scope="session")
def metric():
    return lambda name: catalog.get(name).metric
