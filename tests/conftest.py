import pytest

from igei import dataio, verify


@pytest.fixture(scope="session")
def default_spec():
    specs, tree = dataio.load_index_spec()
    return specs, tree


@pytest.fixture(scope="session")
def indicator_table():
    return dataio.load_score_table(dataio.bundled_path("indicator_scores_2023.csv"))


@pytest.fixture(scope="session")
def index_reference():
    return verify.load_reference_table()


@pytest.fixture(scope="session")
def region_names(index_reference):
    return [
        t for t in index_reference if t not in verify.AGGREGATE_TERRITORIES
    ]
