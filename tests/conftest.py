import threading
from pathlib import Path

import pytest

from vtseval import corpus, rouge

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _cold_load_memo():
    """Each test starts with an empty load memo, so its first load of a file is a miss."""
    corpus.clear_load_memo()


@pytest.fixture(autouse=True)
def _cold_shared_table(monkeypatch):
    """Each test starts with no shared unit table, so its first command compiles every sentence."""
    monkeypatch.setattr(rouge, "_slot", threading.local())


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def video12() -> corpus.VideoRecord:
    return corpus.load_annotations(DATA / "video12.annotations.json")


@pytest.fixture(scope="session")
def gts12() -> list[corpus.GroundTruthSummary]:
    return corpus.load_ground_truths(DATA / "video12.gts.json")


@pytest.fixture(scope="session")
def features12() -> corpus.SubshotFeatures:
    return corpus.load_features(DATA / "video12.features.json")
