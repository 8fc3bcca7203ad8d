import json
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
REPO_DIR = TESTS_DIR.parent

sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return TESTS_DIR / "data"


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    return REPO_DIR / "data" / "toy"


@pytest.fixture(scope="session")
def bleu_fixture(data_dir) -> dict:
    return json.loads((data_dir / "bleu_fixture.json").read_text(encoding="utf-8"))


@pytest.fixture()
def toy_corpus(toy_dir):
    from littrans.corpus import load_records

    return load_records(toy_dir / "corpus.jsonl")
