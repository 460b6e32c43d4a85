import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def rc():
    import run

    return run.fresh_import()
