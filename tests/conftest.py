import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from terwilliger import ConsistencyError, analyze_pair, pipeline


@pytest.fixture(scope="session")
def analysis_cache():
    """Memoized full analyses, shared across test modules."""
    cache = {}

    def get(n: int, s: int, **kwargs):
        key = (n, s, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = analyze_pair(n, s, **kwargs)
        return cache[key]

    return get


@pytest.fixture
def failing_groups(monkeypatch):
    """build_group raises a MemoryError at (8, 3) and a ConsistencyError at
    (9, 8), outside any step of the analysis; the notes their rows carry."""
    raised = {(8, 3): (MemoryError, "Unable to allocate 1.00 GiB for an array"),
              (9, 8): (ConsistencyError, "no Cayley table")}
    build = pipeline.build_group

    def failing(params):
        if (params.n, params.s) in raised:
            exc_type, message = raised[params.n, params.s]
            raise exc_type(message)
        return build(params)

    monkeypatch.setattr(pipeline, "build_group", failing)
    return {pair: f"{exc_type.__name__}: {message}"
            for pair, (exc_type, message) in raised.items()}
