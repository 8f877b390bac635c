"""Fixtures for the experiment benchmarks."""

import sys
from pathlib import Path

import pytest

# allow `import harness` from sibling benchmark modules
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def profile():
    from harness import DEFAULT_PROFILE

    return DEFAULT_PROFILE


def _rows_for(device: str):
    """Build (or load from the on-disk cache) the §4.3 labelled dataset
    at paper scale.  The convergence probes take a few minutes; set
    REPRO_REFRESH=1 to force a rebuild.  A cache that no longer loads
    (written by an older checkout, or truncated) is rebuilt and
    rewritten."""
    import os
    import pickle

    from repro.credo.training import build_training_set_paper_scale

    cache_dir = Path(__file__).parent / ".cache"
    cache_dir.mkdir(exist_ok=True)
    cache = cache_dir / f"rows_{device}.pkl"
    if cache.exists() and not os.environ.get("REPRO_REFRESH"):
        try:
            with open(cache, "rb") as fh:
                return pickle.load(fh)
        except Exception:  # stale or corrupt pickle: rebuild below
            pass
    rows = build_training_set_paper_scale(device)
    with open(cache, "wb") as fh:
        pickle.dump(rows, fh)
    return rows


@pytest.fixture(scope="session")
def paper_scale_rows():
    """The §4.3 labelled dataset (paper-scale analytic times), built once
    and shared by the classifier experiments."""
    return _rows_for("gtx1070")


@pytest.fixture(scope="session")
def volta_rows():
    """The same dataset labelled on the Volta V100 (§4.4)."""
    return _rows_for("v100")
