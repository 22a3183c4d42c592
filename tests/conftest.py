import functools

import pytest

from gasketpile import sandpile


@pytest.fixture(autouse=True, scope="session")
def conservation_checking():
    """Re-verify the exchange identity result = start - Laplacian @ odometer
    on every stabilization performed anywhere in the suite, vertex by vertex
    in plain Python, apart from the package's own Laplacian code.  The
    wrapper calls its `__wrapped__` attribute, so a test can swap in a
    corrupted kernel behind it."""
    raw = sandpile._stabilize_raw

    @functools.wraps(raw)
    def checked(graph, chips, frozen=()):
        before = list(chips)
        odometer = checked.__wrapped__(graph, chips, frozen)
        degrees, neighbors = graph.degrees, graph.neighbors
        for v in range(len(before)):
            received = sum(odometer[w] for w in neighbors[v])
            if chips[v] != before[v] - degrees[v] * odometer[v] + received:
                raise AssertionError(f"conservation identity violated at vertex {v}")
        return odometer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sandpile, "_stabilize_raw", checked)
        yield
