import pytest
from hypothesis import settings

from compparity import _automaton

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


@pytest.fixture
def tallies(monkeypatch):
    """The arguments of every tally made in the test, from an empty store.

    Both engines are recorded: ``_tally`` (compositions, by size) and
    ``_tally_by_value`` (partitions, by value).  Either takes the size
    first, then the class and the key of its buckets (the class's own
    ``accept``, or each state itself for a family), and returns the
    store of its counts by bucket.
    """
    calls = []

    def counted(tally):
        def call(*args, **kwargs):
            calls.append(args)
            return tally(*args, **kwargs)
        return call

    monkeypatch.setattr(_automaton, "_COUNTS", {})
    for engine in ("_tally", "_tally_by_value"):
        monkeypatch.setattr(_automaton, engine, counted(getattr(_automaton, engine)))
    return calls
