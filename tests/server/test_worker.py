"""The fleet worker's adoption LRU: eviction never costs a shard."""

from multiprocessing import shared_memory

import pytest

from repro.lang import parse_program
from repro.server import worker
from repro.server.coordinator import Coordinator
from repro.server.worker import MAX_ADOPTED, reset_worker_state

SOURCE = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) { x = new Item @item; h.slot = x; }
  }
}
class Holder { field slot; }
class Item { }
class Tag%d { }
"""


class _Viewer:
    """Stands in for an adopted session: holds a view into its segment,
    as the hydrated mask table does."""

    def __init__(self, shm):
        self.view = memoryview(shm.buf)[:8]


@pytest.fixture
def segment(request):
    reset_worker_state()
    request.addfinalizer(reset_worker_state)
    shm = shared_memory.SharedMemory(create=True, size=16)
    request.addfinalizer(shm.unlink)
    return shm


def test_one_worker_adopts_past_its_lru_bound():
    """``MAX_ADOPTED + 1`` distinct programs, each handed to the single
    worker process in shared memory: the fifth adoption evicts the
    first, and no shard loses a region to the eviction."""
    coordinator = Coordinator(1, transport="process")
    try:
        kinds = []
        for tag in range(MAX_ADOPTED + 1):
            program = parse_program(SOURCE % tag)
            kinds += [o.kind for o in coordinator.scan_iter(program)]
        adoptions = coordinator.fleet_stats()["adoptions"]
    finally:
        coordinator.close()
    assert kinds == ["ok"] * (MAX_ADOPTED + 1)
    assert adoptions["shm"] == MAX_ADOPTED + 1


def test_reset_closes_a_segment_viewed_only_by_its_session(segment):
    worker._SESSIONS["key"] = (_Viewer(segment), segment)
    reset_worker_state()
    assert segment.buf is None and worker._UNCLOSED == []


def test_a_segment_viewed_past_its_session_closes_on_a_later_drop(segment):
    outliving = memoryview(segment.buf)[:8]
    worker._SESSIONS["first"] = (_Viewer(segment), segment)
    reset_worker_state()
    assert worker._UNCLOSED == [segment]
    outliving.release()
    worker._SESSIONS["second"] = (object(), None)
    reset_worker_state()
    assert worker._UNCLOSED == []
