"""Zero-copy task-graph handoff over POSIX shared memory.

The sweep supervisor dispatches every cell to its worker over a pipe, and
a cell carries the full :class:`~repro.chemistry.tasks.TaskGraph` — so a
16-cell sweep over one graph pickles the same thousands of ``TaskSpec``
objects sixteen times and unpickles them sixteen more. This module
replaces that payload with a :class:`GraphHandle`: the graph's dense
form (``TaskGraph.to_arrays()``: quartets, flops, block offsets, and
the footprint CSR of a symmetry-folded or hand-built graph) is published
once by the parent into ``multiprocessing.shared_memory`` segments, and
the handle — the graph's ``content_key`` plus segment names, a few
hundred bytes — rides the pipe instead.

Workers attach the segments read-only and rebuild the graph *once per
process* (keyed by content address), mapping the NumPy arrays directly
onto the shared buffers — no array copy crosses the pipe, and repeat
cells on the same graph are a dict hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.chemistry.tasks import TaskGraph, graph_from_arrays

#: Graphs below this task count pickle faster than they publish; the
#: handoff only engages above it.
SHM_MIN_TASKS = 256

#: Worker-side cache: content key -> rebuilt graph (one per process).
_ATTACHED_GRAPHS: dict[str, TaskGraph] = {}

#: Attached segments kept alive for the process lifetime — the arrays of
#: every cached graph are views into these buffers.
_ATTACHED_SEGMENTS: list[shared_memory.SharedMemory] = []


@dataclass(frozen=True)
class SegmentSpec:
    """One published array: segment name + dtype/shape to map it back."""

    name: str
    dtype: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class GraphHandle:
    """A content-addressed shared-memory reference to a task graph.

    Stands in for ``SweepCell.graph`` on the wire; workers resolve it
    back to a :class:`TaskGraph` with :func:`attach_graph`.
    """

    content_key: str
    #: ``(name, segment)`` per array of ``TaskGraph.to_arrays()``.
    segments: tuple[tuple[str, SegmentSpec], ...]
    tau: float


def _share_array(arr: np.ndarray) -> tuple[SegmentSpec, shared_memory.SharedMemory]:
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    view: np.ndarray = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return SegmentSpec(shm.name, arr.dtype.str, arr.shape), shm


def _attach_array(spec: SegmentSpec) -> np.ndarray:
    # Attaching re-registers the name with the resource tracker. The
    # sweep pool forks its workers, so they share the parent's tracker
    # process: the duplicate registration is a set no-op, worker exit
    # triggers no cleanup, and the parent's unlink deregisters exactly
    # once. (Unregistering here would clobber that shared registration
    # and leak the segment if the parent died before unlinking.)
    shm = shared_memory.SharedMemory(name=spec.name)
    _ATTACHED_SEGMENTS.append(shm)
    arr: np.ndarray = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    arr.flags.writeable = False
    return arr


class PublishedGraph:
    """Parent-side ownership of one graph's shared segments."""

    def __init__(
        self, handle: GraphHandle, segments: list[shared_memory.SharedMemory]
    ) -> None:
        self.handle = handle
        self._segments = segments

    def close(self) -> None:
        """Release and unlink the segments (idempotent)."""
        segments, self._segments = self._segments, []
        _release(segments)


def _release(segments: list[shared_memory.SharedMemory]) -> None:
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except OSError:  # pragma: no cover
            pass


def publishable(graph: object) -> bool:
    """Whether the zero-copy handoff applies to this graph."""
    return isinstance(graph, TaskGraph) and graph.n_tasks >= SHM_MIN_TASKS


def publish_graph(graph: TaskGraph) -> PublishedGraph:
    """Copy the graph's dense arrays into shared memory (parent side).

    The caller owns the returned :class:`PublishedGraph` and must
    :meth:`~PublishedGraph.close` it once no worker can still attach.
    """
    arrays = graph.to_arrays()
    tau = arrays.pop("tau")
    specs: dict[str, SegmentSpec] = {}
    segments: list[shared_memory.SharedMemory] = []
    try:
        for name, arr in arrays.items():
            specs[name], shm = _share_array(arr)
            segments.append(shm)
    except Exception:
        _release(segments)
        raise
    handle = GraphHandle(graph.content_key, tuple(specs.items()), tau)
    return PublishedGraph(handle, segments)


def attach_graph(handle: GraphHandle) -> TaskGraph:
    """Resolve a handle back to a :class:`TaskGraph` (worker side).

    The rebuilt graph is cached by content key, so a worker pays the
    ``TaskSpec`` materialization once per distinct graph no matter how
    many cells it executes; the quartet/cost arrays stay views into the
    shared buffers.
    """
    cached = _ATTACHED_GRAPHS.get(handle.content_key)
    if cached is not None:
        return cached
    arrays = {name: _attach_array(spec) for name, spec in handle.segments}
    graph = graph_from_arrays(**arrays, tau=handle.tau)
    _ATTACHED_GRAPHS[handle.content_key] = graph
    return graph
