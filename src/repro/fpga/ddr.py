"""On-board DDR memory model: a first-fit allocator plus buffer objects.

The DE5a-Net carries 8 GB of DDR across two SODIMMs.  OpenCL buffers created
by clients are allocated here; the allocator enforces capacity (raising
:class:`OutOfMemoryError` like ``CL_MEM_OBJECT_ALLOCATION_FAILURE``) and the
buffers optionally hold real bytes so kernels can compute functionally.

Zero-copy data plane
--------------------
Buffer reads and writes traffic in *views* (``memoryview``/numpy views), not
``bytes``:

* :meth:`DeviceBuffer.read` returns a ``memoryview`` — a live view of device
  memory in functional mode, a view of the shared zero page in timing-only
  mode.  No host copy is performed.
* :meth:`DeviceBuffer.write` accepts any bytes-like object or numpy array
  and copies it into device memory exactly once (functional mode) or not at
  all (timing-only mode).
* :func:`materialize` is the single explicit materialization point: it
  snapshots a live device view into immutable ``bytes`` (one real copy) and
  passes zero-page views and already-materialized data through untouched.

Callers holding a view of device memory must either consume it before the
next operation that writes the buffer or :func:`materialize` it; the command
layers do this at the user-facing read boundary (see docs/simulation.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    import numpy as np


class OutOfMemoryError(MemoryError):
    """Device memory exhausted (maps to CL_MEM_OBJECT_ALLOCATION_FAILURE)."""


# -- zero page ---------------------------------------------------------------
#
# Timing-only buffers carry sizes but no bytes.  Reads against them used to
# allocate a fresh zeroed ``bytes(n)`` per call — a real 8 MB host memcpy per
# simulated DMA in the load tests.  Instead every timing-only read returns a
# view of one shared, grow-only zero page.

_zero_pages: List[bytes] = [bytes(1 << 16)]


def zero_view(nbytes: int) -> memoryview:
    """A read-only all-zeros view of ``nbytes`` bytes (no allocation)."""
    page = _zero_pages[-1]
    if nbytes > len(page):
        size = len(page)
        while size < nbytes:
            size *= 2
        page = bytes(size)
        _zero_pages.append(page)
    return memoryview(page)[:nbytes]


def is_zero_view(data) -> bool:
    """True if ``data`` is a view of the shared zero page."""
    if not isinstance(data, memoryview):
        return False
    obj = data.obj
    return any(obj is page for page in _zero_pages)


def materialize(data):
    """Snapshot a live device view into immutable ``bytes``.

    The one explicit copy of the zero-copy data plane.  ``None``, ``bytes``
    and zero-page views (timing-only reads) pass through without copying.
    """
    if isinstance(data, memoryview) and not is_zero_view(data):
        return data.tobytes()
    return data


def payload_nbytes(payload) -> int:
    """Byte length of a host payload without converting or copying it."""
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:  # numpy arrays and memoryviews
        return nbytes
    return len(payload)


def as_uint8_view(payload) -> np.ndarray:
    """A flat ``uint8`` view over any bytes-like or numpy payload.

    Zero-copy for bytes, bytearray, C-contiguous memoryviews and
    C-contiguous arrays; only non-contiguous inputs pay a compaction copy.
    """
    import numpy as np

    if isinstance(payload, np.ndarray):
        if not payload.flags["C_CONTIGUOUS"]:
            payload = np.ascontiguousarray(payload)
        return payload.reshape(-1).view(np.uint8)
    try:
        return np.frombuffer(payload, dtype=np.uint8)
    except ValueError:
        # Non-contiguous memoryview: materialize, then wrap.
        return np.frombuffer(bytes(payload), dtype=np.uint8)


class DeviceBuffer:
    """A region of device DDR.

    ``data`` is materialised lazily and only when the owning allocator runs
    in *functional* mode; in timing-only simulations buffers carry sizes but
    no bytes, which keeps multi-hour load tests cheap.
    """

    __slots__ = ("id", "size", "offset", "_functional", "_data", "freed")

    def __init__(self, buffer_id: int, size: int, offset: int,
                 functional: bool):
        self.id = buffer_id
        self.size = size
        self.offset = offset
        self._functional = functional
        self._data: Optional[np.ndarray] = None
        self.freed = False

    @property
    def data(self) -> np.ndarray:
        """Backing bytes (functional mode only)."""
        if not self._functional:
            raise RuntimeError(
                "buffer has no backing data (allocator is timing-only)"
            )
        if self._data is None:
            import numpy as np

            self._data = np.zeros(self.size, dtype=np.uint8)
        return self._data

    def write(self, payload, offset: int = 0) -> None:
        """Copy host data into the buffer at ``offset``.

        Accepts bytes-like objects, memoryviews and numpy arrays.  In
        functional mode this is the single host→device copy; in timing-only
        mode only the bounds are validated and no bytes are touched.
        """
        nbytes = payload_nbytes(payload)
        self._check_range(offset, nbytes)
        if self._functional and nbytes:
            self.data[offset:offset + nbytes] = as_uint8_view(payload)

    def read(self, size: Optional[int] = None, offset: int = 0) -> memoryview:
        """View ``size`` bytes of the buffer starting at ``offset``.

        Returns a ``memoryview`` — a live view of device memory (functional
        mode) or of the shared zero page (timing-only mode).  No copy is
        made; use :func:`materialize` to snapshot the contents.
        """
        if size is None:
            size = self.size - offset
        self._check_range(offset, size)
        if self._functional:
            return self.data[offset:offset + size].data
        return zero_view(size)

    def as_array(self, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        """View the buffer contents as a typed array (functional mode)."""
        import numpy as np

        wanted = int(np.prod(shape)) * np.dtype(dtype).itemsize
        self._check_range(0, wanted)
        return self.data[:wanted].view(dtype).reshape(shape)

    def _check_range(self, offset: int, size: int) -> None:
        if self.freed:
            raise RuntimeError(f"buffer {self.id} already freed")
        if offset < 0 or size < 0 or offset + size > self.size:
            raise ValueError(
                f"access [{offset}, {offset + size}) outside buffer of "
                f"size {self.size}"
            )


class MemoryAllocator:
    """First-fit allocator over a fixed-size device memory."""

    def __init__(self, capacity: int, functional: bool = True):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.functional = functional
        self._buffers: Dict[int, DeviceBuffer] = {}
        #: Live allocations ordered by offset, maintained incrementally so
        #: first-fit search is one linear walk (no per-allocate sort).
        self._ordered: List[DeviceBuffer] = []
        self._next_id = 1
        self._used = 0

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def allocate(self, size: int) -> DeviceBuffer:
        """Allocate ``size`` bytes; raises :class:`OutOfMemoryError`."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if size > self.free:
            raise OutOfMemoryError(
                f"requested {size} bytes, only {self.free} free of "
                f"{self.capacity}"
            )
        offset, index = self._find_offset(size)
        buffer = DeviceBuffer(self._next_id, size, offset, self.functional)
        self._next_id += 1
        self._buffers[buffer.id] = buffer
        self._ordered.insert(index, buffer)
        self._used += size
        return buffer

    def allocate_at(self, size: int, offset: int,
                    buffer_id: Optional[int] = None) -> DeviceBuffer:
        """Allocate ``size`` bytes at an exact ``offset`` (checkpoint restore).

        Restoring a :class:`~repro.live.BoardCheckpoint` onto a fresh board
        must reproduce the source layout bit-identically, so the restore
        path places segments explicitly instead of first-fit.  ``buffer_id``
        pins the id as well; ids at or below it are reserved afterwards so
        later first-fit allocations can never collide.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if offset < 0 or offset + size > self.capacity:
            raise ValueError(
                f"segment [{offset}, {offset + size}) outside device "
                f"memory of {self.capacity} bytes"
            )
        index = 0
        for index, live in enumerate(self._ordered):  # noqa: B007
            if live.offset + live.size <= offset:
                index += 1
                continue
            if live.offset < offset + size:
                raise OutOfMemoryError(
                    f"segment [{offset}, {offset + size}) overlaps live "
                    f"buffer {live.id} at [{live.offset}, "
                    f"{live.offset + live.size})"
                )
            break
        if buffer_id is None:
            buffer_id = self._next_id
        elif buffer_id in self._buffers:
            raise ValueError(f"buffer id {buffer_id} already live")
        buffer = DeviceBuffer(buffer_id, size, offset, self.functional)
        self._next_id = max(self._next_id, buffer_id) + 1
        self._buffers[buffer.id] = buffer
        self._ordered.insert(index, buffer)
        self._used += size
        return buffer

    def reserve_ids(self, beyond: int) -> None:
        """Never hand out ids at or below ``beyond`` from now on.

        After a migration restores a session whose client still refers to
        source-side buffer ids, the target allocator must not mint those
        ids again for new allocations.
        """
        self._next_id = max(self._next_id, beyond + 1)

    def release(self, buffer: DeviceBuffer | int) -> None:
        """Free a buffer (idempotent on already-freed ids is an error)."""
        buffer_id = buffer.id if isinstance(buffer, DeviceBuffer) else buffer
        found = self._buffers.pop(buffer_id, None)
        if found is None:
            raise KeyError(f"unknown buffer id {buffer_id}")
        found.freed = True
        self._ordered.remove(found)
        self._used -= found.size

    def release_all(self) -> int:
        """Free every buffer (used when a client disconnects); returns count."""
        n = len(self._buffers)
        for buffer in self._buffers.values():
            buffer.freed = True
        self._buffers.clear()
        self._ordered.clear()
        self._used = 0
        return n

    def __len__(self) -> int:
        return len(self._buffers)

    def _find_offset(self, size: int) -> tuple[int, int]:
        """First-fit over the gaps; returns (offset, insertion index)."""
        cursor = 0
        for index, live in enumerate(self._ordered):
            if live.offset - cursor >= size:
                return cursor, index
            end = live.offset + live.size
            if end > cursor:
                cursor = end
        if cursor + size > self.capacity:
            # Fragmented: total free is sufficient but no contiguous hole.
            raise OutOfMemoryError(
                f"no contiguous hole of {size} bytes (fragmentation)"
            )
        return cursor, len(self._ordered)
