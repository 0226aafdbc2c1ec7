"""Wire protocol between the Remote OpenCL Library and a Device Manager.

Two method groups, mirroring Section III-B:

* **context and information methods** — synchronous unary calls
  (:data:`UNARY_METHODS`); ``BuildProgram`` is the special case that blocks
  the manager while the board reconfigures;
* **command-queue methods** — streamed, tagged, answered asynchronously
  through notifications pushed to the client's completion queue.
"""

from __future__ import annotations

# -- unary (context and information) methods --------------------------------
CONNECT = "Connect"
DISCONNECT = "Disconnect"
GET_PLATFORM_INFO = "GetPlatformInfo"
GET_DEVICE_INFO = "GetDeviceInfo"
CREATE_BUFFER = "CreateBuffer"
RELEASE_BUFFER = "ReleaseBuffer"
BUILD_PROGRAM = "BuildProgram"
CREATE_KERNEL = "CreateKernel"

UNARY_METHODS = frozenset({
    CONNECT,
    DISCONNECT,
    GET_PLATFORM_INFO,
    GET_DEVICE_INFO,
    CREATE_BUFFER,
    RELEASE_BUFFER,
    BUILD_PROGRAM,
    CREATE_KERNEL,
})

# -- streamed command-queue methods ------------------------------------------
ENQUEUE_WRITE = "EnqueueWrite"
ENQUEUE_READ = "EnqueueRead"
ENQUEUE_COPY = "EnqueueCopy"
ENQUEUE_KERNEL = "EnqueueKernel"
ENQUEUE_MARKER = "EnqueueMarker"
FLUSH = "Flush"
WRITE_DATA = "WriteData"  # bulk payload following an EnqueueWrite

STREAM_METHODS = frozenset({
    ENQUEUE_WRITE,
    ENQUEUE_READ,
    ENQUEUE_COPY,
    ENQUEUE_KERNEL,
    ENQUEUE_MARKER,
    FLUSH,
    WRITE_DATA,
})

# -- notifications (Device Manager → client completion queue) ----------------
OP_ENQUEUED = "OpEnqueued"     # the event FSM's FIRST step
OP_COMPLETE = "OpComplete"     # COMPLETE step (reads carry their data)
OP_FAILED = "OpFailed"

# -- kernel argument encoding -------------------------------------------------
ARG_BUFFER = "buf"
ARG_SCALAR = "scalar"
