"""Concurrent query service: a wire front-end for one GhostDB token.

The core engine is a single-caller, in-process library; this package
turns it into a service many clients can drive at once:

* :mod:`repro.service.protocol` -- the framed (length-prefixed JSON)
  wire format shared by server and clients.
* :mod:`repro.service.admission` -- the token's lane: every statement's
  token work is one job, run one at a time in arrival order, inline on
  the server's event loop; each job holds the whole token.
* :mod:`repro.service.server` -- the asyncio server multiplexing many
  concurrent client sessions onto one token (or fleet): a read pins,
  plans and executes in one turn and reports the generations it read;
  a write applies, takes its ``writer_seq`` and records its response
  in one turn.
* :mod:`repro.service.client` -- the asyncio client.
* :mod:`repro.service.loadgen` -- Query Q's Figure 10/12 texts as
  prepared templates (no generator: load is ``perfbench``'s
  ``service_short``).
"""

from repro.service.admission import AdmissionController
from repro.service.client import (AsyncGhostClient, ServiceError,
                                  ServiceResult)
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.service.server import GhostServer

__all__ = [
    "AdmissionController",
    "AsyncGhostClient",
    "GhostServer",
    "MAX_FRAME_BYTES",
    "ServiceError",
    "ServiceResult",
    "decode_frame",
    "encode_frame",
]
