"""Concurrent query service: a wire front-end for one GhostDB token.

The core engine is a single-caller, in-process library; this package
turns it into a service many clients can drive at once:

* :mod:`repro.service.protocol` -- the framed (length-prefixed JSON)
  wire format shared by server and clients.
* :mod:`repro.service.admission` -- admission control: every statement
  pledges its planned secure-RAM peak against the 64 KB budget before
  it may run; statements that don't fit alongside the admitted set
  queue in a fair FIFO scheduler instead of failing.
* :mod:`repro.service.server` -- the asyncio server multiplexing many
  concurrent client sessions onto one token, with snapshot-isolated
  readers (per-statement generation pins) and a single serialized
  DML/compaction writer lane.
* :mod:`repro.service.client` -- the asyncio client and its blocking
  facade (one transport).
* :mod:`repro.service.loadgen` -- the N-clients x template-mix load
  generator behind ``benchmarks/test_service_loadgen.py``.
"""

from repro.service.admission import AdmissionController, AdmissionTicket
from repro.service.client import (AsyncGhostClient, GhostClient,
                                  ServiceError, ServiceResult)
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.service.server import GhostServer, plan_ram_claim

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "AsyncGhostClient",
    "GhostClient",
    "GhostServer",
    "LoadgenReport",
    "MAX_FRAME_BYTES",
    "ServiceError",
    "ServiceResult",
    "decode_frame",
    "encode_frame",
    "plan_ram_claim",
    "run_loadgen",
]
