"""The Untrusted side: Visible data storage and the Vis protocol."""

from repro.untrusted.engine import UntrustedEngine
from repro.untrusted.server import VisRequest, VisResult, VisServer

__all__ = [
    "UntrustedEngine",
    "VisRequest",
    "VisResult",
    "VisServer",
]
