"""Directory-based cache-coherence substrate.

The paper's baseline is a low-occupancy, directory-based, NACK-free protocol
on a 16-node DSM.  This package provides:

* :mod:`repro.coherence.messages` — coherence message vocabulary with size
  accounting (used for the bandwidth results of Figure 11).
* :mod:`repro.coherence.directory` — per-block directory entries (owner,
  sharers, state) extended with the CMOB pointers TSE adds.
* :mod:`repro.coherence.protocol` — a functional MESI-style protocol that
  classifies every read as hit / cold miss / capacity miss / coherent read
  miss ("consumption"), and hands the message sequence each transaction
  needs to an optional message sink.
"""

from repro.coherence.directory import Directory, DirectoryEntry, DirectoryState
from repro.coherence.messages import CoherenceMessage, MessageType
from repro.coherence.protocol import AccessResult, CoherenceProtocol

__all__ = [
    "CoherenceMessage",
    "MessageType",
    "Directory",
    "DirectoryEntry",
    "DirectoryState",
    "AccessResult",
    "CoherenceProtocol",
]
