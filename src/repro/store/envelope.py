"""The blob envelope shared by specialization prefixes (``NMBP``) and
shape profiles (``NMPF``), specified in ``docs/serialization.md``::

    0   magic            (4 bytes)
    4   version          (uint32, little-endian)
    8   sha256(payload)  (32 bytes)
    40  payload          pickle (protocol 4) of the kind's field tuple

:meth:`Envelope.open` owns the reject ladder. The digest only proves the
payload is the one its writer sealed, so a blob with a forged digest
still reaches the kind's decoder; any exception that decoder raises is
a :class:`~repro.errors.SerializationError` too — a counted reject at
the store, never a crash.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

from repro.errors import SerializationError

T = TypeVar("T")


@dataclass(frozen=True)
class Envelope:
    """One blob kind's envelope: magic, format version, and the name
    its reject messages use."""

    magic: bytes
    version: int
    what: str

    def seal(self, fields: Tuple) -> bytes:
        payload = pickle.dumps(fields, protocol=4)
        return (
            self.magic
            + struct.pack("<I", self.version)
            + hashlib.sha256(payload).digest()
            + payload
        )

    def open(self, blob: bytes, decode: Callable[[Tuple], T]) -> T:
        """Check the envelope, unpickle the payload, and return
        ``decode(fields)``; every failure is a ``SerializationError``."""
        what, start = self.what, len(self.magic)
        header = start + 4 + 32
        if len(blob) < header:
            raise SerializationError(f"{what} blob truncated: {len(blob)} bytes")
        if blob[:start] != self.magic:
            raise SerializationError(f"{what} blob has a bad magic number")
        (version,) = struct.unpack("<I", blob[start: start + 4])
        if version != self.version:
            raise SerializationError(
                f"{what} blob is version {version}, this build reads "
                f"version {self.version}"
            )
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != blob[start + 4: header]:
            raise SerializationError(f"{what} blob content digest mismatch")
        try:
            fields = pickle.loads(payload)
        except Exception as err:  # corrupt pickles raise all sorts
            raise SerializationError(f"{what} blob failed to deserialize: {err}")
        try:
            return decode(fields)
        except SerializationError:
            raise
        except Exception as err:  # forged payloads: wrong types, arity
            raise SerializationError(
                f"{what} blob holds an invalid payload: "
                f"{type(err).__name__}: {err}"
            )
