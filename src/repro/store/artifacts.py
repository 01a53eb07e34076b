"""The versioned artifact store: content-addressed executables + the
persisted kernel cache.

Directory layout (specified in ``docs/serialization.md``)::

    <artifact_dir>/
        STORE_FORMAT            # one line: the store-format version
        artifacts/<key>.nmbl     # kind "exe": Executable.save() blobs
        artifacts/<key>.nmblp    # kind "prefix": SpecializationPrefix.save()
        artifacts/<key>.nmblprof # kind "profile": ShapeProfile.save()
        kernels.kc               # KernelCache.export_entries() blob

``<key>`` is :func:`repro.vm.executable.artifact_key` — a sha256 over
(source-module fingerprint, platform, shape binding, batch marker,
serialization version). Content addressing makes staleness structural:
a serialization-format bump changes every key, so old blobs are never
looked up; a model or platform change changes the fingerprint
component, so a store can safely hold artifacts for many modules and
platforms side by side.

Writes are atomic (temp file + ``os.replace``), so a killed server
never leaves a half-written artifact where a restarted one will look.
Reads are *paranoid*: a blob that is truncated, version-bumped,
hash-mismatched, or compiled from a different module is skipped, its
rejection recorded in :attr:`ArtifactStore.rejects`, and the caller
falls back to compiling — the store can lose data, but it must never
serve wrong code.

Concurrent readers (a fleet of replicas over one volume — see
``docs/fleet.md``) need no locking because of those two properties
together: ``os.replace`` means a reader sees either the old complete
blob or the new complete blob, never a torn write, and the paranoid
validation means a reader that loses any conceivable race (a blob
deleted between listing and read, an overwrite it half-expected)
degrades to a counted reject + recompile, never to wrong code. The
same holds against :class:`repro.store.StoreGC` deletions: ``remove``
is a single ``unlink``, so a reader either got the blob or gets a
miss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, FrozenSet, List, Optional, Tuple, TypeVar

from repro.codegen.kernels import KernelCache
from repro.errors import SerializationError
from repro.vm.executable import Executable

# Version of the directory layout itself (not of the blobs inside it —
# executables carry their own serialization version). A store written
# under a different format is refused at open, before any blob is read.
STORE_FORMAT = 1

# The blob kinds and their file suffixes under ``artifacts/``: the one
# place the layout spells them. Every other layer names a blob by
# (kind, key) — a :data:`StoreEntry`.
BLOB_KINDS = {"exe": ".nmbl", "prefix": ".nmblp", "profile": ".nmblprof"}
_KIND_OF_SUFFIX = {suffix: kind for kind, suffix in BLOB_KINDS.items()}

StoreEntry = Tuple[str, str]  # (kind, key)

T = TypeVar("T")


def _parse_blob_name(name: str) -> Optional[StoreEntry]:
    """``(kind, key)`` for a well-formed blob file name, else ``None``:
    an unknown suffix, or a known suffix with an empty key (``.nmbl``)."""
    key, dot, ext = name.rpartition(".")
    kind = _KIND_OF_SUFFIX.get(dot + ext)
    if kind is None or not key:
        return None
    return kind, key


def _suffix(kind: str) -> str:
    try:
        return BLOB_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown blob kind {kind!r}") from None


class ArtifactStore:
    """A content-addressed, versioned directory of compiled artifacts.

    ``put`` files an executable under its content hash; ``get`` loads
    one back, returning ``None`` (and counting a reject) for anything
    that fails validation. One store instance may serve many modules and
    platforms — keys collide only when every identity component matches.
    """

    def __init__(self, root, verify: bool = True) -> None:
        self.root = Path(root)
        # Statically verify every loaded executable (repro.analysis): a
        # blob that deserializes cleanly but fails verification is
        # rejected-and-counted exactly like a corrupt one — it is never
        # handed to a VM. Disable only for forensics on bad blobs.
        self.verify = verify
        self.artifacts_dir = self.root / "artifacts"
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        self._format_file = self.root / "STORE_FORMAT"
        if self._format_file.exists():
            try:
                found = int(self._format_file.read_text().strip())
            except ValueError:
                raise SerializationError(
                    f"artifact store at {self.root}: unreadable STORE_FORMAT"
                )
            if found != STORE_FORMAT:
                raise SerializationError(
                    f"artifact store at {self.root} uses format {found}, "
                    f"this build reads format {STORE_FORMAT}"
                )
        else:
            self._atomic_write(self._format_file, f"{STORE_FORMAT}\n".encode())
        # Rejected loads this process: (key, reason) pairs. A reject is
        # an expected, recoverable event (the caller recompiles), but it
        # must be *visible* — silent fallback would mask a corrupted
        # volume until someone wonders why restarts stopped being warm.
        self.reject_log: List[Tuple[str, str]] = []
        # The subset of rejects that deserialized fine but failed static
        # verification — tracked separately because they mean a *writer*
        # bug (or post-write tampering), not volume rot.
        self.verify_reject_log: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------ stats
    @property
    def rejects(self) -> int:
        """How many artifact loads this process refused (corrupt,
        truncated, stale-version, signature-mismatched, or
        verification-failed blobs)."""
        return len(self.reject_log)

    @property
    def verify_rejects(self) -> int:
        """How many rejects were static-verification failures."""
        return len(self.verify_reject_log)

    # -------------------------------------------------------------- inventory
    def inventory(self) -> FrozenSet[StoreEntry]:
        """Every well-formed blob on disk as ``(kind, key)``, from one
        directory pass. Consumers that must replay identically freeze
        this at construction (the specialization manager, the fleet's
        store view) instead of re-listing the directory."""
        return frozenset(self._scan()[0])

    def keys(self, kind: str = "exe") -> List[str]:
        """Every key of *kind* currently on disk, sorted (deterministic
        iteration for replay-stable consumers)."""
        _suffix(kind)  # an unknown kind is an error, not an empty list
        return sorted(key for k, key in self._scan()[0] if k == kind)

    def contains(self, key: str, kind: str = "exe") -> bool:
        return self.blob_path(kind, key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def blob_path(self, kind: str, key: str) -> Path:
        """The on-disk path of a blob by (kind, key)."""
        return self.artifacts_dir / f"{key}{_suffix(kind)}"

    def malformed_names(self) -> List[str]:
        """File names under ``artifacts/`` that are not well-formed blobs
        (no known suffix, or an empty key), sorted. The GC *counts*
        these and leaves them alone — an unrecognized file is evidence
        of a foreign writer or corruption, and deleting evidence is the
        one thing a collector must never do. In-flight atomic-write
        temporaries (``.tmp-*``) are not counted; they are a healthy
        store's transient state, not rot."""
        return sorted(self._scan()[1])

    # ------------------------------------------------------------- executables
    def put(self, exe: Executable) -> str:
        """File *exe* under its content hash; returns the key. Writing
        is atomic and idempotent — re-putting an identical artifact
        rewrites the same bytes at the same path."""
        key = exe.content_hash()
        self._atomic_write(self.blob_path("exe", key), exe.save())
        return key

    def get(
        self, key: str, expected_signature: Optional[str] = None
    ) -> Optional[Executable]:
        """Load the artifact filed under *key*, or ``None``.

        ``None`` covers both a plain miss and every flavor of bad blob —
        truncated file, stale serialization version, content-hash
        mismatch, or (when *expected_signature* is given) an artifact
        compiled from a different module. Bad blobs are recorded in
        :attr:`reject_log`; they are never raised to the caller, whose
        correct response is always the same: compile fresh.
        """
        exe = self._load(
            key,
            self.blob_path("exe", key),
            lambda blob: Executable.load(
                blob, expected_signature=expected_signature
            ),
            Executable.content_hash,
        )
        if exe is None or not self.verify:
            return exe
        # The blob is authentic, but is the bytecode sound? A buggy
        # writer (or a hand-edited blob with a recomputed hash) can
        # produce a well-formed *container* around racy or ill-formed
        # *contents*; verification is the last gate before anything
        # executes it.
        from repro.analysis import verify_executable

        errors = [f for f in verify_executable(exe) if f.severity == "error"]
        if errors:
            reason = (
                f"failed static verification "
                f"({len(errors)} finding(s)): {errors[0]}"
            )
            self.reject_log.append((key, reason))
            self.verify_reject_log.append((key, reason))
            return None
        return exe

    # ----------------------------------------------------------------- prefixes
    def put_prefix(self, prefix) -> str:
        """File a :class:`repro.nimble.SpecializationPrefix` under its
        store key; returns the key. Atomic and idempotent, like
        :meth:`put`."""
        key = prefix.store_key()
        self._atomic_write(self.blob_path("prefix", key), prefix.save())
        return key

    def get_prefix(self, key: str, expected_signature: Optional[str] = None):
        """Load the specialization prefix filed under *key*, or ``None``.

        Same contract as :meth:`get`: a plain miss returns ``None``
        silently; every flavor of bad blob (truncated, stale version,
        digest mismatch, malformed payload, wrong source module,
        key/path mismatch) also returns ``None`` but lands in
        :attr:`reject_log`. The caller's fallback is always the same:
        rebuild the prefix from source.
        """
        # Imported lazily: repro.nimble imports this package at top level,
        # so the reverse import must wait until call time.
        from repro.nimble import SpecializationPrefix

        return self._load(
            key,
            self.blob_path("prefix", key),
            lambda blob: SpecializationPrefix.load(
                blob, expected_signature=expected_signature
            ),
            SpecializationPrefix.store_key,
        )

    # ----------------------------------------------------------------- profiles
    def put_profile(self, profile) -> str:
        """File a :class:`repro.serve.profile.ShapeProfile` under its
        store key; returns the key. Atomic and idempotent, like
        :meth:`put`. One profile per (module, platform, format) — a
        later simulation's snapshot overwrites the earlier one."""
        key = profile.store_key()
        self._atomic_write(self.blob_path("profile", key), profile.save())
        return key

    def get_profile(self, key: str, expected_signature: Optional[str] = None):
        """Load the shape profile filed under *key*, or ``None``.

        Same contract as :meth:`get_prefix`; the caller's fallback is to
        serve cold, profile-less.
        """
        # Imported lazily: the serving layer imports this package.
        from repro.serve.profile import ShapeProfile

        return self._load(
            key,
            self.blob_path("profile", key),
            lambda blob: ShapeProfile.load(
                blob, expected_signature=expected_signature
            ),
            ShapeProfile.store_key,
        )

    # ------------------------------------------------------------ kernel cache
    @property
    def kernel_cache_path(self) -> Path:
        return self.root / "kernels.kc"

    def save_kernel_cache(self, cache: KernelCache) -> None:
        """Persist the kernel cache (entries for every platform live in
        one blob — the cache keys already carry the platform name)."""
        self._atomic_write(self.kernel_cache_path, cache.export_entries())

    def load_kernel_cache(self, cache: KernelCache) -> int:
        """Merge the persisted kernel cache into *cache*; returns how
        many entries were added (0 on a missing or rejected blob — the
        caller's build simply compiles its kernels fresh)."""
        added = self._load(
            "kernels.kc", self.kernel_cache_path, cache.import_entries
        )
        return 0 if added is None else added

    # ------------------------------------------------------------------- blobs
    def remove(self, kind: str, key: str) -> bool:
        """Unlink one blob; returns whether a file was actually removed.
        A miss is not an error — the GC prunes from a *model* of the
        store, and the disk is allowed to be behind the model (a blob
        modeled from a previous simulation's write may not exist under
        this directory's current history)."""
        try:
            self.blob_path(kind, key).unlink()
            return True
        except FileNotFoundError:
            return False

    # -------------------------------------------------------------- internals
    def _scan(self) -> Tuple[List[StoreEntry], List[str]]:
        """One pass over ``artifacts/``: the well-formed blobs as
        ``(kind, key)`` and the malformed names, both through
        :func:`_parse_blob_name` so no file is ever both."""
        entries: List[StoreEntry] = []
        malformed: List[str] = []
        with os.scandir(self.artifacts_dir) as it:
            for item in it:
                if not item.is_file() or item.name.startswith(".tmp-"):
                    continue
                entry = _parse_blob_name(item.name)
                if entry is None:
                    malformed.append(item.name)
                else:
                    entries.append(entry)
        return entries, malformed

    def _load(
        self,
        key: str,
        path: Path,
        decode: Callable[[bytes], T],
        key_of: Optional[Callable[[T], str]] = None,
    ) -> Optional[T]:
        """The read ladder every blob shares. A missing file is a plain
        miss (``None``, nothing logged). An existing file that cannot be
        read (permissions, I/O error on a degraded volume), a blob
        *decode* refuses, or — with *key_of* — a valid blob filed under
        a key it does not hash to is a failed load: ``None``, recorded
        in :attr:`reject_log` so a broken volume never silently stops
        restarts being warm."""
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as err:
            self.reject_log.append((key, f"unreadable {path.name}: {err}"))
            return None
        try:
            found = decode(blob)
        except SerializationError as err:
            self.reject_log.append((key, str(err)))
            return None
        # The blob deserialized, but is it the one this key names? A file
        # renamed/copied to the wrong path would otherwise serve a
        # different variant, prefix, or profile.
        if key_of is not None:
            actual = key_of(found)
            if actual != key:
                self.reject_log.append(
                    (key, f"{path.name} holds the blob keyed {actual}")
                )
                return None
        return found

    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(data)
            os.replace(tmp, str(path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
