"""Content-addressed on-disk store for experiment results.

Layout (all JSON written atomically via
:func:`repro.experiments.export.write_json`)::

    <root>/
        index.json                      # digest -> summary (rebuildable)
        objects/<d[:2]>/<digest>/
            result.json                 # export.result_to_dict payload
            manifest.json               # provenance + integrity record

The digest is :func:`repro.store.digest.compute_digest` - a pure
function of (experiment id, canonicalized parameters, seed material,
package version) - so identical invocations share one object and the
campaign engine can skip them by set membership.  The manifest records
where the bytes came from (git SHA, host, numpy/python versions,
timestamp, wall time) and the SHA-256 of ``result.json``; every read
verifies that hash, so a tampered or truncated artefact raises
:class:`~repro.errors.IntegrityError` instead of silently feeding a
regression dashboard.

The index is a pure cache of the manifests: deleting ``index.json`` (or
handing the store a directory of objects copied from another machine)
is repaired by :meth:`ResultStore.reindex`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import shutil
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.contracts import check_digest
from repro.errors import IntegrityError, StoreError
from repro.experiments.export import result_to_dict, write_json
from repro.store.digest import compute_digest
from repro.store.locking import StoreLock

__all__ = [
    "ENV_STORE_DIR",
    "MANIFEST_SCHEMA",
    "Manifest",
    "ResultStore",
    "StoreDiff",
]

ENV_STORE_DIR = "REPRO_STORE_DIR"

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1

_MISSING = object()


def _utc_now() -> str:
    """UTC timestamp for manifests (module-level so tests can patch it)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@functools.lru_cache(maxsize=1)
def _git_sha() -> Optional[str]:
    """Best-effort commit SHA of the working tree (None outside git).

    Computed on the process's first commit and reused, so later commits
    do not fork ``git`` (about 10 ms each): every manifest a process
    writes names HEAD as it was at that first commit.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class Manifest:
    """Provenance and integrity record of one stored run."""

    digest: str
    experiment_id: str
    params: Dict[str, Any]
    version: str
    created_at: str
    git_sha: Optional[str]
    host: str
    python_version: str
    numpy_version: str
    wall_time_s: Optional[float]
    result_sha256: str
    rendered: Optional[str] = None
    schema: int = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Manifest":
        known = {field.name for field in dataclasses.fields(cls)}
        missing = {
            "digest",
            "experiment_id",
            "params",
            "result_sha256",
        } - set(data)
        if missing:
            raise IntegrityError(
                f"manifest is missing required fields: {sorted(missing)!r}"
            )
        payload = {key: data[key] for key in data if key in known}
        manifest = cls(**payload)
        check_digest(manifest.digest, "manifest digest")
        check_digest(manifest.result_sha256, "manifest result_sha256")
        return manifest


@dataclass(frozen=True)
class StoreDiff:
    """Field-level delta between two stored runs.

    ``param_changes`` and ``result_changes`` map dotted paths (list
    indices included, e.g. ``rows.1.n_nodes``) to ``(a, b)`` value
    pairs; a side that lacks the path entirely reports ``"<absent>"``.
    """

    digest_a: str
    digest_b: str
    experiment_a: str
    experiment_b: str
    param_changes: Dict[str, Tuple[Any, Any]]
    result_changes: Dict[str, Tuple[Any, Any]]

    @property
    def identical(self) -> bool:
        return (
            self.experiment_a == self.experiment_b
            and not self.param_changes
            and not self.result_changes
        )

    def render(self) -> str:
        lines = [f"diff {self.digest_a[:12]} .. {self.digest_b[:12]}"]
        if self.experiment_a != self.experiment_b:
            lines.append(
                f"  experiment: {self.experiment_a} -> {self.experiment_b}"
            )
        for title, changes in (
            ("params", self.param_changes),
            ("results", self.result_changes),
        ):
            if not changes:
                continue
            lines.append(f"  {title} ({len(changes)} changed):")
            for path in sorted(changes):
                before, after = changes[path]
                lines.append(f"    {path}: {before!r} -> {after!r}")
        if self.identical:
            lines.append("  identical")
        return "\n".join(lines)


def _flatten(value: Any, prefix: str, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}.{index}" if prefix else str(index), out)
    else:
        out[prefix or "<root>"] = value


def _leaf_diff(a: Any, b: Any) -> Dict[str, Tuple[Any, Any]]:
    flat_a: Dict[str, Any] = {}
    flat_b: Dict[str, Any] = {}
    _flatten(a, "", flat_a)
    _flatten(b, "", flat_b)
    changes: Dict[str, Tuple[Any, Any]] = {}
    for path in set(flat_a) | set(flat_b):
        left = flat_a.get(path, _MISSING)
        right = flat_b.get(path, _MISSING)
        if type(left) is not type(right) or left != right:
            changes[path] = (
                "<absent>" if left is _MISSING else left,
                "<absent>" if right is _MISSING else right,
            )
    return changes


class ResultStore:
    """The content-addressed results store (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        # One reentrant advisory lock per store instance; all mutating
        # critical sections (index read-modify-write, gc, prune,
        # reindex) serialise through it so concurrent writer processes
        # cannot lose index entries or reap each other's half-committed
        # objects.  Reads stay lock-free.
        self._lock = StoreLock(self.root / ".lock")

    @classmethod
    def default(cls) -> "ResultStore":
        """Store at ``$REPRO_STORE_DIR``, else ``./.repro-store``."""
        return cls(os.environ.get(ENV_STORE_DIR, ".repro-store"))

    # -- paths ---------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def object_dir(self, digest: str) -> Path:
        check_digest(digest)
        return self.root / "objects" / digest[:2] / digest

    def result_path(self, digest: str) -> Path:
        return self.object_dir(digest) / "result.json"

    def manifest_path(self, digest: str) -> Path:
        return self.object_dir(digest) / "manifest.json"

    def profile_path(self, digest: str) -> Path:
        return self.object_dir(digest) / "profile.json"

    # -- writes --------------------------------------------------------
    def put(
        self,
        experiment_id: str,
        params: Mapping[str, Any],
        result: Any,
        *,
        rendered: Optional[str] = None,
        wall_time_s: Optional[float] = None,
        digest: Optional[str] = None,
        seed_material: Any = None,
        profile: Optional[Mapping[str, Any]] = None,
    ) -> Manifest:
        """Store one run; returns its manifest.

        ``result`` may be an experiment result object or an already
        converted plain dict - both go through
        :func:`~repro.experiments.export.result_to_dict`.  Storing an
        existing digest overwrites the object (same identity, same
        content by construction).  ``profile`` (a run profile from
        :func:`repro.obs.build_profile`) is written as ``profile.json``
        next to the manifest when given.
        """
        payload = result_to_dict(result)
        if digest is None:
            digest = compute_digest(
                experiment_id, params, seed_material=seed_material
            )
        check_digest(digest)
        # Outside the lock: the first commit of a process forks git.
        git_sha = _git_sha()
        # The lock covers the whole commit (object files + index
        # read-modify-write) so a concurrent gc/prune can never observe
        # - and reap - a payload whose manifest is still in flight, and
        # two writers cannot lose each other's index entries.
        with self._lock:
            result_path = write_json(payload, self.result_path(digest))
            manifest = Manifest(
                digest=digest,
                experiment_id=experiment_id,
                params=dict(result_to_dict(dict(params))),
                version=_package_version(),
                created_at=_utc_now(),
                git_sha=git_sha,
                host=platform.node(),
                python_version=platform.python_version(),
                numpy_version=np.__version__,
                wall_time_s=wall_time_s,
                result_sha256=_sha256_file(result_path),
                rendered=rendered,
            )
            write_json(manifest.to_dict(), self.manifest_path(digest))
            if profile is not None:
                write_json(dict(profile), self.profile_path(digest))
            index = self._load_index(repair=True)
            index[digest] = self._index_entry(manifest)
            self._write_index(index)
        return manifest

    def remove(self, digest: str) -> bool:
        """Delete one object (and its index entry); True if it existed."""
        with self._lock:
            obj = self.object_dir(digest)
            existed = obj.is_dir()
            if existed:
                shutil.rmtree(obj)
                parent = obj.parent
                if parent.is_dir() and not any(parent.iterdir()):
                    parent.rmdir()
            index = self._load_index(repair=True)
            if index.pop(digest, None) is not None or existed:
                self._write_index(index)
                existed = True
        return existed

    # -- reads ---------------------------------------------------------
    def contains(self, digest: str) -> bool:
        """Whether the store holds a complete object for ``digest``."""
        return (
            self.result_path(digest).is_file()
            and self.manifest_path(digest).is_file()
        )

    def manifest(self, digest: str) -> Manifest:
        """Load and validate one manifest."""
        path = self.manifest_path(digest)
        if not path.is_file():
            raise StoreError(f"no stored run for digest {digest!r}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise IntegrityError(
                f"manifest at {path} is not valid JSON: {error}"
            ) from error
        try:
            manifest = Manifest.from_dict(data)
        except IntegrityError as error:
            raise IntegrityError(
                f"manifest at {path} is invalid: {error}"
            ) from error
        if manifest.digest != digest:
            raise IntegrityError(
                f"manifest at {path} claims digest {manifest.digest!r}, "
                f"expected {digest!r}"
            )
        return manifest

    def load_result(self, digest: str, *, verify: bool = True) -> Any:
        """Load one result payload, verifying integrity by default."""
        if verify:
            self.verify(digest)
        path = self.result_path(digest)
        if not path.is_file():
            raise StoreError(f"no stored run for digest {digest!r}")
        return json.loads(path.read_text())

    def verify(self, digest: str) -> Manifest:
        """Check one object's bytes against its recorded SHA-256."""
        manifest = self.manifest(digest)
        path = self.result_path(digest)
        if not path.is_file():
            raise IntegrityError(
                f"stored run {digest!r} has a manifest but no result "
                f"payload at {path}"
            )
        actual = _sha256_file(path)
        if actual != manifest.result_sha256:
            raise IntegrityError(
                f"result payload at {path} fails integrity check: "
                f"sha256 {actual} != recorded {manifest.result_sha256}"
            )
        return manifest

    def has_profile(self, digest: str) -> bool:
        """Whether a run profile was stored alongside ``digest``."""
        return self.profile_path(digest).is_file()

    def load_profile(self, digest: str) -> Dict[str, Any]:
        """Load the run profile stored alongside one run."""
        path = self.profile_path(digest)
        if not path.is_file():
            raise StoreError(
                f"no run profile stored for digest {digest!r}"
            )
        try:
            profile = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise IntegrityError(
                f"run profile at {path} is not valid JSON: {error}"
            ) from error
        if not isinstance(profile, dict):
            raise IntegrityError(
                f"run profile at {path} must be a JSON object, got "
                f"{type(profile).__name__}"
            )
        return profile

    def resolve(self, prefix: str) -> str:
        """Expand a (unique) digest prefix to the full digest."""
        prefix = prefix.lower()
        matches = [d for d in self._load_index(repair=True) if d.startswith(prefix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise StoreError(f"no stored run matches digest prefix {prefix!r}")
        raise StoreError(
            f"digest prefix {prefix!r} is ambiguous "
            f"({len(matches)} matches); give more characters"
        )

    # -- queries -------------------------------------------------------
    def find(
        self,
        experiment_id: Optional[str] = None,
        *,
        where: Optional[Mapping[str, Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Index entries, optionally filtered, newest first.

        ``where`` filters on parameter equality, e.g.
        ``where={"seed": 3}`` keeps runs whose stored params include
        ``seed == 3``.
        """
        entries = list(self._load_index(repair=True).values())
        if experiment_id is not None:
            entries = [
                e for e in entries if e["experiment_id"] == experiment_id
            ]
        if where:
            wanted = result_to_dict(dict(where))
            entries = [
                e
                for e in entries
                if all(
                    e["params"].get(key, _MISSING) == value
                    for key, value in wanted.items()
                )
            ]
        entries.sort(
            key=lambda e: (e["created_at"], e["digest"]), reverse=True
        )
        return entries

    def latest(
        self, experiment_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """Newest index entry (for one experiment, or overall)."""
        entries = self.find(experiment_id)
        return entries[0] if entries else None

    def diff(self, digest_a: str, digest_b: str) -> StoreDiff:
        """Field-level delta between two stored runs (params + results)."""
        manifest_a = self.manifest(digest_a)
        manifest_b = self.manifest(digest_b)
        return StoreDiff(
            digest_a=digest_a,
            digest_b=digest_b,
            experiment_a=manifest_a.experiment_id,
            experiment_b=manifest_b.experiment_id,
            param_changes=_leaf_diff(manifest_a.params, manifest_b.params),
            result_changes=_leaf_diff(
                self.load_result(digest_a), self.load_result(digest_b)
            ),
        )

    # -- maintenance ---------------------------------------------------
    def gc(
        self,
        *,
        keep_latest: Optional[int] = None,
        before: Optional[str] = None,
        experiment_id: Optional[str] = None,
    ) -> List[str]:
        """Remove stored runs by retention policy; returns removed digests.

        ``keep_latest`` keeps the N newest runs *per experiment id*;
        ``before`` removes runs created strictly before the given ISO
        timestamp; ``experiment_id`` restricts either policy to one
        experiment.  With no policy it only drops incomplete objects
        (manifest without payload or vice versa).
        """
        with self._lock:
            removed = list(self.prune_incomplete())
            per_experiment: Dict[str, List[Dict[str, Any]]] = {}
            for entry in self.find(experiment_id):
                per_experiment.setdefault(
                    entry["experiment_id"], []
                ).append(entry)
            for entries in per_experiment.values():
                doomed: List[Dict[str, Any]] = []
                if keep_latest is not None:
                    if keep_latest < 0:
                        raise StoreError(
                            f"keep_latest must be >= 0, got {keep_latest!r}"
                        )
                    doomed.extend(entries[keep_latest:])
                if before is not None:
                    doomed.extend(
                        e for e in entries if e["created_at"] < before
                    )
                for entry in doomed:
                    if self.remove(entry["digest"]):
                        removed.append(entry["digest"])
        return sorted(set(removed))

    def prune_incomplete(self) -> List[str]:
        """Drop half-written objects (no manifest or no payload).

        Holds the store lock for the whole sweep: an in-flight ``put``
        from another process commits its object files under the same
        lock, so the sweep can never observe (and reap) a payload whose
        manifest has not landed yet.
        """
        removed = []
        with self._lock:
            for obj in self._iter_object_dirs():
                digest = obj.name
                if not self.contains(digest):
                    shutil.rmtree(obj)
                    removed.append(digest)
            if removed:
                self.reindex()
        return removed

    def reindex(self) -> int:
        """Rebuild ``index.json`` from the manifests; returns entry count."""
        with self._lock:
            index: Dict[str, Dict[str, Any]] = {}
            for obj in self._iter_object_dirs():
                digest = obj.name
                if not self.contains(digest):
                    continue
                try:
                    index[digest] = self._index_entry(self.manifest(digest))
                except IntegrityError:
                    continue
            self._write_index(index)
        return len(index)

    # -- internals -----------------------------------------------------
    def _iter_object_dirs(self) -> List[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(
            child
            for shard in objects.iterdir()
            if shard.is_dir()
            for child in shard.iterdir()
            if child.is_dir()
        )

    @staticmethod
    def _index_entry(manifest: Manifest) -> Dict[str, Any]:
        return {
            "digest": manifest.digest,
            "experiment_id": manifest.experiment_id,
            "params": manifest.params,
            "created_at": manifest.created_at,
            "wall_time_s": manifest.wall_time_s,
            "version": manifest.version,
        }

    def _load_index(self, *, repair: bool = False) -> Dict[str, Dict[str, Any]]:
        path = self.index_path
        if not path.is_file():
            if repair and (self.root / "objects").is_dir():
                self.reindex()
                return self._load_index()
            return {}
        try:
            data = json.loads(path.read_text())
            entries = data["entries"]
            if not isinstance(entries, dict):
                raise TypeError("entries must be an object")
        except (json.JSONDecodeError, KeyError, TypeError):
            if repair:
                self.reindex()
                return self._load_index()
            raise StoreError(f"corrupt store index at {path}") from None
        return entries

    def _write_index(self, entries: Dict[str, Dict[str, Any]]) -> None:
        write_json(
            {"schema": MANIFEST_SCHEMA, "entries": entries}, self.index_path
        )


def _package_version() -> str:
    from repro import __version__

    return __version__
