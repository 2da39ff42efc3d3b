"""Content-addressed shard store for study artifacts.

Study results are a pure function of the spec's effective grid and the
shard grid — no wall clocks, no hostnames, byte-identical across worker
counts (the executor's determinism contract).  That makes them perfect
cache material: a dashboard re-running yesterday's study, a CI trend line
re-evaluating the same grid per commit, or a re-labelled copy of an
existing study should reuse bytes, not burn CPU recomputing them.

**Keying rule.**  A shard's content address is::

    sha256(canonical_json({
        "kind": "study-shard",
        "code_version": repro.__version__,
        "schema_version": <results.ARTIFACT_SCHEMA_VERSION>,
        "columns": <results.RESULT_COLUMNS>,
        "grid": spec.cache_identity(),   # effective axes + mc_trials + seed
        "shard_size": shard_size,
        "shard_index": shard_index,
    }))

Consequences, each load-bearing:

* the package version is inside the key, so a persistent cache directory
  shared across commits (dashboards, CI trend lines) can never serve
  numbers computed by *older model code* — a release that changes any
  model numerics must bump ``repro.__version__``, which retires every
  stale entry at once;

* the spec's display ``name`` is *not* hashed (``cache_identity``
  excludes it), so re-labelled studies over the same grid share shards;
* *effective* axis values are hashed, so an explicitly-spelled default
  (``"lps": [50]``) and an absent axis produce the same key;
* the column schema is inside the key, so changing the results dtype
  silently invalidates every old entry instead of mis-parsing it;
* ``shard_size`` is inside the key because it partitions the Monte-Carlo
  streams — the same grid at a different shard size is different bytes;
* the ``backend`` axis participates through the grid identity, so each
  backend's sub-grid caches independently of what else a spec sweeps.

The same payload with ``"kind": "study-columns"`` and no ``shard_index``
keys the grid's **columns entry**: the artifact's encoded ``"columns"``
object (see :func:`~repro.studies.results.encode_columns`), which depends
on the grid alone, so every later study of the grid — any display name —
splices it instead of formatting its floats again.  ``run_study`` never
writes it; :meth:`StudyResults.artifact_bytes
<repro.studies.results.StudyResults.artifact_bytes>` does, on the first
encode of a study whose every shard the cache served — a grid computed
before.  A study that computed any shard gets no entry: with a fresh
seed per study no later study would read it.  Grids of fewer than
:data:`COLUMNS_ENTRY_MIN_POINTS` points get no entry: encoding them again
is cheaper than a file.

Every key of one grid hashes the same canonical prefix (``code_version``,
``columns``, ``grid`` — the fields that sort before ``kind``) followed by
a short tail.  The prefix is serialized and hashed once per spec object
and shard size, and each key copies that hash state, so a study's shard
keys cost one ``cache_identity()`` serialization, not one each.  The
digests are the ones a whole-payload hash gives, so no stored entry is
orphaned.

Shard entries are raw structured-array bytes (``table.tobytes()``), read
straight into the study table's rows; a columns entry is an 8-byte
little-endian length followed by that many bytes of JSON.  Both are
written atomically (temp file + ``os.replace``); a torn, short or grown
entry is treated as a miss and rewritten.  Only shard loads count in
:meth:`StudyCache.stats`.  The store is safe for concurrent readers and
last-writer-wins for concurrent writers of the *same* key — both write
identical bytes by construction.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__ as _CODE_VERSION
from .._json import canonical_dumps
from ..exceptions import ValidationError
from .results import ARTIFACT_SCHEMA_VERSION, RESULT_COLUMNS, table_dtype, unfilled_table
from .spec import ScenarioSpec

__all__ = ["ColumnsEntry", "StudyCache", "study_key"]


class _GridKeys:
    """The content addresses of one grid at one shard size.

    A key payload is ``{code_version, columns, grid}`` — every field that
    sorts before ``kind`` — plus ``{kind, schema_version, shard_size, ...}``,
    whose fields all sort after ``grid``.  So its canonical JSON is the
    first part's text without the closing brace, a comma, and the second
    part's text without the opening brace: the first part is hashed once
    here and each key copies that state.
    """

    def __init__(self, spec: ScenarioSpec, shard_size: int) -> None:
        if shard_size < 1:
            raise ValidationError(f"shard_size must be >= 1, got {shard_size}")
        head = canonical_dumps({
            "code_version": _CODE_VERSION,
            "columns": [list(column) for column in RESULT_COLUMNS],
            "grid": spec.cache_identity(),
        })
        self._prefix = hashlib.sha256(head[:-1].encode("utf-8") + b",")
        self.shard_size = int(shard_size)

    def key(self, kind: str, **fields) -> str:
        """Hex sha256 of the ``kind`` payload with ``fields`` (named after ``grid``)."""
        tail = canonical_dumps({
            "kind": kind,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "shard_size": self.shard_size,
            **fields,
        })
        digest = self._prefix.copy()
        digest.update(tail[1:].encode("utf-8"))
        return digest.hexdigest()


#: Recently keyed grids, by ``(id(spec), shard_size)``.  Each value holds
#: its spec, so no id in the table can be reused by a new object.
_GRIDS: dict[tuple[int, int], tuple[ScenarioSpec, _GridKeys]] = {}
_GRIDS_HELD = 64
_GRIDS_LOCK = threading.Lock()


def _grid_keys(spec: ScenarioSpec, shard_size: int) -> _GridKeys:
    """The keys of ``spec``'s grid, serialized once per spec object."""
    slot = (id(spec), shard_size)
    with _GRIDS_LOCK:
        held = _GRIDS.get(slot)
    if held is not None:
        return held[1]
    keys = _GridKeys(spec, shard_size)
    with _GRIDS_LOCK:
        _GRIDS[slot] = (spec, keys)
        while len(_GRIDS) > _GRIDS_HELD:
            del _GRIDS[next(iter(_GRIDS))]
    return keys


def _write_atomic(path: Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` through a temp file and ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: Smaller grids get no columns entry: encoding them again costs less than
#: creating and reading a file (a 1-point study encodes in ~0.1 ms, and its
#: entry took ~2 ms to write inside a running server).
COLUMNS_ENTRY_MIN_POINTS = 1024

#: Bytes of the little-endian length that opens a columns entry.
_LENGTH_BYTES = 8


@dataclass(frozen=True)
class ColumnsEntry:
    """One grid's encoded ``"columns"`` object in a :class:`StudyCache`."""

    path: Path

    def load(self) -> bytes | None:
        """The stored columns JSON, or ``None`` when the entry is absent,
        torn, short or grown (its length header disagrees with its size)."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return None
        size = len(data) - _LENGTH_BYTES
        if size < 0 or int.from_bytes(data[:_LENGTH_BYTES], "little") != size:
            return None
        return data[_LENGTH_BYTES:]

    def store(self, columns: bytes) -> None:
        """Write the entry atomically; a failed write is ignored, as a
        failed shard store is — the artifact never depends on it."""
        try:
            _write_atomic(self.path, len(columns).to_bytes(_LENGTH_BYTES, "little"), columns)
        except OSError:
            pass


def study_key(spec: ScenarioSpec, shard_size: int) -> str:
    """The content address (hex sha256) of one whole study artifact.

    Hashes exactly what determines the artifact bytes: the spec's full
    canonical payload (``to_dict`` — unlike shard keys, the display
    ``name`` and the explicit-axes spelling are *included*, because both
    appear verbatim in the artifact's ``spec`` field), the shard grid
    (``shard_size`` partitions the Monte-Carlo streams), the column
    schema, and the code version.  The study service derives its job ids
    from this key, so submitting the same payload twice is the same job by
    construction and a response cache can never serve stale or mislabeled
    bytes — while a re-labelled copy of a known grid becomes a *new* job
    whose shards are all served from this cache.
    """
    return _grid_keys(spec, shard_size).key("study", spec=spec.to_dict())


class StudyCache:
    """A directory-backed content-addressed store of study shards.

    Parameters
    ----------
    root:
        Cache directory (created if absent).  Entries fan out into
        two-hex-character subdirectories to keep listings manageable.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    @staticmethod
    def shard_key(spec: ScenarioSpec, shard_size: int, shard_index: int) -> str:
        """The content address (hex sha256) of one shard of one grid."""
        return _grid_keys(spec, shard_size).key("study-shard", shard_index=int(shard_index))

    def shard_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.shard"

    def columns_entry(self, spec: ScenarioSpec, shard_size: int) -> ColumnsEntry | None:
        """Where ``spec``'s grid keeps its encoded ``"columns"`` object;
        None for a grid of fewer than :data:`COLUMNS_ENTRY_MIN_POINTS`."""
        if spec.num_points < COLUMNS_ENTRY_MIN_POINTS:
            return None
        key = _grid_keys(spec, shard_size).key("study-columns")
        return ColumnsEntry(self.root / key[:2] / f"{key}.columns")

    @staticmethod
    def _shard_rows(spec: ScenarioSpec, shard_size: int, shard_index: int) -> int:
        start = shard_index * shard_size
        stop = min(start + shard_size, spec.num_points)
        if not 0 <= start < spec.num_points:
            raise ValidationError(
                f"shard_index {shard_index} out of range for a "
                f"{spec.num_points}-point grid at shard_size {shard_size}"
            )
        return stop - start

    # ------------------------------------------------------------------ #
    # Load / store
    # ------------------------------------------------------------------ #
    def load_shard(
        self,
        spec: ScenarioSpec,
        shard_size: int,
        shard_index: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """The cached rows of one shard, or ``None`` on a miss.

        The entry is read straight into ``out`` when given — the shard's
        slice of a study table, say, which then needs no copy — and into a
        new array otherwise; on a miss ``out`` holds unspecified bytes.  A
        present-but-wrong-size entry (torn write, stale schema that
        slipped past the key — defense in depth) counts as a miss.
        """
        rows = self._shard_rows(spec, shard_size, shard_index)
        path = self.shard_path(self.shard_key(spec, shard_size, shard_index))
        if out is None:
            out = unfilled_table(rows)
        elif out.dtype != table_dtype() or out.shape != (rows,):
            raise ValidationError(
                f"shard buffer has dtype {out.dtype} / shape {out.shape}; "
                f"expected {rows} rows of the results dtype"
            )
        try:
            with open(path, "rb") as handle:
                whole = os.fstat(handle.fileno()).st_size == out.nbytes
                whole = whole and handle.readinto(out.view(np.uint8)) == out.nbytes
        except OSError:
            whole = False
        if not whole:
            self.misses += 1
            return None
        self.hits += 1
        return out

    def store_shard(
        self,
        spec: ScenarioSpec,
        shard_size: int,
        shard_index: int,
        table: np.ndarray,
    ) -> Path:
        """Write one computed shard under its content address (atomic)."""
        rows = self._shard_rows(spec, shard_size, shard_index)
        if table.dtype != table_dtype() or table.shape != (rows,):
            raise ValidationError(
                f"shard table has dtype {table.dtype} / shape {table.shape}; "
                f"expected {rows} rows of the results dtype"
            )
        path = self.shard_path(self.shard_key(spec, shard_size, shard_index))
        _write_atomic(path, table.tobytes())
        return path

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def stats(self) -> dict[str, int]:
        """Hit/miss counters accumulated over this cache object's lifetime."""
        return {"hits": self.hits, "misses": self.misses, "requests": self.requests}

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"StudyCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
