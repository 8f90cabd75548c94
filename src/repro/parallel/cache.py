"""Content-addressed cache for traces and feature matrices.

Cache keys are the SHA-256 digest of the *canonical configuration JSON*
plus a code schema version, so a cache hit means "this exact config under
this exact code generation" — changing any simulation knob, the seed, or
the feature-building parameters changes the key, and bumping
:data:`CACHE_SCHEMA_VERSION` after a content-affecting code change
invalidates every stale entry at once instead of serving wrong data.

A trace entry is a segment store directory (:meth:`ContentCache.store_path`;
the store's own manifest, checksums and healing live in
:mod:`repro.store`).  Feature entries use the hardened IO primitives of
:mod:`repro.utils.io`: archives are written atomically (temp + rename)
and every entry carries a SHA-256 checksum in a JSON manifest, so
concurrent writers (parallel experiment workers racing to populate the
same entry) and crashes can never leave a half-written entry that a
later read would accept.  A corrupt entry is never fatal — it is
reported as a :class:`DegradedDataWarning` and the caller recomputes.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from repro.features.builder import FeatureMatrix
from repro.features.schema import FeatureSchema
from repro.telemetry.config import TraceConfig
from repro.telemetry.trace import config_to_dict
from repro.utils.errors import DegradedDataWarning, ReproError, TraceIOError
from repro.utils.io import atomic_write, atomic_write_text, sha256_bytes, sha256_file

__all__ = ["CACHE_SCHEMA_VERSION", "ContentCache", "config_digest"]

#: Bump whenever a code change alters trace or feature *content* for an
#: unchanged config (RNG restructuring, new feature columns, ...).
CACHE_SCHEMA_VERSION = 2


def config_digest(config: TraceConfig, *, extra: dict | None = None) -> str:
    """Hex digest identifying ``config`` (+ optional extra parameters).

    The digest covers the canonical JSON form of the full configuration,
    the cache schema version, and any ``extra`` dict (e.g. feature-builder
    parameters), serialized with sorted keys so dict ordering can never
    perturb the key.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "extra": extra or {},
    }
    return sha256_bytes(json.dumps(payload, sort_keys=True).encode())[:20]


class ContentCache:
    """Content-addressed trace/feature store rooted at one directory."""

    def __init__(self, root: Path | str) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def store_path(self, config: TraceConfig) -> Path:
        """Directory of ``config``'s trace, a segment store.

        Keyed like :meth:`features_path`, so a trace and the feature
        matrices built from it invalidate together on schema bumps.
        """
        return self._root / f"store-{config_digest(config)}"

    # ------------------------------------------------------------------
    # Feature matrices
    # ------------------------------------------------------------------
    def features_path(self, config: TraceConfig, **params) -> Path:
        """Entry path (no suffix) for ``config``'s feature matrix."""
        return self._root / f"features-{config_digest(config, extra=params)}"

    def load_features(self, config: TraceConfig, **params) -> FeatureMatrix | None:
        """The cached feature matrix, or ``None`` (warns when corrupt)."""
        path = self.features_path(config, **params)
        manifest_path = path.with_suffix(".json")
        npz_path = path.with_suffix(".npz")
        if not manifest_path.exists() or not npz_path.exists():
            return None
        try:
            return self._read_features(manifest_path, npz_path)
        except (ReproError, OSError, ValueError, KeyError) as exc:
            warnings.warn(
                f"feature cache is unreadable ({exc}); recomputing",
                DegradedDataWarning,
                stacklevel=2,
            )
            return None

    def _read_features(self, manifest_path: Path, npz_path: Path) -> FeatureMatrix:
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise TraceIOError(manifest_path, f"bad manifest JSON: {exc}") from exc
        expected = manifest.get("checksum")
        if expected:
            actual = sha256_file(npz_path)
            if actual != expected:
                raise TraceIOError(
                    npz_path,
                    f"feature archive checksum mismatch: "
                    f"expected {expected}, actual {actual}",
                )
        schema = FeatureSchema()
        for name in manifest["schema"]["names"]:
            schema.add(name, *manifest["schema"]["tags"][name])
        with np.load(npz_path) as data:
            X = data["X"]
            y = data["y"]
            meta = {
                key.split("/", 1)[1]: data[key]
                for key in data.files
                if key.startswith("meta/")
            }
        return FeatureMatrix(X=X, y=y, schema=schema, meta=meta)

    def store_features(
        self, config: TraceConfig, features: FeatureMatrix, **params
    ) -> Path:
        """Write ``features`` under its content key; returns the entry path."""
        path = self.features_path(config, **params)
        npz_path = path.with_suffix(".npz")
        arrays: dict[str, np.ndarray] = {"X": features.X, "y": features.y}
        for name, col in features.meta.items():
            arrays[f"meta/{name}"] = col
        with atomic_write(npz_path) as tmp:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **arrays)
        manifest = {
            "checksum": sha256_file(npz_path),
            "schema": {
                "names": list(features.schema.names),
                "tags": {
                    name: sorted(tags) for name, tags in features.schema.tags.items()
                },
            },
            "params": params,
        }
        atomic_write_text(path.with_suffix(".json"), json.dumps(manifest, indent=2))
        return path
