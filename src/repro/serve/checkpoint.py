"""Periodic checkpointing for :func:`repro.serve.replay.serve_replay`.

A replay killed mid-stream (node reboot, preemption, the driver's own
``--crash-after`` test hook) must be resumable without changing the
answer: the resumed run has to produce *bit-identical* final metrics and
digest to an uninterrupted run.  The store here gives that a commit
protocol built on :mod:`repro.utils.io`:

* the state bundle (for a replay, its one
  :class:`~repro.serve.replay.ReplayController`) is pickled to
  ``ckpt-<events:08d>.pkl`` via an atomic temp-then-rename write, then
* a sibling ``ckpt-<events:08d>.json`` manifest (format version, event
  cursor, payload checksum, and a *compatibility key* hashing every
  replay parameter plus the trace fingerprint and chaos plan) is written
  last — the manifest is the commit point, mirroring the model
  registry's payload-then-manifest ordering.

:meth:`CheckpointManager.latest` therefore never observes a
half-written checkpoint: versions without a manifest, with a corrupt
manifest, or whose payload fails its checksum are skipped with a
:class:`DegradedDataWarning` and the newest *valid* checkpoint wins.
A compatibility-key mismatch on resume (different split, model, chaos
plan, or trace) is a hard :class:`ValidationError` — resuming somebody
else's checkpoint would silently corrupt the metrics.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.utils.errors import DegradedDataWarning, ValidationError
from repro.utils.io import (
    atomic_write_json,
    atomic_write_pickle,
    read_pickle_checked,
)

__all__ = ["CheckpointManager", "CheckpointInfo", "CHECKPOINT_FORMAT"]

#: Bump when the pickled state bundle's layout changes incompatibly
#: (3: the replay controller object replaced format 2's state dict;
#: 4: the streaming engine's history indices, pending runs and emitted
#: rows changed layout).
CHECKPOINT_FORMAT = 4

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.json$")


@dataclass(frozen=True)
class CheckpointInfo:
    """One committed checkpoint: manifest fields plus its payload path."""

    events_done: int
    key: str
    checksum: str
    payload: Path

    def load(self):
        """Unpickle the state bundle, verifying the payload checksum."""
        return read_pickle_checked(self.payload, checksum=self.checksum)


class CheckpointManager:
    """Atomic, checksummed checkpoint store under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _payload_path(self, events_done: int) -> Path:
        return self.root / f"ckpt-{events_done:08d}.pkl"

    def _manifest_path(self, events_done: int) -> Path:
        return self.root / f"ckpt-{events_done:08d}.json"

    # ------------------------------------------------------------------
    def save(self, events_done: int, state, *, key: str) -> CheckpointInfo:
        """Commit one checkpoint at event cursor ``events_done``.

        ``key`` is the replay's compatibility key; :meth:`load_latest`
        refuses checkpoints whose key differs from the resuming run's.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        payload = self._payload_path(events_done)
        checksum = atomic_write_pickle(payload, state)
        atomic_write_json(
            self._manifest_path(events_done),
            {
                "format": CHECKPOINT_FORMAT,
                "events_done": int(events_done),
                "key": key,
                "checksum": checksum,
            },
        )
        return CheckpointInfo(
            events_done=int(events_done), key=key, checksum=checksum, payload=payload
        )

    # ------------------------------------------------------------------
    def list_checkpoints(self) -> list[CheckpointInfo]:
        """All committed, intact checkpoints, oldest first.

        Manifests that are unreadable, structurally wrong, or from a
        different format version — and manifests whose payload file is
        missing — are skipped with a :class:`DegradedDataWarning`, not
        raised: a crash between payload and manifest writes must not
        wedge every later resume.
        """
        if not self.root.is_dir():
            return []
        infos: list[CheckpointInfo] = []
        for child in sorted(self.root.iterdir()):
            match = _CKPT_RE.match(child.name)
            if match is None:
                continue
            try:
                manifest = json.loads(child.read_text())
                events_done = int(manifest["events_done"])
                key = str(manifest["key"])
                checksum = str(manifest["checksum"])
                fmt = int(manifest["format"])
            except (OSError, ValueError, KeyError, TypeError):
                warnings.warn(
                    f"skipping corrupt checkpoint manifest {child.name}",
                    DegradedDataWarning,
                    stacklevel=2,
                )
                continue
            if fmt != CHECKPOINT_FORMAT or events_done != int(match.group(1)):
                warnings.warn(
                    f"skipping incompatible checkpoint {child.name} "
                    f"(format {fmt})",
                    DegradedDataWarning,
                    stacklevel=2,
                )
                continue
            payload = self._payload_path(events_done)
            if not payload.is_file():
                warnings.warn(
                    f"skipping checkpoint {child.name}: payload missing",
                    DegradedDataWarning,
                    stacklevel=2,
                )
                continue
            infos.append(
                CheckpointInfo(
                    events_done=events_done,
                    key=key,
                    checksum=checksum,
                    payload=payload,
                )
            )
        return infos

    def latest(self) -> CheckpointInfo | None:
        """The newest intact checkpoint, or ``None``."""
        infos = self.list_checkpoints()
        return infos[-1] if infos else None

    def load_latest(self, *, expected_key: str):
        """Load the newest checkpoint's state bundle for a resume.

        Returns ``(events_done, state)``.  Raises
        :class:`ValidationError` when no checkpoint exists or the
        newest one was written by an incompatible replay configuration.
        """
        info = self.latest()
        if info is None:
            raise ValidationError(
                f"no checkpoint found under {self.root}; nothing to resume"
            )
        if info.key != expected_key:
            raise ValidationError(
                "checkpoint was written by an incompatible replay "
                "(different split/model/chaos plan/trace); refusing to resume"
            )
        return info.events_done, info.load()

    # ------------------------------------------------------------------
    def prune(self, *, keep_last: int = 3) -> int:
        """Delete all but the newest ``keep_last`` checkpoints."""
        infos = self.list_checkpoints()
        removed = 0
        for info in infos[: max(len(infos) - keep_last, 0)]:
            self._manifest_path(info.events_done).unlink(missing_ok=True)
            info.payload.unlink(missing_ok=True)
            removed += 1
        return removed
