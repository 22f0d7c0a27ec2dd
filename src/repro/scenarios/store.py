"""Schema-versioned run manifests under ``results/``.

Every scenario execution can be recorded as one JSON manifest carrying
the full spec (round-trippable), the resolved config, a spec hash, the
git revision, and the per-cell aggregate metrics — enough to answer
"what exactly produced these numbers?" months later, and enough to
re-run the experiment from the manifest alone
(``Scenario.from_dict(manifest.scenario)``).

Layout::

    results/runs/<scenario-name>/<run_id>.json

``run_id`` is ``<utc-timestamp>-<spec-hash-prefix>`` with a numeric
suffix on collision, so repeated runs sort chronologically.  A manifest
is written to ``<run_id>.json.tmp``, fsynced and renamed into place, so
a killed run leaves at most a stale ``*.tmp`` that no reader lists.

Since schema 2 a manifest carries a ``checksum``: the SHA-256 of its
own encoding without that field.  The loader recomputes it from what it
parsed and refuses a file whose content and checksum disagree, so a
flipped bit or a cut file is a :class:`~repro.errors.ResultsStoreError`
or loads the same manifest (a flip in whitespace), never a silently
different number.  Schema-1 manifests (no checksum) still
load.

Cell rows are additive: read-serving metrics (``reads_mean``,
``read_amplification_mean``, ``bloom_fp_rate_mean``, ...) joined the
write-cost keys without a schema bump — added keys are backwards
compatible, and the loader does not validate cell contents.  The
merge executor and write pipeline keys left the same way; their config
fields are dropped when an old manifest's spec is rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Optional

from ..errors import ResultsStoreError

#: Bump on any backwards-incompatible manifest change; the loader
#: refuses newer-versioned manifests instead of misreading them.
SCHEMA_VERSION = 2

DEFAULT_STORE_ROOT = Path("results") / "runs"

#: The JSON type each manifest field must hold.  The listing sorts on
#: ``created_at`` and ``run_id``, so a wrong type there would take every
#: sibling down with it; the loader refuses it instead.
_FIELD_TYPES = {
    "run_id": str,
    "scenario": dict,
    "spec_hash": str,
    "config": dict,
    "runs": int,
    "jobs": int,
    "fast": bool,
    "created_at": str,
    "cells": list,
    "git": str,
    "plane_used": str,
}
#: Fields older manifests lack or hold as null.
_OPTIONAL_FIELDS = frozenset({"git", "plane_used"})
_TYPE_NAMES = {
    str: "a string",
    dict: "an object",
    list: "a list",
    int: "an integer",
    bool: "a boolean",
}


def _encode(document: dict[str, Any]) -> bytes:
    """A manifest file's bytes: the one encoding the writer makes."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _checksum(document: dict[str, Any]) -> str:
    """SHA-256 of ``document``'s encoding without its ``checksum`` field."""
    body = {name: value for name, value in document.items() if name != "checksum"}
    return hashlib.sha256(_encode(body)).hexdigest()


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, or None."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


@dataclass(frozen=True)
class RunManifest:
    """One stored scenario execution."""

    run_id: str
    scenario: dict[str, Any]  # full Scenario.to_dict() spec
    spec_hash: str
    config: dict[str, Any]    # resolved base config (fast/CLI overrides applied)
    runs: int
    jobs: int
    fast: bool
    created_at: str
    cells: list[dict[str, Any]]
    git: Optional[str] = None
    #: Data plane phase 1 ran on: "fast" for every run this build makes
    #: ("reference" in manifests from builds that could force it; None
    #: in manifests written before the field existed).  Each ``cells``
    #: row carries the same key.
    plane_used: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    path: Optional[Path] = field(default=None, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "scenario": self.scenario,
            "spec_hash": self.spec_hash,
            "config": self.config,
            "runs": self.runs,
            "jobs": self.jobs,
            "fast": self.fast,
            "created_at": self.created_at,
            "git": self.git,
            "plane_used": self.plane_used,
            "cells": self.cells,
        }


class ResultsStore:
    """Writes and reads :class:`RunManifest` JSON files."""

    def __init__(self, root: Path | str = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, run: "ScenarioRun") -> Path:  # noqa: F821 (runner import cycle)
        """Persist one executed scenario; returns the manifest path."""
        scenario = run.scenario
        spec_hash = scenario.spec_hash()
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        manifest = RunManifest(
            run_id="",  # filled below once the filename is reserved
            scenario=scenario.to_dict(),
            spec_hash=spec_hash,
            config=run.config.to_dict(),
            runs=run.runs,
            jobs=run.jobs,
            fast=run.fast,
            created_at=created_at,
            git=git_describe(),
            plane_used=run.plane_used,
            cells=run.cells(),
        )
        directory = self.root / scenario.name
        directory.mkdir(parents=True, exist_ok=True)
        stamp = created_at.replace(":", "").replace("+0000", "Z")
        base = f"{stamp}-{spec_hash[:8]}"
        run_id, path = base, directory / f"{base}.json"
        suffix = 1
        while path.exists():
            run_id = f"{base}-{suffix}"
            path = directory / f"{run_id}.json"
            suffix += 1
        document = manifest.to_dict()
        document["run_id"] = run_id
        document["checksum"] = _checksum(document)
        temporary = path.with_name(path.name + ".tmp")
        with open(temporary, "wb") as file:
            file.write(_encode(document))
            file.flush()
            os.fsync(file.fileno())
        os.replace(temporary, path)
        return path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, path: Path | str) -> RunManifest:
        path = Path(path)
        try:
            document = json.loads(path.read_bytes().decode("utf-8"))
        except OSError as exc:
            raise ResultsStoreError(f"cannot read manifest {path}: {exc}") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ResultsStoreError(f"corrupt manifest {path}: {exc}") from None
        if not isinstance(document, dict):
            raise ResultsStoreError(
                f"corrupt manifest {path}: expected a JSON object, "
                f"got {type(document).__name__}"
            )
        version = document.get("schema_version")
        if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
            raise ResultsStoreError(
                f"manifest {path} has schema_version {version!r}; this build "
                f"reads versions 1..{SCHEMA_VERSION}"
            )
        for name, kind in _FIELD_TYPES.items():
            value = document.get(name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            if name not in document:
                raise ResultsStoreError(
                    f"manifest {path} is missing required field {name!r}"
                )
            # json.loads builds exact types, so `type is` also keeps a
            # bool out of the int fields.
            if type(value) is not kind:
                raise ResultsStoreError(
                    f"corrupt manifest {path}: {name} is not {_TYPE_NAMES[kind]}"
                )
        if version >= 2 and document.get("checksum") != _checksum(document):
            raise ResultsStoreError(
                f"corrupt manifest {path}: its content does not match its checksum"
            )
        return RunManifest(
            **{name: document.get(name) for name in _FIELD_TYPES},
            schema_version=version,
            path=path,
        )

    def manifests(self, scenario: Optional[str] = None) -> Iterator[RunManifest]:
        """All readable manifests (optionally for one scenario), oldest
        first.  One unreadable sibling does not take the listing down:
        it is skipped with a warning naming its path."""
        if not self.root.is_dir():
            return
        directories = (
            [self.root / scenario] if scenario is not None
            else sorted(d for d in self.root.iterdir() if d.is_dir())
        )
        for directory in directories:
            if not directory.is_dir():
                continue
            loaded = []
            for path in directory.glob("*.json"):
                try:
                    loaded.append(self.load(path))
                except ResultsStoreError as exc:
                    warnings.warn(f"skipping unreadable manifest: {exc}")
            # Sort on content, not filenames: a same-second collision
            # suffix ("...-1.json") sorts lexicographically *before* the
            # unsuffixed base ('-' < '.'), which would flip the order.
            # len() before the id itself keeps "-2" < "-10".
            loaded.sort(
                key=lambda m: (m.created_at, len(m.run_id), m.run_id)
            )
            yield from loaded

    def latest(self, scenario: str) -> Optional[RunManifest]:
        """The most recent manifest for one scenario, or None."""
        manifest = None
        for manifest in self.manifests(scenario):
            pass
        return manifest
