"""Fleet artifact packs: one versioned directory of warm-start plans.

An autotune *artifact* is one plan cache + its provenance manifest
(:mod:`repro.autotune.artifact`). A *pack* bundles any number of
artifacts into a single versioned directory the whole fleet boots
from::

    fleet-pack/
      pack.json              <- pack manifest: version, members, fingerprint
      spmm-sweep.json        <- member plan cache (schema-v2)
      spmm-sweep.manifest.json
      attn-sweep.json
      attn-sweep.manifest.json

``pack.json`` records a sha256 digest per member file and a pack-level
**fingerprint** (digest of the member digests), so "did every worker
load the same plans?" is one string comparison across the fleet, and a
truncated copy fails :meth:`FleetPack.verify` before a worker serves
from it. Packs are built by :func:`build_pack` (the ``repro fleet
pack`` CLI) and consumed by
:class:`~repro.fleet.pool.WorkerPool`, which hands every worker the
pack's plan paths as its ``open_engine(warm_start=...)`` list.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.autotune.artifact import (
    ArtifactManifest,
    _digest,
    git_describe,
    load_artifact,
    manifest_path,
)
from repro.errors import FleetError, PlanCacheError
from repro.ioutil import atomic_write_text
from repro.version import __version__

__all__ = ["FleetPack", "PackMember", "build_pack"]

#: pack manifest schema version (independent of artifact/plan schemas)
PACK_SCHEMA = 1

#: the pack manifest's fixed file name inside the pack directory
PACK_MANIFEST = "pack.json"


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


@dataclass(frozen=True)
class PackMember:
    """One plan-cache artifact inside a pack."""

    name: str          # member stem, e.g. "spmm-sweep"
    plans: str         # file name of the plan cache inside the pack
    manifest: str      # file name of its provenance manifest ("" if none)
    digest: str        # sha256[:12] of the plan-cache file
    plan_count: int    # plans in the cache at pack time

    def to_dict(self) -> dict:
        return {
            "name": self.name, "plans": self.plans,
            "manifest": self.manifest, "digest": self.digest,
            "plan_count": self.plan_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PackMember":
        return cls(
            name=str(d["name"]), plans=str(d["plans"]),
            manifest=str(d.get("manifest", "")),
            digest=str(d["digest"]), plan_count=int(d.get("plan_count", 0)),
        )


@dataclass
class FleetPack:
    """A loaded (or freshly built) fleet pack."""

    root: Path
    version: str = "0"
    git: str = "unknown"
    created_by: str = f"repro-fleet {__version__}"
    members: tuple[PackMember, ...] = ()
    schema: int = PACK_SCHEMA

    # -- identity --------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Digest over the member digests: equal packs serve equal plans."""
        return _digest([m.digest for m in sorted(self.members, key=lambda m: m.name)])

    @property
    def plan_count(self) -> int:
        return sum(m.plan_count for m in self.members)

    def plan_paths(self) -> list[Path]:
        """The member plan-cache files, in member order — exactly the
        list a worker passes to ``open_engine(warm_start=...)``."""
        return [self.root / m.plans for m in self.members]

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
            "git": self.git,
            "created_by": self.created_by,
            "fingerprint": self.fingerprint,
            "members": [m.to_dict() for m in self.members],
        }

    def save(self) -> Path:
        return atomic_write_text(
            self.root / PACK_MANIFEST,
            json.dumps(self.to_dict(), indent=2, sort_keys=True),
        )

    @classmethod
    def load(cls, root: "str | Path") -> "FleetPack":
        root = Path(root)
        path = root / PACK_MANIFEST
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FleetError(f"cannot read fleet pack {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FleetError(
                f"fleet pack {path} holds {type(payload).__name__}, not an object"
            )
        schema = payload.get("schema")
        if schema != PACK_SCHEMA:
            raise FleetError(
                f"unsupported fleet-pack schema {schema!r} "
                f"(supported: {PACK_SCHEMA})"
            )
        try:
            members = tuple(
                PackMember.from_dict(m) for m in payload.get("members", [])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed member entry in {path}: {exc}") from exc
        pack = cls(
            root=root,
            version=str(payload.get("version", "0")),
            git=str(payload.get("git", "unknown")),
            created_by=str(payload.get("created_by", "unknown")),
            members=members,
            schema=schema,
        )
        recorded = payload.get("fingerprint")
        if recorded is not None and recorded != pack.fingerprint:
            raise FleetError(
                f"fleet pack {root} fingerprint mismatch: manifest says "
                f"{recorded}, members hash to {pack.fingerprint}"
            )
        return pack

    # -- integrity -------------------------------------------------------
    def verify(self) -> list[str]:
        """Problems with the on-disk pack; empty list means intact.

        Checks every member file exists and still hashes to its recorded
        digest, and that each provenance manifest (when present) parses.
        Like :func:`~repro.autotune.artifact.check_drift` this *names*
        problems rather than raising, so callers choose the severity.
        """
        problems: list[str] = []
        for m in self.members:
            plans = self.root / m.plans
            if not plans.exists():
                problems.append(f"member {m.name!r}: missing plan file {m.plans}")
                continue
            digest = _file_digest(plans)
            if digest != m.digest:
                problems.append(
                    f"member {m.name!r}: plan file digest {digest} != "
                    f"recorded {m.digest} (corrupt or modified copy)"
                )
            if m.manifest:
                mpath = self.root / m.manifest
                if not mpath.exists():
                    problems.append(
                        f"member {m.name!r}: missing manifest {m.manifest}"
                    )
                else:
                    try:
                        ArtifactManifest.load(mpath)
                    except PlanCacheError as exc:
                        problems.append(f"member {m.name!r}: {exc}")
        return problems

    def summary(self) -> dict:
        """Small status dict for CLIs and the gateway's ``status()``."""
        return {
            "root": str(self.root),
            "version": self.version,
            "fingerprint": self.fingerprint,
            "members": len(self.members),
            "plans": self.plan_count,
        }


def build_pack(
    artifacts: Sequence["str | Path"],
    out: "str | Path",
    version: str = "0",
) -> FleetPack:
    """Copy plan-cache artifacts into ``out`` and write ``pack.json``.

    Each entry in ``artifacts`` is a plan-cache path (its sibling
    ``*.manifest.json`` rides along when present). Every artifact is
    parsed before it is admitted — a corrupt cache fails the build, not
    the fleet boot. Duplicate member stems are rejected: two files named
    ``plans.json`` from different directories would collide in the pack.
    """
    if not artifacts:
        raise FleetError("a fleet pack needs at least one plan-cache artifact")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    members: list[PackMember] = []
    seen: set[str] = set()
    for src in artifacts:
        src = Path(src)
        name = src.stem
        if name in seen:
            raise FleetError(
                f"duplicate pack member stem {name!r}: rename one of the "
                f"source artifacts before packing"
            )
        seen.add(name)
        try:
            cache, _manifest = load_artifact(src)
        except PlanCacheError as exc:
            raise FleetError(f"cannot pack artifact {src}: {exc}") from exc
        dst = out / src.name
        if src.resolve() != dst.resolve():
            shutil.copyfile(src, dst)
        src_manifest = manifest_path(src)
        manifest_name = ""
        if src_manifest.exists():
            dst_manifest = out / src_manifest.name
            if src_manifest.resolve() != dst_manifest.resolve():
                shutil.copyfile(src_manifest, dst_manifest)
            manifest_name = src_manifest.name
        members.append(PackMember(
            name=name, plans=src.name, manifest=manifest_name,
            digest=_file_digest(dst), plan_count=len(cache),
        ))
    pack = FleetPack(
        root=out, version=str(version), git=git_describe(),
        members=tuple(sorted(members, key=lambda m: m.name)),
    )
    pack.save()
    return pack
