"""Run manifests: enough provenance to replay any CLI run byte-for-byte.

Every subcommand writes a manifest recording its resolved parameters, the
root seed, input file digests, and the digest of every artifact it
produced. Primary artifacts (the ones replay must reproduce exactly)
are flagged; auxiliary ones (timing logs) are not.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .errors import DataError, InvariantViolation

__all__ = ["RunManifest", "file_digest", "write_json", "write_manifest", "read_manifest"]

TOOLKIT_VERSION = "0.1.0"


def file_digest(path: str | os.PathLike) -> str:
    sha = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                sha.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot digest {path}: {exc}") from exc
    return sha.hexdigest()


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int
    version: str = TOOLKIT_VERSION
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add_input(self, path: str | os.PathLike) -> None:
        self.inputs[str(path)] = file_digest(path)

    def add_output(self, path: str | os.PathLike, primary: bool = True) -> None:
        self.outputs.append(
            {"path": str(path), "sha256": file_digest(path), "primary": primary}
        )

    def primary_outputs(self) -> list[dict]:
        return [o for o in self.outputs if o["primary"]]


def write_json(path: str | os.PathLike, payload) -> None:
    """``payload`` as JSON with sorted keys, one-space indents and a final
    newline: the format of every JSON file the toolkit writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")


def write_manifest(manifest: RunManifest, path: str | os.PathLike) -> None:
    payload = {
        "command": manifest.command,
        "params": manifest.params,
        "seed": manifest.seed,
        "version": manifest.version,
        "inputs": manifest.inputs,
        "outputs": manifest.outputs,
        "timings": manifest.timings,
    }
    write_json(path, payload)


def read_manifest(path: str | os.PathLike) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    try:
        return RunManifest(
            command=payload["command"],
            params=payload["params"],
            seed=payload["seed"],
            version=payload.get("version", "unknown"),
            inputs=payload.get("inputs", {}),
            outputs=payload.get("outputs", []),
            timings=payload.get("timings", {}),
        )
    except KeyError as exc:
        raise DataError(f"manifest {path} is missing field {exc}") from exc


def verify_inputs(manifest: RunManifest) -> None:
    """Fail when a recorded input is missing or has changed on disk."""
    for path, digest in manifest.inputs.items():
        if not os.path.exists(path):
            raise DataError(f"replay input {path} no longer exists")
        actual = file_digest(path)
        if actual != digest:
            raise DataError(
                f"replay input {path} changed since the original run "
                f"(expected {digest[:12]}..., found {actual[:12]}...)"
            )


def verify_outputs(recorded: RunManifest, replayed: RunManifest) -> None:
    """Fail when a replay did not reproduce every primary output.

    Outputs are matched by their path relative to each run's ``out``
    parameter; a missing, extra or changed primary output is an
    InvariantViolation.
    """
    want, got = _primary_digests(recorded), _primary_digests(replayed)
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            raise InvariantViolation(
                f"replay did not reproduce primary output {name} "
                f"(recorded sha256 {want.get(name)}, replayed {got.get(name)})"
            )


def _primary_digests(manifest: RunManifest) -> dict:
    out_dir = manifest.params["out"]
    return {os.path.relpath(o["path"], out_dir): o["sha256"] for o in manifest.primary_outputs()}
