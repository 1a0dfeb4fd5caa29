"""Reproducibility manifests for CLI runs.

A manifest records what a command was asked to do (command name, hashes of
every input file, the parameter grid, output paths, tool version) and no
wall-clock data, so rerunning a command with identical inputs produces
byte-identical outputs including the manifest itself. The identity hash
covers all of it. The serialized "wall_time_s" key is always null; it stays
in the file schema for readers that expect it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ValidationError
from .sweeps import write_json


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise ValidationError(f"cannot hash input file {path}: {exc}")
    return h.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=str)


@dataclass
class RunManifest:
    command: str
    version: str
    inputs: dict[str, str] = field(default_factory=dict)    # path -> sha256
    parameters: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def add_input(self, path: str) -> None:
        self.inputs[path] = sha256_file(path)

    def _identity_payload(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "outputs": sorted(self.outputs),
        }

    def identity_hash(self) -> str:
        payload = _canonical(self._identity_payload())
        return hashlib.sha256(payload.encode()).hexdigest()

    def write(self, path: str) -> None:
        # "wall_time_s" is a schema key with no value: data files carry no
        # wall-clock values, which keeps reruns byte-identical.
        write_json(path, dict(self._identity_payload(),
                              identity=self.identity_hash(), wall_time_s=None))
