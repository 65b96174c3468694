"""Seeded benchmark inputs, stored as REPROBIN files and pinned by checksum.

Each input is generated once per (spec, seed) into the benchmark's data
directory, outside every timed region.  A sidecar JSON records the
content checksum taken at generation; every later run recomputes it from
the file and refuses a mismatch.  The generators themselves are pinned
too: before the first generation in a checkout, the spec is generated at
its pinned seed and compared with ``pins.json``, so an edit to
``repro.generators`` that changes what both commits would measure stops
the benchmark instead of silently moving its inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: Input specs by name.  ``powerlaw`` is shared by both CP-ALS workloads
#: (in RAM and out of core); ``kronecker`` feeds the paper-suite pass.
SPECS: Dict[str, Dict[str, object]] = {
    "powerlaw": {
        "generator": "powerlaw_tensor",
        "shape": [20000, 20000, 20000],
        "nnz": 400_000,
        "alpha": 1.3,
    },
    "kronecker": {
        "generator": "kronecker_tensor",
        "shape": [1024, 1024, 1024],
        "nnz": 60_000,
    },
    "powerlaw-tiny": {
        "generator": "powerlaw_tensor",
        "shape": [2000, 2000, 2000],
        "nnz": 6_000,
        "alpha": 1.3,
    },
    "kronecker-tiny": {
        "generator": "kronecker_tensor",
        "shape": [256, 256, 256],
        "nnz": 3_000,
    },
}


class InputError(RuntimeError):
    """An input or a generator does not match its recorded checksum."""


def generate(spec_name: str, seed: int):
    """The in-RAM COO tensor of ``spec_name`` at ``seed``."""
    import repro

    spec = SPECS[spec_name]
    shape = tuple(spec["shape"])
    if spec["generator"] == "powerlaw_tensor":
        return repro.powerlaw_tensor(
            shape, int(spec["nnz"]), alpha=float(spec["alpha"]), seed=seed
        )
    return repro.kronecker_tensor(shape, int(spec["nnz"]), seed=seed)


def content_checksum(tensor) -> str:
    """sha256 over shape, int64 coordinates and float32 values."""
    digest = hashlib.sha256()
    digest.update(json.dumps(list(tensor.shape)).encode())
    digest.update(np.ascontiguousarray(tensor.indices, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(tensor.values, dtype="<f4").tobytes())
    return digest.hexdigest()


def _pins() -> Dict[str, Dict[str, object]]:
    return json.loads(PINS_PATH.read_text())


def check_generator(spec_name: str, data_dir: Path) -> None:
    """Compare the generator's output at the pinned seed with ``pins.json``.

    Done once per data directory (a marker records the pass), because it
    costs one generation.  Raises :class:`InputError` on a mismatch.
    """
    pin = _pins()[spec_name]
    marker = data_dir / f"{spec_name}.pin-ok"
    if marker.exists() and marker.read_text().strip() == pin["sha256"]:
        return
    got = content_checksum(generate(spec_name, int(pin["seed"])))
    if got != pin["sha256"]:
        raise InputError(
            f"repro.generators changed: input {spec_name!r} at pinned seed "
            f"{pin['seed']} hashes to {got}, pins.json records {pin['sha256']}"
        )
    marker.write_text(pin["sha256"] + "\n")


def ensure_input(spec_name: str, seed: int, data_dir: Path) -> Tuple[Path, str]:
    """Path and checksum of the input, generating it on first use."""
    from repro.io.binfile import write_coo

    data_dir.mkdir(parents=True, exist_ok=True)
    path = data_dir / f"{spec_name}-s{seed}.reprobin"
    meta_path = path.with_suffix(".json")
    if not (path.exists() and meta_path.exists()):
        check_generator(spec_name, data_dir)
        tensor = generate(spec_name, seed)
        tmp = path.with_suffix(".tmp")
        write_coo(tensor, tmp)
        os.replace(tmp, path)
        meta = {"spec": SPECS[spec_name], "seed": seed,
                "sha256": content_checksum(tensor)}
        meta_path.write_text(json.dumps(meta, indent=1) + "\n")
    return path, json.loads(meta_path.read_text())["sha256"]


def load_verified(path: Path, expected: str):
    """Load a REPROBIN input in RAM and check its recorded checksum."""
    from repro.io.binfile import open_bin

    with open_bin(path, verify=True) as mapped:
        tensor = mapped.to_coo()
    got = content_checksum(tensor)
    if got != expected:
        raise InputError(f"{path.name}: content hashes to {got}, recorded {expected}")
    return tensor
