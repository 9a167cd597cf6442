"""Untimed fixtures for the benchmark: the toy checkpoint and the served model.

Both are built once per checkout into perfbench/.cache/ and reused; each is
written to a temporary name first and renamed, so an interrupted build never
leaves a half-written file behind.

- The checkpoint is the repository's checkpoints/toy2d.ckpt when that file
  exists. Otherwise scripts/make_checkpoint.py trains it (fit_toy_denoiser at
  seed 1337, about 30 s on one core). Either way its sha256 must equal
  CHECKPOINT_SHA256; every run checks it.
- The served model is the DMQ1 file that quantize_to_file exports for
  configs/w4a8.cfg at its own seed. Its cache name carries a hash of the
  package sources, the config and the checkpoint, so a code change builds a
  fresh one.

Builds run in a child process (scripts/make_checkpoint.py, or
`python3 fixture.py serve-model ROOT OUT`), so their memory never counts
towards the benchmark's peak RSS.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
CHECKPOINT_SHA256 = "b39ec81d30819a94d569b40dfc738cee973297a669bc5e126e34d61083fd6783"
BASE_CONFIG = "configs/w4a8.cfg"
BUILD_TIMEOUT_S = 600


class FixtureError(RuntimeError):
    """A fixture could not be built or failed its integrity check."""


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def checkpoint_path(root: Path) -> Path:
    bundled = root / "checkpoints" / "toy2d.ckpt"
    return bundled if bundled.is_file() else CACHE / "toy2d.ckpt"


def verify_checkpoint(path: Path) -> None:
    digest = sha256_of(path)
    if digest != CHECKPOINT_SHA256:
        raise FixtureError(f"{path}: sha256 {digest}, expected {CHECKPOINT_SHA256}")


def serve_model_path(root: Path) -> Path:
    h = hashlib.sha256()
    for src in sorted((root / "src" / "denoq").glob("*.py")):
        h.update(src.name.encode() + b"\0" + src.read_bytes())
    h.update((root / BASE_CONFIG).read_bytes())
    h.update(CHECKPOINT_SHA256.encode())
    return CACHE / f"serve-{h.hexdigest()[:16]}.dmq"


def _build(cmd: list, out: Path, env: dict) -> None:
    """Run cmd with a temporary output path appended; rename that file to out."""
    CACHE.mkdir(exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(
            cmd + [str(tmp)], env=env, timeout=BUILD_TIMEOUT_S, capture_output=True, text=True
        )
        if done.returncode != 0:
            raise FixtureError(f"building {out.name} failed:\n{done.stderr}")
        os.replace(tmp, out)
    finally:
        if tmp.exists():
            tmp.unlink()


def ensure(root: Path, env: dict, serve: bool) -> tuple[Path, Path | None]:
    """Build what is missing; return (checkpoint path, served model path or None)."""
    ckpt = checkpoint_path(root)
    if not ckpt.is_file():
        _build([sys.executable, str(root / "scripts" / "make_checkpoint.py"), "--out"], ckpt, env)
    verify_checkpoint(ckpt)
    model = None
    if serve:
        model = serve_model_path(root)
        if not model.is_file():
            _build([sys.executable, str(Path(__file__)), "serve-model", str(root)], model, env)
    return ckpt, model


def main(argv) -> int:
    """python3 fixture.py serve-model ROOT OUT: export the served DMQ1 file."""
    kind, root, out = argv[1], Path(argv[2]), Path(argv[3])
    if kind != "serve-model":
        raise SystemExit(f"unknown fixture {kind!r}")
    sys.path.insert(0, str(root / "src"))
    from denoq import pipeline

    config = dataclasses.replace(
        pipeline.parse_config(root / BASE_CONFIG), checkpoint=str(checkpoint_path(root))
    )
    pipeline.quantize_to_file(config, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
