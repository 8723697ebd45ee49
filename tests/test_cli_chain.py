"""The CLI byte contract: ``synth → track → interp → tune → refine → score →
convert`` on fixed seeds, with every output file and each command's
stdout pinned by SHA-256.

The chain runs in a temporary working directory with relative paths, so
``convert``'s printed paths are the same on every machine.  NCC interpolation reads the rendered frames as
RGGB mosaics.  The digests were recorded once; a change that moves one
changes a byte of the CLI's output and must say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from icevision_kit.cli import EX_OK, main

SPEC = "frame_count = 30\nwidth = 320\nheight = 240\nsign_count = 3\n"
NOISE = ["--seed", "7", "--drop", "0.15", "--fp-per-frame", "0.4",
         "--jitter", "1.5", "--confusion", "0.3"]

STEPS = {
    "synth": ["synth", "--spec", "spec.cfg", *NOISE, "--annotations", "ann.txt",
              "--detections", "det.txt", "--render-dir", "render"],
    "track": ["track", "--detections", "det.txt", "--output", "tracks.txt",
              "--max-missed", "1", "--iou-threshold", "0.2"],
    "interp_linear": ["interp", "--tracks", "tracks.txt", "--output", "linear.txt"],
    "interp_ncc": ["interp", "--tracks", "tracks.txt", "--output", "ncc.txt",
                   "--manifest", "render/manifest.txt", "--pattern", "RGGB", "--margin", "12"],
    "interp_ncc_flat": ["interp", "--tracks", "tracks.txt", "--output", "ncc_flat.txt",
                        "--manifest", "render/manifest.txt", "--format", "detections"],
    "refine_linear": ["refine", "--tracks", "linear.txt", "--output", "refined_linear.txt"],
    "tune": ["tune", "--tracks", "ncc.txt", "--annotations", "ann.txt",
             "--grid-specific", "0.3,0.5,0.7", "--grid-level2", "0.4,0.6",
             "--grid-top", "0.5,0.8", "--output", "thresholds.txt"],
    "refine_ncc": ["refine", "--tracks", "ncc.txt", "--thresholds", "thresholds.txt",
                   "--output", "refined_ncc.txt"],
    "score": ["score", "--detections", "refined_ncc.txt", "--annotations", "ann.txt",
              "--stage", "online", "--output", "report.txt", "--records", "records.txt"],
    "convert": ["convert", "render/frame_000000.pgm", "render/frame_000017.pgm",
                "--output-dir", "rgb", "--pattern", "GBRG", "--equalize",
                "--crop-keep", "200"],
}

DIGESTS = {
    "stdout": "1ee3aa8ce79429c85ee2219774c617c3c5056211056c7c11fd8fb3c1aae58610",
    "ann.txt": "e3794ce1adc1683f15653312c52967f9608a2bad24a9d07964166f0912450050",
    "det.txt": "053619d4cc256c19dd2bedb7dc04fb9b4e0cf5b4febfd58df0b5a6e6329d1fcc",
    "render/manifest.txt": "a29f98744a44354a53f5eedc6b646a93f4aa0b06357a9cc1e1c76a9a7f83eca6",
    "render/*.pgm": "a0afc20066afe50ab1b1579594ae3cf6b37c5d8e81577a4d572c7f038912eca4",
    "tracks.txt": "9ea117d8ae7fdac8f7c2068a25103faa61225166b99a2a2b37717a61a28fc98a",
    "linear.txt": "9d97c7e8d4aac04c8fa48ffe904d7187ee48f31b38ca461975b1a428dbd9beb2",
    "ncc.txt": "9dc4a98e1fc415cd9cf75b49cce4c4ecd6380274e8cb38555f7accffccb32b46",
    "ncc_flat.txt": "72dfce5812927e95697dd67c70384b8486bb6a2ec27c21b4f362edfd60264bcb",
    "refined_linear.txt": "51078b3dea128068e33f6b94793a82a6d3293db020b90adb6a729eedf091cb28",
    "thresholds.txt": "c8a95947d8f4b0b9993b79b5d99bf8963a6693a1f0b3dacb86eacbf7a478f47d",
    "refined_ncc.txt": "9d190a0a86e2a979557f76d4cfe5a50cc304ee96d57a2afa35646c2895a636d1",
    "report.txt": "bc8fd24a0d0e396de7c263af18ea548b19a3c0d94b137cffbf8b7f443c613737",
    "records.txt": "b00fceb96d41d88550677f1d99bc6470609debd91bfe58ec6608ffd34eaeac22",
    "rgb/frame_000000.ppm": "6b9979ab9c77690eded2f17b6955d469ab448b4f0aacb11441d7ecf39fbd14ba",
    "rgb/frame_000017.ppm": "d845773bbefb7bcce28968ef32e9af9c8c258b36bb7137b01b4512de234c6918",
}


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Run every step once; returns (workdir, concatenated stdout)."""
    workdir = tmp_path_factory.mktemp("chain")
    (workdir / "spec.cfg").write_text(SPEC)
    stdout = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for name, argv in STEPS.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            assert code == EX_OK, name
            stdout.append(f"{name}\n{buffer.getvalue()}")
    return workdir, "".join(stdout)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(chain, name):
    workdir, stdout = chain
    if name == "stdout":
        actual = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    else:
        paths = sorted(workdir.glob(name))
        assert paths, name
        actual = _sha256(*paths)
    assert actual == DIGESTS[name]
