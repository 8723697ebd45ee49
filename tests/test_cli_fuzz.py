"""Truncated and byte-flipped input files through every CLI subcommand that
reads them, every output pointed where it cannot be written, and a NUL byte
in any path argument: the exit code stays one of the documented ones and no
exception escapes ``main``."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icevision_kit.cli import EX_MALFORMED_INPUT, EX_MISSING_INPUT, EX_OK, EX_USAGE, main

DOCUMENTED_EXITS = {EX_OK, EX_MISSING_INPUT, EX_MALFORMED_INPUT, EX_USAGE}
FRAME = "frame_000003.pgm"
GRID = ["--grid-specific", "0.5", "--grid-level2", "0.5", "--grid-top", "0.5"]

# each input kind -> the argv tails that read it; X is the mutated file, R the
# manifest of a copy of the rendered frames with the mutated file in it under its
# own name, O an output path, and the other names are the valid files in the base dir
COMMANDS = {
    "detections": [
        ["score", "--detections", "X", "--annotations", "ann.txt"],
        ["track", "--detections", "X", "--output", "O"],
    ],
    "annotations": [
        ["score", "--detections", "det.txt", "--annotations", "X"],
        ["tune", "--tracks", "tracks.txt", "--annotations", "X", *GRID],
    ],
    "tracks": [
        ["interp", "--tracks", "X", "--output", "O", "--format", "detections"],
        ["interp", "--tracks", "X", "--output", "O", "--manifest", "render/manifest.txt"],
        ["refine", "--tracks", "X", "--output", "O"],
        ["tune", "--tracks", "X", "--annotations", "ann.txt", *GRID],
    ],
    "manifest": [
        ["interp", "--tracks", "tracks.txt", "--output", "O", "--manifest", "R"],
    ],
    "frame": [
        ["convert", "X", "--output-dir", "O"],
        ["interp", "--tracks", "tracks.txt", "--output", "O", "--manifest", "R",
         "--pattern", "RGGB"],
    ],
    "spec": [
        ["synth", "--spec", "X", "--annotations", "O", "--detections", "O"],
        ["bench", "--spec", "X"],
    ],
    "thresholds": [
        ["refine", "--tracks", "tracks.txt", "--output", "O", "--thresholds", "X"],
    ],
}
# every subcommand that writes, with O in the place of one of its outputs and
# A a writable path for another
WRITERS = [
    ["score", "--detections", "det.txt", "--annotations", "ann.txt", "--output", "O"],
    ["score", "--detections", "det.txt", "--annotations", "ann.txt", "--records", "O"],
    ["track", "--detections", "det.txt", "--output", "O"],
    ["interp", "--tracks", "tracks.txt", "--output", "O"],
    ["interp", "--tracks", "tracks.txt", "--output", "O", "--format", "detections"],
    ["interp", "--tracks", "tracks.txt", "--output", "O", "--manifest", "render/manifest.txt"],
    ["refine", "--tracks", "tracks.txt", "--output", "O"],
    ["tune", "--tracks", "tracks.txt", "--annotations", "ann.txt", *GRID, "--output", "O"],
    ["convert", f"render/{FRAME}", "--output-dir", "O"],
    ["synth", "--spec", "scenario.cfg", "--annotations", "O"],
    ["synth", "--spec", "scenario.cfg", "--annotations", "A", "--detections", "O"],
    ["synth", "--spec", "scenario.cfg", "--annotations", "A", "--render-dir", "O"],
    ["bench", "--spec", "scenario.cfg", "--records", "O"],
]
# inputs that parse record by record but that no byte flip is likely to make
CRAFTED = {
    # a track with no detected entry to densify or average
    "tracks": ["icevision-kit/v1 tracks\n0 3 interpolated 1 1 9 9 3.24:0.9 - - -\n"],
}
SOURCES = {
    "detections": "det.txt",
    "annotations": "ann.txt",
    "tracks": "tracks.txt",
    "manifest": "render/manifest.txt",
    "frame": f"render/{FRAME}",
    "spec": "scenario.cfg",
    "thresholds": "thresholds.txt",
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """A small synthetic sequence on disk: spec, annotations, detections,
    rendered frames with a manifest, tracks and thresholds."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "scenario.cfg").write_text(
        "frame_count = 12\nwidth = 80\nheight = 80\nsign_count = 2\n"
    )
    (root / "thresholds.txt").write_text("0.500000 0.400000 0.300000\n")
    argv = ["synth", "--spec", str(root / "scenario.cfg"), "--seed", "3",
            "--annotations", str(root / "ann.txt"), "--detections", str(root / "det.txt"),
            "--jitter", "1", "--render-dir", str(root / "render")]
    assert _run(argv)[0] == EX_OK
    argv = ["track", "--detections", str(root / "det.txt"), "--output", str(root / "tracks.txt")]
    assert _run(argv)[0] == EX_OK
    return root


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(COMMANDS)),
    truncate=st.booleans(),
    where=st.floats(0.0, 1.0),
    value=st.integers(0, 255),
)
def test_mutated_inputs_exit_cleanly(base, kind, truncate, where, value):
    data = bytearray((base / SOURCES[kind]).read_bytes())
    pos = min(int(where * len(data)), len(data) - 1)
    if truncate:
        del data[pos:]
    else:
        data[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mutated = tmp / Path(SOURCES[kind]).name
        mutated.write_bytes(bytes(data))
        frames_root = tmp / "frames"
        shutil.copytree(base / "render", frames_root)
        (frames_root / mutated.name).write_bytes(bytes(data))
        for i, tail in enumerate(COMMANDS[kind]):
            names = {"X": str(mutated), "O": str(tmp / f"out{i}"),
                     "R": str(frames_root / "manifest.txt")}
            argv = [names.get(a) or (str(base / a) if (base / a).exists() else a) for a in tail]
            code, err = _run(argv)
            assert code in DOCUMENTED_EXITS, (argv, code, err)
            assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize(
    "kind, text", [(kind, text) for kind, texts in CRAFTED.items() for text in texts]
)
def test_crafted_inputs_exit_cleanly(base, tmp_path, kind, text):
    crafted = tmp_path / Path(SOURCES[kind]).name
    crafted.write_text(text)
    for i, tail in enumerate(COMMANDS[kind]):
        names = {"X": str(crafted), "O": str(tmp_path / f"out{i}")}
        argv = [names.get(a) or (str(base / a) if (base / a).exists() else a) for a in tail]
        code, err = _run(argv)
        assert code == EX_MALFORMED_INPUT, (argv, code, err)
        assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("where", ["existing directory", "under a missing directory"])
@pytest.mark.parametrize("tail", WRITERS, ids=lambda tail: f"{tail[0]} {tail[tail.index('O') - 1]}")
def test_unwritable_outputs_exit_cleanly(base, tail, where):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if where == "existing directory":
            out = tmp / "out"
            out.mkdir()
        else:
            out = tmp / "missing" / "out"
        names = {"O": str(out), "A": str(tmp / "ann.txt")}
        argv = [names.get(a) or (str(base / a) if (base / a).exists() else a) for a in tail]
        code, err = _run(argv)
        assert code in DOCUMENTED_EXITS, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert list(tmp.rglob("*.tmp")) == [], argv


ARGVS = [(kind, tail) for kind, tails in COMMANDS.items() for tail in tails]
ARGVS += [(None, tail) for tail in WRITERS]


@pytest.mark.parametrize("kind, tail", ARGVS,
                         ids=[f"{kind or 'writer'}-{i}" for i, (kind, _) in enumerate(ARGVS)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_nul_byte_in_a_path_argument_is_a_usage_error(base, kind, tail, data):
    """X, R and the base files are valid inputs, O and A outputs; one of them gets the NUL."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = {"X": str(base / SOURCES[kind]) if kind else None, "O": str(tmp / "out"),
                 "R": str(base / "render/manifest.txt"), "A": str(tmp / "ann.txt")}
        argv = [names.get(a) or (str(base / a) if (base / a).exists() else a) for a in tail]
        paths = [i for i, a in enumerate(tail) if a in names or (base / a).exists()]
        i = data.draw(st.sampled_from(paths), label="argument")
        at = data.draw(st.integers(0, len(argv[i])), label="position")
        argv[i] = argv[i][:at] + "\0" + argv[i][at:]
        code, err = _run(argv)
        assert code == EX_USAGE, (argv, code, err)
        assert "NUL byte" in err and "Traceback" not in err, (argv, err)
        assert list(tmp.iterdir()) == [], argv
