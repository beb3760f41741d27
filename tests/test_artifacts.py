"""Byte stability of the CLI artifacts for fixed flags and seeds.

Each case runs `cli.main` into a temporary directory and compares the
SHA-256 digest of the artifact with a recorded value.  The digests were
recorded with Python 3.11.7 and numpy 2.4.6.  No artifact byte depends on
BLAS: every norm and inner product of the projectors adds its products in
axis order (`euclid._dot`), and the spiral columns take their exponentials
and sines from the C library's `math`; another libm or numpy build may
still round differently.  A change that moves artifact bytes on purpose
updates the digest here and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from altproj import cli


def _exported(horizon):
    def write(path):
        assert cli.main(["export-sets", "--horizon", str(horizon), "--out", str(path)]) == 0
    return write


def _box_ball(path):
    path.write_text(json.dumps({
        "A": {"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]},
        "B": {"type": "ball", "center": [2.0, 0.5], "radius": 1.5},
        "start": [3.0, 0.5],
    }))


def _two_point(path):
    # every A projection from iteration 1 on is a tie: the trace records
    # 1 000 multivalued events
    path.write_text(json.dumps({
        "A": {"type": "points", "coords": [[0.0, 0.0], [0.6, 0.0]]},
        "B": {"type": "points", "coords": [[0.3, 0.0], [0.9, 0.0]]},
        "start": [0.9, 0.0],
        "stop_step": 1e-3,
    }))


#: Each case: the config writer for `run` (or None), argv without its output
#: path, and the SHA-256 of the artifact.
CASES = [
    pytest.param(None, ["export-sets", "--horizon", "2000"],
                 "794a0fdc3188b69afe34f57a89152aea4efc9d17bcfefba8a03637210fe4fa9b",
                 id="export-sets"),
    pytest.param(_exported(2000), ["run"],
                 "571157cf4248bac330428918c9710e1d4fea46747b4e4e6e5de234e31ca3aa2b",
                 id="run-exported"),
    # the benchmark's size: 4 999 pairs on two 5 000-point clouds
    pytest.param(_exported(10000), ["run"],
                 "6cfbb6bf43cfde560c6294c3e116e3b0a635c6c56159da7bde13afcf6194187c",
                 id="run-exported-10000"),
    pytest.param(None, ["union-batch", "--seeds", "200", "--dim", "3", "--members", "4"],
                 "392c7d84713f9809f068fafe206a6b667e033156b6e992d06932ce326b2818d6",
                 id="union-batch"),
    pytest.param(None, ["gen", "--n", "2000", "--format", "json"],
                 "421a4fe6bde4cd5fcf1eb7c1a734683a6b111f0f693e60eff2fa101ff6a61d25",
                 id="gen-json"),
    pytest.param(None, ["gen", "--n", "2000"],
                 "2111fb9680c443c95d6ac761cc49cd292841fa37f7cebaabcc4873e125ea12ce",
                 id="gen-csv"),
    # the benchmark's size: pins the step solve's last bits far past the
    # 2 000 rows above
    pytest.param(None, ["gen", "--n", "100000"],
                 "e8762265ef32d7a584e90c77e4e4b65efa0fdd0a4a51482bc3b3bed4338a7cc0",
                 id="gen-csv-100000"),
    pytest.param(None, ["plot", "--n", "50"],
                 "6b126be7e7013400df1a2c9cba521f61d0f315dc35e42382a2a1bb7d8141bbc6",
                 id="plot"),
    pytest.param(_box_ball, ["run"],
                 "112fe69f34881876c764da5b1ed5f31fcdb033e64ee006bd111cb0ab05c1bd82",
                 id="run-box-ball"),
    pytest.param(_two_point, ["run"],
                 "c63151dd686234508d5cb9c3f6d18b836ae434ba7342416c935eb397e5772278",
                 id="run-two-point"),
]


@pytest.mark.parametrize("config, argv, digest", CASES)
def test_artifact_digest(tmp_path, config, argv, digest):
    out = tmp_path / "artifact"
    if config is None:
        argv = [*argv, "--out", str(out)]
    else:
        config(tmp_path / "config.json")
        argv = [*argv, "--config", str(tmp_path / "config.json"), "--trace-out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_stdout_digest(capsys):
    assert cli.main(["verify", "--horizon", "2000"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "930723eda5bf4c1d93194ff017ff2018e870db37f8c773b3fdc4d954e0e46a7c")
