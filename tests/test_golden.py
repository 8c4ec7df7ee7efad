"""Golden output hashes: the SHA-256 of each CLI output file, and of the
`verify` report on stdout, for fixed configurations. A change that alters
any output byte must update the hash here and say why in CHANGES.md."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisedist
import noisedist.cli
from noisedist import NoiseDistError
from noisedist.cli import main

GOLDEN = {
    "sweep-analytic-csv": (
        ["sweep"],
        "28f89c604a7028e3c9e757ef7fc8d1ba5cfe85e9c32f8b3c27b3d8042864722c",
    ),
    "sweep-analytic-json": (
        ["sweep", "--theta", "0:180:15", "--correction", "custom", "--target", "90,90",
         "--format", "json"],
        "75e90ef07b3c7a2406646793e0fe4072233d36f4205f36cb4319fbdc15677abb",
    ),
    "sweep-multinomial-csv": (
        ["sweep", "--mode", "multinomial", "--shots", "20000", "--seed", "11"],
        "d273e324d1347c7d624616b7712a5b2a1b668f47586ca72c6dfc86191e6768b1",
    ),
    "sweep-poisson-json": (
        ["sweep", "--mode", "poisson", "--shots", "50000", "--seed", "5",
         "--correction", "none", "--format", "json"],
        "90cac6178ed5bf2262f53742a3b37df0cc4facb275ba6808e8b90d8470f28348",
    ),
    "correct-search-default": (
        ["correct-search"],
        "270a747c0a9bb65f348c8a5a9624b2ee8326d2530bbf143ec4f2a082d1a87b0c",
    ),
    "correct-search-json": (
        ["correct-search", "--theta-m", "30", "--grid", "15,10", "--format", "json"],
        "b0910c300d166206b55fca640e27549f840a7cf342abd2411eff8d26bde50f72",
    ),
    "boundary-default": (
        ["boundary"],
        "7352472909dc4bcae239bdc9028f382edd201d9985ac89de6bb5af8a94299bf5",
    ),
    "boundary-json": (
        ["boundary", "--samples", "37", "--format", "json"],
        "d676a7de18fe29802fd0cd016669239888f05d62742a0f6b046ff23767498b76",
    ),
    "simulate-default": (
        ["simulate"],
        "7357981411c50a681e39443ca6def2bea48f8d3d5431d9d8874d809822109e9d",
    ),
    "simulate-json": (
        ["simulate", "--theta", "30", "--family", "A", "--mode", "poisson",
         "--correction", "custom", "--target", "60,30", "--shots", "5000", "--seed", "7",
         "--efficiency", "0.8", "--format", "json"],
        "f4d5f7dc82065c9778cecebc3a4f28879ccf8b971474eede2706b0026f17fb53",
    ),
    # large enough to span several write chunks of the table emitter
    "correct-search-lattice-csv": (
        ["correct-search", "--theta-m", "37.3", "--grid", "2.5,5"],
        "ea0bbf1fdecd2ba45384f2def22153ed50ca79f339656ca2076c401501ba567f",
    ),
    "correct-search-lattice-json": (
        ["correct-search", "--theta-m", "37.3", "--grid", "2.5,5", "--format", "json"],
        "f0bdbad08e05fe49237abba489038221c7dfa07430da1a5513cf488f932f79b8",
    ),
    "boundary-5001-csv": (
        ["boundary", "--samples", "5001"],
        "33f194e301bf8809993823f4c91bd69dde08e291c43a2583fccbe58db3a40106",
    ),
    "boundary-5001-json": (
        ["boundary", "--samples", "5001", "--format", "json"],
        "19d3b58ff279e218eb517ef4fe0fec1f5a3bbe6a3fea0e49c7374cb31e16ed5d",
    ),
    # float counts in CSV
    "simulate-exact-efficiency": (
        ["simulate", "--mode", "exact", "--efficiency", "0.7"],
        "2f5d8d3a5f0380e1c6529f71e83c980b800a33a2864c91dd0b1f8d5251f0aae9",
    ),
    # ints (shots, seed) and booleans in JSON
    "sweep-multinomial-json": (
        ["sweep", "--theta", "10,45,80", "--mode", "multinomial", "--shots", "3000",
         "--seed", "4", "--format", "json"],
        "67ef2babd6b7132f8896c0d2666d6d315691f683c3e3fc46fd5b49686aa5f031",
    ),
    "sweep-analytic-none": (
        ["sweep", "--correction", "none"],
        "44eb52a6aa886ea00908e271d13c6809a1d2ec266af102a1dbb0325698b92a7e",
    ),
    # 721 rows per correction kind, a quarter degree apart
    "sweep-fine-none": (
        ["sweep", "--theta", "0:180:0.25", "--correction", "none"],
        "75c8c021f8d4a65ca66e4b3b89063411863ad95bd59a5b4be34de739ccddecc9",
    ),
    "sweep-fine-optimal": (
        ["sweep", "--theta", "0:180:0.25", "--correction", "optimal"],
        "5c3e10ef767887f60605f2ae93370af05f8a4910e3539037b297f64a2b3d44ac",
    ),
    "sweep-fine-custom": (
        ["sweep", "--theta", "0:180:0.25", "--correction", "custom",
         "--target", "37.5,121.25"],
        "a944295332f409f54ecead6478d1ed1cfa68bd9665bd7119a13596852dba3c52",
    ),
    "simulate-exact-custom-a": (
        ["simulate", "--mode", "exact", "--family", "A", "--correction", "custom",
         "--target", "20,70", "--efficiency", "0.7"],
        "fdf471a9ecea33a9895c4903508cdc16f01c203575055aa20f5f3650d53f6fe1",
    ),
    # sampled counts under a custom correction, and the binomial thinning draw
    "sweep-poisson-custom-csv": (
        ["sweep", "--theta", "0:180:15", "--mode", "poisson", "--correction", "custom",
         "--target", "37.5,121.25", "--shots", "20000", "--seed", "9"],
        "ca1de594c663bafa72b3de26ff27705a69338629ad4b76440dc997c0414e98d0",
    ),
    "simulate-multinomial-thinned": (
        ["simulate", "--mode", "multinomial", "--family", "B", "--efficiency", "0.6",
         "--theta", "65", "--shots", "5000", "--seed", "13"],
        "e1fbc43a92863b572ee545886df55fd1adb471fbfd0e22cbf49b7a7729c7a137",
    ),
    # false flags: at 80 and 90 degrees only N + D0 falls below 1, so general_ok
    # is false while N + Dcorr passes; at 10 degrees general_ok is true and
    # tight_ok false
    "sweep-false-flags-csv": (
        ["sweep", "--mode", "multinomial", "--shots", "200", "--seed", "1",
         "--tolerance", "0", "--correction", "custom", "--target", "45,45"],
        "77067f6dd39ea68bfb0118e052fe9aa5e7acc8c6324d968c86c78b83f15909df",
    ),
    "sweep-false-flags-json": (
        ["sweep", "--mode", "multinomial", "--shots", "200", "--seed", "1",
         "--tolerance", "0", "--correction", "custom", "--target", "45,45",
         "--format", "json"],
        "e327d93ffa6b3eff492ffa4b44c7370bf427903c38240e1c6e59122ac73c980b",
    ),
    # 361 x 361 cells and 100,001 samples: several row blocks of the kernels
    "correct-search-blocks-csv": (
        ["correct-search", "--theta-m", "37.5", "--grid", "0.5"],
        "917a9e797e494b12ac9a4bc9c196ab1d7d110865d9d837b00d34dc2b5ba59038",
    ),
    "correct-search-blocks-json": (
        ["correct-search", "--theta-m", "37.5", "--grid", "0.5", "--format", "json"],
        "fa07df3cd247c964353b40c18b1947f5e80b70f65e5e565732ec57852d83c05a",
    ),
    # 3 x 18,001 cells: each vartheta row is longer than one surface block
    "correct-search-long-rows-csv": (
        ["correct-search", "--theta-m", "37.3", "--grid", "90,0.01"],
        "7e7d03e9278609c3fa393db73546ab2f374cb20df2553abdec53db8c77fb8912",
    ),
    "correct-search-long-rows-json": (
        ["correct-search", "--theta-m", "37.3", "--grid", "90,0.01", "--format", "json"],
        "3afa1d4be3da3a04af15c6281c6b621d31534ed9a510d0307644bbef5557d695",
    ),
    "boundary-100001-csv": (
        ["boundary", "--samples", "100001"],
        "a973903fca1e75b44640fb585a29de84c49739a6775b5ba779feed42794b849e",
    ),
    # 18,001 angles: two row blocks of the sweep kernels
    "sweep-two-blocks-csv": (
        ["sweep", "--theta", "0:180:0.01"],
        "6479cc1f198f8792f2d801f654d3830d31d655cc80dd884a7ed2744ce0866882",
    ),
    # b.m = 0: one distinct value, D = 1 bit, on every cell
    "correct-search-one-value-csv": (
        ["correct-search", "--theta-m", "0", "--grid", "1.5"],
        "53381ed923508e45fae9f1a56c1dc7cbe45d38c1e7253403fab409a3d2475beb",
    ),
    # b.m = 1: the surface runs from 1 bit down to 0 at (90, 90)
    "correct-search-aligned-json": (
        ["correct-search", "--theta-m", "90", "--grid", "1.5,2", "--format", "json"],
        "d41577b4f6edbae2890f34668992456f7e1d1ca6db99f6337567d6dc418dc420",
    ),
    # b.m < 0 and steps that miss 90 degrees: the argmin is off the lattice's
    # optimum; the same bytes at numpy's AVX2 level
    "correct-search-off-lattice-json": (
        ["correct-search", "--theta-m", "-40", "--grid", "7.3,11.1", "--format", "json"],
        "82e893abcc2f269868ee41cbf668e286412e7bef423d9b476f6c236666503a5b",
    ),
}

# (argv, exit code, SHA-256 of stdout) of the verify battery; the second is
# its negative control, which must fail
VERIFY_GOLDEN = {
    "verify-seed-4": (
        ["verify", "--trials", "10000", "--shots", "100000", "--seed", "4"], 0,
        "5ff2e1bb51ce35a92ff14b1bd503ba6a7871f3f1f7c41323c79d72576726ab9c",
    ),
    "verify-negative-control": (
        ["verify", "--trials", "0", "--seed", "4", "--perturb-disturbance", "0.05"], 1,
        "6036884a40d6dae9caddf4c2ab9edc019bcbbb000ce2ddf55dd507999e550e65",
    ),
    # a seed above 2**32 keys every stream with a two-word seed
    "verify-seed-2e32": (
        ["verify", "--trials", "2000", "--shots", "10000", "--seed", str(2**32 + 5)], 0,
        "3d258d44c6348827f0168136fc2dc3cb9582a21d345f3f65027909c068594094",
    ),
}

# (trials, max_members, seed) -> SHA-256 of repr(ensemble_boundary_oracle(...)):
# every field at full precision, the worst ensemble's members included. The
# trial counts sit at one trial, on both sides of 16,384 and of 32,768 and at
# 100,000, and the member counts at 1, 4, 7, 8 and 13: below 8 members numpy
# sums a member row left to right, from 8 on pairwise.
ORACLE_GOLDEN = {
    (1, 4, 0): "d46b72595f46f63b01d3c6e8ca348d0564a47ece707a00b894632cae56ef5c8b",
    (16383, 4, 7): "723a6e9038d80ff97666b5b9d19873718b62cd3c3c1db7c961cffb70a1182c6c",
    (16384, 4, 8): "64be41b7fdfae36295ccd12db1299195e08c3326982457535ef9ef76a6a37cba",
    (16385, 4, 9): "717af7833d16132af37c382fdb3726934d1887d27dfb8f07db3359bc2f66ff33",
    (32767, 4, 1): "00dc1d0848dd97f2697d18749adae9c5ba2610b695a3ad6dc84442929697aa15",
    (32768, 4, 2): "4d37323da73e8bcc120b01765191d173f0a22c9758d5805eb654b2dc8905c9cb",
    (32769, 4, 3): "5ec1d1b526ab6f7a917a5e25ee7641fc7c59aed51c1e0d14943cae10a10f6eb3",
    (100_000, 4, 0): "aa2aecc774a125aa30dfc83274960844f06987890dadb35d72071ea535c71b2b",
    (20_000, 1, 5): "185a12013a70ed4d99783d7b0f26ee3c4acb0bd5aa908c792b1062d5307291cd",
    (20_000, 7, 6): "0a425b4a0c8044eed1ab5595c8c23f7a6a9dfea2ab7745b8a85216fdf91faeb7",
    (5_000, 8, 3): "179baf6a3396b134694216365b85f35d001ea37892c865462db82b187a8adcb3",
    (2_000, 13, 4): "28e0b3740ae4b93ace3f354e9cb55868ead4af6c4df8d160cc2c799d78505d6e",
}

# numpy picks its SIMD kernels at run time. At its AVX2 level (AVX2 on, the
# AVX512_SKX, AVX512_ICL and AVX512_SPR targets off, as a CPU without AVX512
# or NPY_DISABLE_CPU_FEATURES="AVX512_SPR,AVX512_ICL,X86_V4" gives) log,
# log2, log1p, exp, arctan2 and power round some last bits otherwise than at
# the full AVX512 level, so these pins read other hashes there. Any other
# level keeps the hashes above, which need not hold there;
# test_outputs_agree_at_a_lower_simd_level bounds the difference.
AVX2_GOLDEN = {
    "boundary-100001-csv": "7cbbd8be6b08a9bd0d7b8d43412ad5c978d5dccd362125da0a49908fef03dd2b",
    "boundary-5001-csv": "2632ec3b692fa30600041291a0a1e0d019ed1ef2d4a470cf885e6063145d2376",
    "boundary-5001-json": "3e740d2dd341cec092af094fdaa6c4878438c1533a7797324eacb8147469ab04",
    "boundary-default": "ac32383b9cfb714572c0d22cfd4091e529b89d3949f40589d7d5c38078337201",
    "boundary-json": "422e21b91b02b87627b62ff70d08f50648dcc940d83a139e403253eafb14bb92",
    "correct-search-aligned-json": "ed8997c6e5f517e03c9d93af75251697b696f8058b11651c5e3edc6fbcfe09fe",
    "correct-search-blocks-csv": "b3a3db3c46d043865e46e5cb817447dd6e79853dea25f42954a31be6ed5ba7ec",
    "correct-search-blocks-json": "662483831c7fe66c6697720f2ceab51088972b0c7bfbd7c1cff6dd263e3aedaf",
    "correct-search-long-rows-csv": "9d35e54f904edf09cc504efeb566d812ef75a55beea75550cf9dc7efb2c264ec",
    "correct-search-long-rows-json": "4c68ff1a6a872bc035cfbc1a953f0f3d1f42065bc4c2cbe91bac915594962f07",
    "sweep-analytic-csv": "628fb366dbf1538bcf5b614d6299a0fec32a30d3ccbb62cd02f23f2183dc1793",
    "sweep-analytic-json": "b1de680f6255be69cf6f5826e68959b200bc84858dbae0f8186378231c1af73d",
    "sweep-analytic-none": "fd417ea826e888e5307824c963fc6660bf21129c3f46fc2c9f3602b66689fdff",
    "sweep-false-flags-csv": "d24ddb8450a0d96729177be0084b8cacdfab4ccdc458aa6e3ab41b55551ee9f0",
    "sweep-false-flags-json": "0dbb2bf067bd143fde0f6de85b868138f3679906ccfb757eae1fd9860fbc7626",
    "sweep-fine-custom": "e2bceed4979af3895e5b468a3025e44bd6704d92a33c5c70bf40ebe3838b45d9",
    "sweep-fine-none": "5c5cf68f792a5ee177817f1e85cb6b7d6b93001baa5a2140954fab2969b6cd60",
    "sweep-fine-optimal": "6b7511f1b5e5f0949fddd2eb3cb371eb1dc269c7a6125dfe55e70bf84a6788af",
    "sweep-multinomial-csv": "ed4524dc2932e56d6ccd99497127fc90e738c8938ffdcb0f6d5c76efcf5056b5",
    "sweep-poisson-custom-csv": "bc438e72ce52da9e1460b8dc3547230e89711b6766eb5d8f66950b444f34068d",
    "sweep-poisson-json": "31179a9dd098953185319adbea584bed1c6c604736dcf4d9b7da6338a3e72954",
    "sweep-two-blocks-csv": "b7d4c6957d255a04d19c5c7b7a9798c47cc6ab013cbba7af3a7d4a20b036d15f",
}
AVX2_ORACLE_GOLDEN = {
    (16384, 4, 8): "29469353080275a61758ca1c802699b83f15b7e1cfa5e82467fb27b6834bdd50",
    (20_000, 7, 6): "9bb352163007d52b8c5a3460d2e493fe7f94baf8f00d1a4761798bf17a1454f8",
    (32767, 4, 1): "a265095d4a07cd5307a132db29fd43264ef1beff1e0851578b9f6efc989a5f7a",
    (32768, 4, 2): "cb4340acb2d3680645ae555fb45fe5d31fade8b45a63d85c03cdf3effd093cf5",
    (32769, 4, 3): "adc9e58f92674f5f56ef7a14728d13c06da0e0daf4edf9325874d6a85dd5cee1",
    (100_000, 4, 0): "377de216fd5c6d3f65a259f8ba95ad638671ab76150bc156a1a9b04af9413625",
}


def _simd_level():
    """Whether numpy dispatches to AVX2 and to each of its AVX512_SKX,
    AVX512_ICL and AVX512_SPR targets in this process."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    return tuple(bool(features.get(name))
                 for name in ("AVX2", "AVX512_SKX", "AVX512_ICL", "AVX512_SPR"))


if _simd_level() == (True, False, False, False):
    GOLDEN.update((name, (GOLDEN[name][0], digest)) for name, digest in AVX2_GOLDEN.items())
    ORACLE_GOLDEN.update(AVX2_ORACLE_GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_hash_is_pinned(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
def test_verify_report_hash_is_pinned(name, capsys):
    argv, code, digest = VERIFY_GOLDEN[name]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(ORACLE_GOLDEN), ids=str)
def test_oracle_report_hash_is_pinned(case):
    trials, max_members, seed = case
    report = noisedist.ensemble_boundary_oracle(trials, max_members=max_members, seed=seed)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == ORACLE_GOLDEN[case]


@pytest.mark.parametrize("name", [
    "sweep-poisson-json", "correct-search-lattice-csv", "boundary-5001-json",
    "simulate-exact-efficiency",
])
def test_stdout_matches_out_file(name, tmp_path, capsys):
    argv, _ = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta", "0:180:5", "--mode", "poisson", "--shots", "1000", "--seed", "3",
     "--format", "json"],
    GOLDEN["sweep-multinomial-csv"][0],
    GOLDEN["sweep-poisson-json"][0],
    ["verify", "--trials", "0", "--shots", "1000", "--seed", "3"],
], ids=["sweep-poisson-5deg", "sweep-multinomial-csv", "sweep-poisson-json", "verify-seed-3"])
def test_output_does_not_depend_on_the_blas_kernel(argv):
    """`python -m noisedist.cli` writes the same bytes with OpenBLAS's default
    kernels and with OPENBLAS_CORETYPE=Nehalem, whose dot product rounds each
    product where the Haswell kernels fuse multiply and add: the estimates
    must not go through BLAS. On a numpy that is not linked to OpenBLAS, or
    that ignores the variable, both runs use one kernel and this passes
    trivially."""
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, "-m", "noisedist.cli", *argv], capture_output=True,
                           env=dict(env, **extra), timeout=60)
            for extra in ({}, {"OPENBLAS_CORETYPE": "Nehalem"})]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


SIMD_COMMANDS = [
    ["correct-search", "--theta-m", "37.3", "--grid", "1.5"],
    ["correct-search", "--theta-m", "37.3", "--grid", "1.5", "--format", "json"],
    ["sweep", "--theta", "0:180:0.25", "--format", "json"],
    ["boundary", "--samples", "1001", "--format", "json"],
    GOLDEN["simulate-json"][0],
]
# verify prints rounded decimals, so only its checks' names and verdicts,
# its summary line and its exit code are compared; the oracle report is
# compared as the outputs are
SIMD_VERIFY = ["verify", "--trials", "2000", "--shots", "10000", "--seed", "1"]
SIMD_ORACLE = (5000, 4, 3)


def _parsed(argv, path):
    """The output file as JSON values, or as CSV rows of ints, floats and
    text ("true" and "false" stay text)."""
    text = path.read_text()
    if "json" in argv:
        return json.loads(text)

    def cell(value):
        if value in ("true", "false"):
            return value
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
        return value
    return [list(map(cell, row)) for row in csv.reader(text.splitlines())]


def _skeleton(value, floats):
    """value with each float replaced by `float` and appended to floats, and
    each other scalar by its (type, value)."""
    if isinstance(value, float):
        floats.append(value)
        return float
    if isinstance(value, dict):
        return {key: _skeleton(item, floats) for key, item in value.items()}
    if isinstance(value, list):
        return [_skeleton(item, floats) for item in value]
    return type(value), value


def _verify_verdicts(text):
    """(PASS or FAIL, name) of each check of verify's report, and its summary line."""
    *checks, summary = text.splitlines()
    return [tuple(line.split()[:2]) for line in checks], summary


def test_outputs_agree_at_a_lower_simd_level(tmp_path):
    """The table of every subcommand, written by a child at the default SIMD
    dispatch level and by one with numpy's AVX512 kernels off: headers, keys,
    row counts, flags, ints and text match exactly, and each float to within
    4 ulp of max(|value|, 1), the scale of one bit. So do the fields of an
    ensemble_boundary_oracle report, and verify gives the same verdicts and
    exit code. The setting acts on the child alone; on a CPU without those
    features both children run at one level, and a numpy that refuses the
    setting skips."""
    src = str(Path(noisedist.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    parsed, verdicts = [], []
    for level, extra in enumerate([{}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4"}]):
        outs = [tmp_path / f"{level}-{i}" for i in range(len(SIMD_COMMANDS))]
        verify_out, oracle_out = tmp_path / f"{level}-verify", tmp_path / f"{level}-oracle"
        script = ("import contextlib, dataclasses, json\n"
                  "from noisedist import ensemble_boundary_oracle\n"
                  "from noisedist.cli import main\n"
                  f"for argv, out in zip({SIMD_COMMANDS!r}, {list(map(str, outs))!r}):\n"
                  "    assert main([*argv, '--out', out]) == 0, argv\n"
                  f"with open({str(verify_out)!r}, 'w') as stream, contextlib.redirect_stdout(stream):\n"
                  f"    code = main({SIMD_VERIFY!r})\n"
                  f"report = dataclasses.asdict(ensemble_boundary_oracle(*{SIMD_ORACLE!r}))\n"
                  f"with open({str(oracle_out)!r}, 'w') as stream:\n"
                  "    json.dump([code, report], stream)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(env, **extra), timeout=120)
        if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES here")
        assert proc.returncode == 0, proc.stderr
        code, report = json.loads(oracle_out.read_text())
        verdicts.append((code, _verify_verdicts(verify_out.read_text())))
        parsed.append([_parsed(argv, out) for argv, out in zip(SIMD_COMMANDS, outs)] + [report])
    assert verdicts[0] == verdicts[1]
    for argv, default, lower in zip(SIMD_COMMANDS + [SIMD_ORACLE], *parsed):
        floats = [], []
        assert _skeleton(default, floats[0]) == _skeleton(lower, floats[1]), argv
        a, b = map(np.array, floats)
        assert np.array_equal(np.isnan(a), np.isnan(b)), argv
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        assert np.all(np.abs(a - b) <= 4 * np.spacing(np.maximum(np.abs(a), 1.0))), argv


# ------------------------------------------------ help and usage errors
#
# What the CLI prints around the data: --help at 80 columns, and the exit
# code and stderr of usage errors. Each usage error below has one fault, so
# the message does not depend on the order in which options are checked.


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the --help text of the program ("") and of each subcommand
HELP_GOLDEN = {
    "": "4340e27341c3f9fbc9744e88f78e944e4b36cf8d08be94587a6e571667a96bed",
    "sweep": "f1fc6eb81b3daad7dba7f7e221848c87b41e648b01fa5e71867f9ac331d21157",
    "correct-search": "cbaa60d372ca2b8f403c1f60bbccb52b1cc20702677c870535bff91c7492a21b",
    "boundary": "e09d378871642b4e3d6e7b066f568f9834c4a3bd6462821ae7ad6e149f3224ee",
    "simulate": "8d6649178e09d3ba6a9976b328e264d19d6304fb4f1ce2639d042181cc180b83",
    "verify": "cd9468e4ded504d381e407cfb17713f81ad3953af4b001f52f40c31a0ebacf41",
}


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _run([command, "--help"] if command else ["--help"], capsys)
    assert (code, err, _sha(out)) == (0, "", HELP_GOLDEN[command])


#: a Poisson sweep with one shot per input, less its seed value
SHOT_STARVED = ["sweep", "--mode", "poisson", "--shots", "1", "--theta", "0:180:10", "--seed"]

# argv -> (last line of stderr, SHA-256 of all of stderr); exit code 2. In
# argv and stderr, "{tmp}" stands for a fresh directory. The "probe-*" cases
# are the edge-input probes every benchmark pass carries.
USAGE_GOLDEN = {
    "unknown-command": (
        ["polarize"],
        "noisedist: error: argument command: invalid choice: 'polarize' (choose from "
        "'sweep', 'correct-search', 'boundary', 'simulate', 'verify')",
        "7f08e524fb162e7ef2031b87b19dfa5806758dd09995c71ce0f7d535ac16537d"),
    "sweep-mode": (
        ["sweep", "--mode", "quantum"],
        "noisedist: error: --mode must be one of analytic, multinomial, poisson; got 'quantum'",
        "2b8bd9ddeb5aabbb92655222e6734dde210914f6e130a54377d4f76cdf01fcbb"),
    "sweep-theta-range": (
        ["sweep", "--theta", "0:90"],
        "noisedist: error: bad range '0:90', expected start:stop:step",
        "306daece759efbef510adaa3b826e44358256d1ee551e95092b5380518c3d05a"),
    "sweep-theta-blank": (
        ["sweep", "--theta", " "],
        "noisedist: error: empty theta grid",
        "ef90f75e99505293e34bae36d889121c11032f08017bb8b02cf514be7bb122c9"),
    "sweep-custom-no-target": (
        ["sweep", "--correction", "custom"],
        "noisedist: error: --correction custom requires --target VARTHETA,PHI (degrees)",
        "72b7b2dd46130f37c9c725077637258f4b4e8e1b82e757c64241d25b5a5b6395"),
    "sweep-shots": (
        ["sweep", "--shots", "0"],
        "noisedist: error: --shots must be >= 1, got 0",
        "786d805c68e57fea81aff17943297a48a76f589070d9da56249eb4aa9fc2fbf8"),
    "sweep-seed": (
        ["sweep", "--seed", "-3"],
        "noisedist: error: --seed must be >= 0, got -3",
        "a7842ec53c567ceedcb2a83b463e2893a9282134962c890ce48254210f156621"),
    "sweep-tolerance": (
        ["sweep", "--theta", "45", "--tolerance", "-1"],
        "noisedist: error: --tolerance must be >= 0, got -1.0",
        "1f7a248cd28b599f4ac66497d2f74f62360235e7ff338ab6aa16c58ad79601a1"),
    "sweep-unwritable-out": (
        ["sweep", "--theta", "45", "--out", "{tmp}/file/sub/y.csv"],
        "noisedist: error: cannot write output path {tmp}/file/sub/y.csv: "
        "[Errno 20] Not a directory: '{tmp}/file/sub'",
        "a0f9bc4c357f3d6100402747666d63cc878f546ac5462db28553cc00887bba90"),
    "sweep-theta-cap": (
        ["sweep", "--theta", "0:1e9:1e-9"],
        "noisedist: error: grid range '0:1e9:1e-9' exceeds 1000000 points",
        "76c740e74596c906aa0c1755372c32264a51f884902419c1e39735b7e0b14293"),
    "sweep-theta-cap-sampled": (
        ["sweep", "--theta", "0:1e9:1e-9", "--mode", "multinomial"],
        "noisedist: error: grid range '0:1e9:1e-9' exceeds 1000000 points",
        "76c740e74596c906aa0c1755372c32264a51f884902419c1e39735b7e0b14293"),
    "correct-search-grid-zero": (
        ["correct-search", "--grid", "0"],
        "noisedist: error: invalid grid steps '0'",
        "aba7b42f9310552f9c0aa6c0839da2a7ed76914616e52c7c4c0cc513af5952bc"),
    "correct-search-grid-negative": (
        ["correct-search", "--grid", "-5"],
        "noisedist: error: invalid grid steps '-5'",
        "5af084c909bf6b8d3dfd59099ceb5efef6e66fbf073ba76c370e9fc965634abb"),
    "correct-search-grid-words": (
        ["correct-search", "--grid", "a,b"],
        "noisedist: error: --grid expects STEP or VSTEP,PSTEP in degrees, got 'a,b'",
        "cb00819173037cb2564455534a301641f99f46e95db816dca0c9bf13153a9502"),
    "correct-search-grid-nan": (
        ["correct-search", "--grid", "nan"],
        "noisedist: error: --grid expects STEP or VSTEP,PSTEP in degrees, got 'nan'",
        "4381d1ad678b56509630b276998f0490172f3c0bbaffa2a715686cec16b48af0"),
    "correct-search-grid-inf": (
        ["correct-search", "--grid", "inf,10"],
        "noisedist: error: --grid expects STEP or VSTEP,PSTEP in degrees, got 'inf,10'",
        "1f22817f397a19b67e354de0ed320c88914a23eea78587c9f943866d7888e5f8"),
    "correct-search-cell-cap": (
        ["correct-search", "--grid", "0.1,0.001"],
        "noisedist: error: --grid 0.1,0.001 exceeds 10000000 lattice cells",
        "8851a10e38bccbdf0b3e6928b93e010e27f80c09da9457cdd683e486bd4ec70d"),
    "correct-search-cell-cap-tiny": (
        ["correct-search", "--grid", "1e-300"],
        "noisedist: error: --grid 1e-300 exceeds 10000000 lattice cells",
        "b78ca29a78ceea2441d2157eca60c89facf0892677410f875c6cfbcbd98d4682"),
    "boundary-samples": (
        ["boundary", "--samples", "1"],
        "noisedist: error: --samples must be >= 2, got 1",
        "1e0160a39cb1e2981720eb2276c3d60497490daef920c5e63707dde28d8a6b13"),
    "boundary-sample-cap": (
        ["boundary", "--samples", "10000001"],
        "noisedist: error: --samples must be <= 10000000, got 10000001",
        "d953cab98dece4a61be38cd871aedca6dbe006f53fe154da58960ce5878f3af2"),
    "boundary-kernel-fails": (
        ["boundary"],
        "noisedist: error: kernel failed",
        "01024490ffbbb65c9c5c51dcaddc600e8708ac2282d087306491030242e67699"),
    "boundary-disk-full": (
        ["boundary", "--out", "{tmp}/curve.csv"],
        "noisedist: error: cannot write output path {tmp}/curve.csv: "
        "[Errno 28] No space left on device",
        "1e98942c3662c6fe1b92c4fef62f409db56747597bbdb0a5c89d4d0949afb742"),
    "simulate-family": (
        ["simulate", "--family", "Q"],
        "noisedist: error: --family must be one of A, B; got 'Q'",
        "d8da3cd73a75b9f165101e6d25ac5b428cb5d5508c63e635484d2f6c6ab68428"),
    "simulate-efficiency": (
        ["simulate", "--efficiency", "0"],
        "noisedist: error: --efficiency must lie in (0, 1], got 0.0",
        "2bec17c5ea5c224da74a0b24fed00b45b3d021c019d8679dcda9cfc594793470"),
    "simulate-mode": (
        ["simulate", "--mode", "analytic"],
        "noisedist: error: --mode must be one of exact, multinomial, poisson; got 'analytic'",
        "5e447ba2209534f26415e580d0613b763f00f2a82532ba44d7170857dc3c9af8"),
    "sweep-correction": (
        ["sweep", "--correction", "partial"],
        "noisedist: error: --correction must be one of none, optimal, custom; got 'partial'",
        "3f82ead0cc8ee96751f95c0e8eaa8c41ebe384c52bec5b9cc5c3b3d02a029e46"),
    "sweep-format": (
        ["sweep", "--format", "xml"],
        "noisedist: error: --format must be one of csv, json; got 'xml'",
        "ab76accfd5950c4e72de5104e645167bd531854285d15a49f18a3de7538f7162"),
    "sweep-shots-not-int": (
        ["sweep", "--shots", "many"],
        "noisedist sweep: error: argument --shots: invalid int value: 'many'",
        "6c5aede961f5984ac37dadf1cb63c7179b4d19d5b2c3bd5c028ffa457a44e9f4"),
    "correct-search-format": (
        ["correct-search", "--format", "xml"],
        "noisedist: error: --format must be one of csv, json; got 'xml'",
        "ab76accfd5950c4e72de5104e645167bd531854285d15a49f18a3de7538f7162"),
    "boundary-format": (
        ["boundary", "--format", "xml"],
        "noisedist: error: --format must be one of csv, json; got 'xml'",
        "ab76accfd5950c4e72de5104e645167bd531854285d15a49f18a3de7538f7162"),
    "simulate-correction": (
        ["simulate", "--correction", "partial"],
        "noisedist: error: --correction must be one of none, optimal, custom; got 'partial'",
        "3f82ead0cc8ee96751f95c0e8eaa8c41ebe384c52bec5b9cc5c3b3d02a029e46"),
    "simulate-format": (
        ["simulate", "--format", "xml"],
        "noisedist: error: --format must be one of csv, json; got 'xml'",
        "ab76accfd5950c4e72de5104e645167bd531854285d15a49f18a3de7538f7162"),
    "simulate-shots": (
        ["simulate", "--shots", "0"],
        "noisedist: error: --shots must be >= 1, got 0",
        "786d805c68e57fea81aff17943297a48a76f589070d9da56249eb4aa9fc2fbf8"),
    "simulate-seed": (
        ["simulate", "--seed", "-1"],
        "noisedist: error: --seed must be >= 0, got -1",
        "493990222643ac20f797dea35fabf0b852941c62378fc0425a3bf58abf3920fa"),
    "simulate-custom-no-target": (
        ["simulate", "--correction", "custom"],
        "noisedist: error: --correction custom requires --target VARTHETA,PHI (degrees)",
        "72b7b2dd46130f37c9c725077637258f4b4e8e1b82e757c64241d25b5a5b6395"),
    "verify-trials": (
        ["verify", "--trials", "-1"],
        "noisedist: error: --trials must be >= 0, got -1",
        "d4f6b5cd01fd6d21d46fb7e5fc59138d8c25a255189f1d8c27394c0cdd0abd03"),
    "verify-shots": (
        ["verify", "--shots", "0"],
        "noisedist: error: --shots must be >= 1, got 0",
        "786d805c68e57fea81aff17943297a48a76f589070d9da56249eb4aa9fc2fbf8"),
    "verify-seed": (
        ["verify", "--seed", "-1"],
        "noisedist: error: --seed must be >= 0, got -1",
        "493990222643ac20f797dea35fabf0b852941c62378fc0425a3bf58abf3920fa"),
    "verify-perturb-nan": (
        ["verify", "--perturb-disturbance", "nan"],
        "noisedist: error: --perturb-disturbance must be a finite number, got nan",
        "2b66085f5c5a18a3d3a5fb8c9e08453a9ba40781db6053ee02171d5694e973ea"),
    "probe-sweep-theta-nan": (
        ["sweep", "--theta", "nan"],
        "noisedist: error: expected a finite number, got 'nan'",
        "071a82547958b1a5605330cc4b7adf0d834db70c46918db53f691c12cf746dd6"),
    "probe-sweep-theta-inf": (
        ["sweep", "--theta", "inf"],
        "noisedist: error: expected a finite number, got 'inf'",
        "362d365b44a6fa5acab02aa10788c658f8483817ca36e16c9b184e1772501cfb"),
    "probe-sweep-tolerance-nan": (
        ["sweep", "--tolerance", "nan"],
        "noisedist: error: --tolerance must be a finite number, got nan",
        "24c1f4e695c560bb583610baf2cbd20aa58578053dabca3bf42547efa6ec1e41"),
    "probe-sweep-target-nan": (
        ["sweep", "--correction", "custom", "--target", "nan,0"],
        "noisedist: error: --target expects 'VARTHETA,PHI' as finite degrees, got 'nan,0'",
        "806edff5f540c64e99c9640b709b870d653942e44d64fc77344ec9cd45de9114"),
    "probe-correct-search-theta-m-nan": (
        ["correct-search", "--theta-m", "nan"],
        "noisedist: error: --theta-m must be a finite number, got nan",
        "a428bbe5ad95cd370bceb726b26e26f74ad00bc9fd7bbf375de13953c3339b39"),
    "probe-simulate-theta-nan": (
        ["simulate", "--theta", "nan", "--mode", "exact"],
        "noisedist: error: --theta must be a finite number, got nan",
        "416e75261d9eb14643c1c20e632005748562fea51c97118991b0f6777a8194e4"),
    "probe-sweep-shots": (
        ["sweep", "--mode", "multinomial", "--shots", "0"],
        "noisedist: error: --shots must be >= 1, got 0",
        "786d805c68e57fea81aff17943297a48a76f589070d9da56249eb4aa9fc2fbf8"),
    # argparse errors reported by the program's parser, whose usage line
    # lists every command
    "no-command": (
        [],
        "noisedist: error: the following arguments are required: command",
        "dffec89e7f2a7ab775d8881b34d1cf38593c5e68ef31d0d44d40955af4c88789"),
    "sweep-unknown-flag": (
        ["sweep", "--bogus", "1"],
        "noisedist: error: unrecognized arguments: --bogus 1",
        "27fe2a4bcadc243c4dd5f2ebf15953272242c8a4d5a8d739311e4c8bc4426f37"),
    "boundary-extra-positional": (
        ["boundary", "extra"],
        "noisedist: error: unrecognized arguments: extra",
        "41ec7f0688341310c60df97a90ef7a98b205641ec323faea4c8fcabaaea739e0"),
    "sweep-version": (
        ["sweep", "--version"],
        "noisedist: error: unrecognized arguments: --version",
        "65ec763aa7d05ad8d0dddfc7d8ebe4673d256e3a4534e69886b7c57de1eb85d7"),
    "verify-extra-positional": (
        ["verify", "--trials", "5", "extra"],
        "noisedist: error: unrecognized arguments: extra",
        "41ec7f0688341310c60df97a90ef7a98b205641ec323faea4c8fcabaaea739e0"),
    # one shot per input leaves tables empty; the first faulty table, angle
    # by angle and within an angle A, then B, then corrected B, is reported
    "sweep-empty-table": (
        SHOT_STARVED + ["0"],
        "noisedist: error: no counts in table",
        "2cc79f68ed2448db3fc45a97c65abd60982fdec0913b9d1266c3545b036d692f"),
    "sweep-empty-row-a": (
        SHOT_STARVED + ["1"],
        "noisedist: error: input row with zero counts in family A; conditionals undefined",
        "cb6319cf8e4f2e9341840c8b58cd1aa4da593871d1b5d07754444b31893eb223"),
    "sweep-empty-row-b": (
        SHOT_STARVED + ["2"],
        "noisedist: error: input row with zero counts in family B; conditionals undefined",
        "87948b07528efc1196821645e402abdc77df6c8439c213fccd05b108c63157c5"),
}

# config file text -> (last line of stderr, SHA-256 of stderr) of
# `sweep --config {tmp}/run.cfg`; None leaves the file missing
CONFIG_GOLDEN = {
    "unknown-key": (
        "wavelength = 2.02\n",
        "noisedist: error: unknown config key(s) for sweep: wavelength",
        "1380824b83d2fdd523ee406de7352bd5e23bf4af602835539a055f79b180a70e"),
    "malformed-line": (
        "just some words\n",
        "noisedist: error: {tmp}/run.cfg:1: expected 'key = value', got 'just some words'",
        "9536e22ca4342da5f0c4e0d4a1e3c996d77d7b195e80c402ca37af0d974fcdb9"),
    "unparseable-value": (
        "shots = many\n",
        "noisedist: error: config key 'shots': cannot parse 'many'",
        "8a3f19770c3a84ec5f67289925765a735c6e8a42ff3672181ac1b86789aff0d6"),
    "missing-file": (
        None,
        "noisedist: error: [Errno 2] No such file or directory: '{tmp}/run.cfg'",
        "3e5d3d5e3886809eacb8c3315c33a246a42ba94407ba288698a72be2b2ea29c2"),
    "tolerance-nan": (
        "tolerance = nan\n",
        "noisedist: error: --tolerance must be a finite number, got nan",
        "24c1f4e695c560bb583610baf2cbd20aa58578053dabca3bf42547efa6ec1e41"),
}


def _kernel_fails(monkeypatch):
    def fail(samples):
        raise NoiseDistError("kernel failed")

    monkeypatch.setattr(noisedist.cli, "_boundary_blocks", fail)


def _disk_full(monkeypatch):
    real = noisedist.cli.write_table

    def write(stream, *args, **kwargs):
        real(stream, *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(noisedist.cli, "write_table", write)


USAGE_PATCHES = {"boundary-kernel-fails": _kernel_fails, "boundary-disk-full": _disk_full}


def _usage_error(argv, tmp_path, capsys):
    """(exit code, last line of stderr, SHA-256 of stderr), with tmp_path
    written as "{tmp}" in argv and stderr."""
    (tmp_path / "file").write_text("x")
    code, _, err = _run([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    err = err.replace(str(tmp_path), "{tmp}")
    return code, err.splitlines()[-1], _sha(err)


def test_version_text_is_pinned(capsys):
    assert _run(["--version"], capsys) == (0, f"noisedist {noisedist.__version__}\n", "")


def test_unambiguous_flag_prefix_is_the_flag(tmp_path):
    # argparse accepts any unambiguous prefix of a long flag
    paths = [tmp_path / "prefix.csv", tmp_path / "flag.csv"]
    assert main(["sweep", "--the", "10", "--out", str(paths[0])]) == 0
    assert main(["sweep", "--theta", "10", "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("name", sorted(USAGE_GOLDEN))
def test_usage_error_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    if name in USAGE_PATCHES:
        USAGE_PATCHES[name](monkeypatch)
    argv, line, digest = USAGE_GOLDEN[name]
    assert _usage_error(argv, tmp_path, capsys) == (2, line, digest)


@pytest.mark.parametrize("name", sorted(CONFIG_GOLDEN))
def test_config_error_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    text, line, digest = CONFIG_GOLDEN[name]
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
    assert _usage_error(["sweep", "--config", "{tmp}/run.cfg"], tmp_path, capsys) == (
        2, line, digest)
