"""Golden output hashes: the SHA-256 of each CLI output file, and of the
`verify` report on stdout, for fixed configurations. A change that alters
any output byte must update the hash here and say why in CHANGES.md."""

import hashlib

import pytest

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
        "df6fe62fe93a7df8ceb8c2f47db39c992812eb6649e2bf9538784f03ee176dc3",
    ),
    "sweep-poisson-json": (
        ["sweep", "--mode", "poisson", "--shots", "50000", "--seed", "5",
         "--correction", "none", "--format", "json"],
        "b87653a87dd1424c987cd608e9241fd75531b0d50ca23abeac3a655c5be730c1",
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
}


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
