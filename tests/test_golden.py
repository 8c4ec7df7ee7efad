"""Golden output hashes: the SHA-256 of each CLI output file for fixed
configurations. A change that alters any output byte must update the hash
here and say why in CHANGES.md."""

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
        "ee423515803dde2edf59c89ce48d627a558794b92fffaf72ce5fec64e437229e",
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_hash_is_pinned(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
