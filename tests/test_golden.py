"""Golden outputs: the CLI's report, sweep and transcript bytes, pinned by sha256.

A run is fully determined by its configuration and seed, so any change to
the engine that is meant to keep its outputs must keep these digests. A
change that alters outputs on purpose (a new RNG draw layout, a new report
field) updates them and says why.
"""

import hashlib

import pytest

from hyperdistill.cli import main

CONFIGS = {
    "clean": ["--pairs", "2000", "--fidelities", "0.7,0.1,0.15,0.05"],
    "noisy": [
        "--pairs", "2000", "--fidelities", "0.6,0.15,0.15,0.1",
        "--dephase-p", "0.05", "--homodyne-error", "0.1", "--evil-bob-flip-p", "0.1",
    ],
    "zero_f3": ["--pairs", "2000", "--fidelities", "0.7,0.1,0.2,0"],
    "one_pair": ["--pairs", "1"],
}

#: (config, seed) -> sha256 of the JSON report, the CSV report and the
#: transcript, at engine version 2.
GOLDEN = {
    ("clean", 0): (
        "33ab7a61ec483c89f4f7b72fa9066209e882fd570a7bea4e61569e6e987ed4f1",
        "bf329109c2d9f617b5e3832afdd921aad597f70a564306c6d5d19955b45285d4",
        "49785ff981e34bc67cd0867669c1e48eb070e4e4f47f9b4f152e70f3ed6db499",
    ),
    ("clean", 2**64 - 1): (
        "4acd15029887cf698fb9b7b1d2d07991bb95a88210df41fbcd2808fd426bc523",
        "5d2bf5faa81d2f3863706bbb83480318d0bf0062c07c1860257a0c9f53f8ba72",
        "64331e687da462c88448a31746e5121cc3269c80a9a275689eb52785449f482e",
    ),
    ("noisy", 0): (
        "ed6832dc8a8c3d0f4533b1d011109635c3195f9df12c77d2f847cb81dbdedfbc",
        "948f1694cdc3c7bb31489497bb38313e2976f7878c71626dca9ee740003900bc",
        "4571161a03a51115f8219ec40e5be6b9d4ac2900bc9f8342a8555a1351ae4bf5",
    ),
    ("noisy", 2**64 - 1): (
        "56754ea741df240dcbdf3e303a6a9710f7eaa8ec0748bf552f33b82be57c9565",
        "15376e8bb02a9ae9ee3b370319f9e0a507d7b26d48d3bc51163cc9be3a9598e1",
        "054f01daaf35fa22a504f46ed3a61497a84162783fa65958cfe03aba953b044b",
    ),
    ("zero_f3", 0): (
        "347c0f77ace9ef810a173b649f523f059fcf83b44025caf4293ec2ac294166af",
        "439b18a53199787e9aa48b9eaa6c983135e8f9451b0667fffdc8c81c8e449fa5",
        "49785ff981e34bc67cd0867669c1e48eb070e4e4f47f9b4f152e70f3ed6db499",
    ),
    ("zero_f3", 2**64 - 1): (
        "b670f6abe8de043ab094d1ea65e9ccb45b14e73e35b4271030700b0570ca2fc4",
        "2ec98886a3179a6e434d2352bdda60b3f1a53d7ab5851630642ac308b5e82f0b",
        "64331e687da462c88448a31746e5121cc3269c80a9a275689eb52785449f482e",
    ),
    ("one_pair", 0): (
        "4c8e132282cc37e5f5dfa8a0f9671db937368ae2b6a71245deb65aa5c00627bd",
        "434ba09b31791b74935ae1d5ccb20991ab7f6601d9320ac0bcbcbb22f77ce65a",
        "8f3e938c4cc299735d2afc9abbf5844519119534658c62c68be2214dce2b07b8",
    ),
    ("one_pair", 2**64 - 1): (
        "d189e8d18ef667cc982dd45e65afc90371173a3cd0a27be8c2f59c7efc662a2a",
        "30a93fa58905a44811d062e740e5de058615256eefb244d4784940cf707f83a3",
        "c8ed884780edd1ef02ec30b2f12cb1b4e32cbac0fa2dc9dfaee7d1680675f7a5",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config, seed", sorted(GOLDEN))
def test_cli_outputs_match_golden_digests(tmp_path, capsys, config, seed):
    argv = CONFIGS[config] + ["--seed", str(seed)]
    report_json, report_csv, transcript = (
        tmp_path / name for name in ("report.json", "report.csv", "transcript.log")
    )
    assert main(argv + ["--out", str(report_json), "--transcript", str(transcript)]) == 0
    assert main(argv + ["--format", "csv", "--out", str(report_csv)]) == 0
    capsys.readouterr()
    assert (sha256(report_json), sha256(report_csv), sha256(transcript)) == GOLDEN[
        (config, seed)
    ]


#: (seed) -> sha256 of the JSON and the CSV document of a four-seed sweep
#: of the noisy config, at engine version 2.
GOLDEN_SWEEP = {
    0: (
        "a52f952443edeafd4c7f5249dd00cc871c57f8dd8a5b6197d7accf5854c3b41a",
        "e75c76dbf689f3e42386c078be08f95b20a06b742dbc8be748941adf0a8806b7",
    ),
    2**64 - 4: (
        "391efbf0233f79ee4cd80f3a769c33d269ceaf3cc97db4136689284792720c2a",
        "51524f0ffd7e10806bfb74df1de8f88a1ad7e1c29a9b343659774e2ff73cac5f",
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SWEEP))
def test_sweep_outputs_match_golden_digests(tmp_path, capsys, seed):
    argv = CONFIGS["noisy"] + ["--sweep", "4", "--seed", str(seed)]
    sweep_json, sweep_csv = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(sweep_json)]) == 0
    assert main(argv + ["--format", "csv", "--out", str(sweep_csv)]) == 0
    capsys.readouterr()
    assert (sha256(sweep_json), sha256(sweep_csv)) == GOLDEN_SWEEP[seed]
