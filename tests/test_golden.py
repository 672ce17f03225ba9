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
#: transcript.
GOLDEN = {
    ("clean", 0): (
        "089aa6a4d0b09f029cbde2479b990564597f9333492b2224f9c102a4f7fd221d",
        "0f070c680dade099180f617ce8ee25e4330821c8319256e07705a266c8987184",
        "14a50af5698e6735f4e43a75eae9dd6112b80458694c1ce812b0105f2d75f900",
    ),
    ("clean", 2**64 - 1): (
        "66b5c5d83d4cb6e4b67564a223e1a88f329a80076ad66dadb919ba82dae2768d",
        "d1719b85b70ee5f6741cb0ebf98d54b5b7f7535d95355c1a915a57f355e056b7",
        "6c9a40e5781f2af24730bb447e55816c6e3634b928973cef9036afad069dbc72",
    ),
    ("noisy", 0): (
        "46adbfca6b04f5ffb2302ea1419637d51286f13650124ac42b8255f66640754f",
        "943454cf07169d0078c81ab4f29b08d205f9e6476de26bc0b66266f35306846c",
        "69efdb2d6f3b648c8777807acdf7c17b19c6c19beea3ba666e3805ea1bb710b8",
    ),
    ("noisy", 2**64 - 1): (
        "8c5437a023b7941b6958ad68b94114a21ae7bc476c06644d33ecf4ace0c8cfc4",
        "54a9993bae8223704f1a738986b264651f93afc61d24525dfc00459ddc84dfd9",
        "0652c2462d0b1154c940c8012643b787bfb9c8bac183b971c2f8a436754accb3",
    ),
    ("zero_f3", 0): (
        "077ea0ac80213d7c5610d03093cf9004b54a3cea2e43751a31108f1b2066136d",
        "74225ab8de1f4479a9718afd958d09891f1bf536a327049c47442982c92fa969",
        "14a50af5698e6735f4e43a75eae9dd6112b80458694c1ce812b0105f2d75f900",
    ),
    ("zero_f3", 2**64 - 1): (
        "4a81cc6b680f8498d1523d771d09d8834a9dff4725b0db1cb42ec294087aae18",
        "c7d6b1d855c189753d63cf387e97410a686f0eaf48783a154f83aa5cb49d8b51",
        "6c9a40e5781f2af24730bb447e55816c6e3634b928973cef9036afad069dbc72",
    ),
    ("one_pair", 0): (
        "c5835384efb4a7dd0ed90bf7333eaf645e7a5a7c0e5e96139d2f87f4c9775ef1",
        "0c1b7a9df43788fbf67817997be845d2b3439f07ad07ee9594de0a668cf07b5b",
        "2d9dc57ee7c149b1f04f1679a2c2fba112febbe8782c71a4cc4aa38bff80ac4c",
    ),
    ("one_pair", 2**64 - 1): (
        "88dba9be7e8a8cf6dd38a40308ab413e812e4b1eb76efdeaf19512df909874cb",
        "e38ee3f33906b5bb8571d56120302d34692a68c2b8ff8af1cfd523d65a675164",
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
#: of the noisy config.
GOLDEN_SWEEP = {
    0: (
        "671b33e4b60cb794fef7836ba670d304eadb588e259aea964cc1d496dcdada73",
        "bcc3db4cbcbee8393365f4457e5972176492ab6870a3f268631d8bad9fc5f068",
    ),
    2**64 - 4: (
        "5d7f4c51f46bd3961b527443714433faf3d110c187860be22c2f80d806811d71",
        "285f5e6eea8555f5dc5f4b6fbb00e1a2ccbc0163b55207017d84027b07daece3",
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
