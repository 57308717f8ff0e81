"""Golden command-line outputs: each README command in text, --json and --approx.

The sha256 of stdout and the exit code of every run are pinned, so a change
to the front end that alters one byte of a report, or one exit code, fails
here.  The usage errors pin their stderr too.
"""

import hashlib

import pytest

from kstab.cli import main

PRISM = "-1 -1 -1\n1 0 -1\n0 1 -1\n-1 -1 1\n1 0 1\n0 1 1\n"

# README's commands; "{prism}" stands for a file holding PRISM
COMMANDS = {
    "sinv": ["sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--A", "1"],
    "flag-sinv": ["flag-sinv", "--model", "bl_p3_quintic", "--surface", "S", "--curve", "L - e1 - e2"],
    "zariski": ["zariski", "--model", "dp4", "--class", "9/4 L - e1 - e2 - e3 - e4 - e5"],
    "lattice disc": ["lattice", "disc", "--gram", "22 0; 0 -2"],
    "lattice overlattices": ["lattice", "overlattices", "--gram", "2 0; 0 -2"],
    "lattice primitive": ["lattice", "primitive", "--gram", "22 0; 0 -2"],
    "lattice saturate": ["lattice", "saturate", "--gram", "22 11 6; 11 4 1; 6 1 -2", "--sub", "1 0 0; 0 1 0"],
    "lattice search": ["lattice", "search", "--form", "-22 + 28*c - 8*c^2", "--op", ">", "--box", "c=-100..100"],
    "nl classify": ["nl", "classify", "--h", "11", "--m", "4"],
    "toric check": ["toric", "check", "--vertices", "{prism}"],
    "models list": ["models", "list"],
    "verify-paper": ["verify-paper"],
}

# (command, mode) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("sinv", ""): (0, "dc04ca3673c7d95337eb36ecc6e9101ae3fe04c43a7b59c0f44cb27ccfdb11e8"),
    ("sinv", "--json"): (0, "9dc54799918054fca180bcd05009a8753d3f9e6bbbea007daef1b7b51c1230b6"),
    ("sinv", "--approx"): (0, "dcdd994e417f526d98126af80d7d138c3077c084784f499874b652dc5598e180"),
    ("flag-sinv", ""): (0, "36b0c88b332c98bb4e16257d7991c8537f2074ce7421711b20e27c12ec4b4b33"),
    ("flag-sinv", "--json"): (0, "912d066f086e77ad33d282545dd695d99330f36a7f4cafa0c4272cd14479c91f"),
    ("flag-sinv", "--approx"): (0, "f8054bb30cc4f084444693760aceba1a124b015c830fe7732ecf0f6a3a444320"),
    ("zariski", ""): (0, "8c1771f26101fde154f29b432ab3fee34efa97210caa2538bae894cb015fec9e"),
    ("zariski", "--json"): (0, "245ed27f6b1ef56a5e822b823e4dc7dc293279ca68559d89fc9f51bfa3189583"),
    ("zariski", "--approx"): (0, "c70fd6092228cb55f5e20d2b30a28ca15c5a71d77399f1fc11d286aeb04182ba"),
    ("lattice disc", ""): (0, "2eb9a093833cb3bb8643eddd39d44a34a6891481fd66b8e2776bbc7cc08b192d"),
    ("lattice disc", "--json"): (0, "149e740871590ddd53bf0868294d98a4c7dcd5d208e198365ea7362de62c5e69"),
    ("lattice disc", "--approx"): (0, "2eb9a093833cb3bb8643eddd39d44a34a6891481fd66b8e2776bbc7cc08b192d"),
    ("lattice overlattices", ""): (0, "d3262035e6a3973e243445b51d2192e789bdda70b6edd1e19c1bc1745b139a3c"),
    ("lattice overlattices", "--json"): (0, "338220ffc2907555d1d42a89d26c7c5a728854c45aa5ef71f8b11f6cce14d2a0"),
    ("lattice overlattices", "--approx"): (0, "d3262035e6a3973e243445b51d2192e789bdda70b6edd1e19c1bc1745b139a3c"),
    ("lattice primitive", ""): (0, "fcc462eb74af26c204a1f024a21bdeb9b0ab260718bff1851fe982ae8f865510"),
    ("lattice primitive", "--json"): (0, "f7630fa93f921e6dec56586264766f19e1357059256c02f825a53ae2cb637302"),
    ("lattice primitive", "--approx"): (0, "fcc462eb74af26c204a1f024a21bdeb9b0ab260718bff1851fe982ae8f865510"),
    ("lattice saturate", ""): (0, "1593e8d464ca54cf66b35e974b5ea00c6c920a22c69d52806516361428480a44"),
    ("lattice saturate", "--json"): (0, "a9733457f8dfef0d750230c27244ae99419e4a78cc982c04340e3b3e07360f39"),
    ("lattice saturate", "--approx"): (0, "1593e8d464ca54cf66b35e974b5ea00c6c920a22c69d52806516361428480a44"),
    ("lattice search", ""): (0, "8689240d103f820bc00acf51a206a29823645a9323d70d01c0a0da8d058ac86a"),
    ("lattice search", "--json"): (0, "52a7c267fd531d3c3e7f9bd4c14e19e981d9925393d16a98e54d3b7c48a2bfd2"),
    ("lattice search", "--approx"): (0, "8689240d103f820bc00acf51a206a29823645a9323d70d01c0a0da8d058ac86a"),
    ("nl classify", ""): (0, "3ad90ebead9992d0748478d2a6f625d0a4710203533543836d5b909d42cbb669"),
    ("nl classify", "--json"): (0, "7a35f7442fb06e32cf9125052b0c4407538022967dd96f547e93acf069e96c1c"),
    ("nl classify", "--approx"): (0, "3ad90ebead9992d0748478d2a6f625d0a4710203533543836d5b909d42cbb669"),
    ("toric check", ""): (0, "14b14d974e9bb5f2f6210e9cd92e2763f21877a33ff1524cc16f6172cc4170e3"),
    ("toric check", "--json"): (0, "4922ac74b3fa586bf4500225dab3c856cf9687d87b3f45fea41128d529c66e23"),
    ("toric check", "--approx"): (0, "14b14d974e9bb5f2f6210e9cd92e2763f21877a33ff1524cc16f6172cc4170e3"),
    ("models list", ""): (0, "7cb82fac71997eb92f149a6cbfd979d79f0c4d043cd65cf0d1d122cca0f73d80"),
    ("models list", "--json"): (0, "7c081c56bb51f5f6af0c378654079d82203826dfb5bca332afc2396233bf02c7"),
    ("models list", "--approx"): (0, "7cb82fac71997eb92f149a6cbfd979d79f0c4d043cd65cf0d1d122cca0f73d80"),
    # exit 2: the one known mismatch, flag:dp4-line at 73/88 against the printed 29/44
    ("verify-paper", ""): (2, "3b4a6b0e28cc8f60436fd8b572e9c1c63304bd485887ddf44f7df5d47d69293c"),
    ("verify-paper", "--json"): (2, "2a2aa9230b6da2ad2420a252dd2eae72236168f62138d08e11619e2cd910b1e2"),
    ("verify-paper", "--approx"): (2, "3b4a6b0e28cc8f60436fd8b572e9c1c63304bd485887ddf44f7df5d47d69293c"),
}


@pytest.mark.parametrize("name,mode", sorted(GOLDEN), ids=[f"{n}{' ' + m if m else ''}" for n, m in sorted(GOLDEN)])
def test_a_readme_command_prints_its_golden_bytes(capsys, tmp_path, name, mode):
    prism = tmp_path / "prism.txt"
    prism.write_text(PRISM)
    argv = [str(prism) if arg == "{prism}" else arg for arg in COMMANDS[name]] + ([mode] if mode else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, hashlib.sha256(captured.out.encode()).hexdigest()) == GOLDEN[name, mode]
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv,err",
    [
        (["sinv", "--model"], "usage error: argument --model: expected one argument\n"),
        (
            ["frobnicate"],
            "usage error: argument cmd: invalid choice: 'frobnicate' (choose from 'sinv', 'flag-sinv', "
            "'zariski', 'lattice', 'nl', 'toric', 'models', 'verify-paper')\n",
        ),
        (["lattice", "disc", "--gram", "a b"], "usage error: --gram takes rows of integers separated by ';', got 'a b'\n"),
    ],
    ids=["a-missing-value", "an-unknown-command", "a-gram-of-words"],
)
def test_a_usage_error_prints_its_golden_stderr(capsys, argv, err):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    # some Python versions quote argparse's choices and some do not, so quotes are not compared
    assert captured.err.replace("'", "") == err.replace("'", "")
