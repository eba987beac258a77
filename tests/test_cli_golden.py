"""Byte-identity guard: the CLI at its maximum degrees prints exactly these bytes.

A digest may change only together with a stated reason for the new output.
"""

import hashlib

import pytest

from cassoc.cli import main

GOLDEN = [
    ("cbh --degree 16 --format json", "4cfa14493a409e8d90c38e8bbcfb3fa9dc494b476fbe633278951f67d11fc9cc"),
    ("cmn --max-weight 16 --format json", "85ea166967d43c334fdd321fed038d27c3336378dbcc9b77c1793535f05b5855"),
    ("hexagon solve --family I --degree 16", "89d307c9bbe5cebdece792451ba9d4e07a0aa5123cfe8e7fd29c312d6c522a87"),
    ("hexagon solve --family II --degree 16", "b060ba4625058156ff1e76871c97162fd3472376fdc51e0d764f272e270fa460"),
    ("hexagon solve --family III --degree 16", "55f227b38e9632c745d0a9186b5746714564a8da5871f5562adc1c8ee0a70e56"),
    ("zeta drinfeld --degree 16 --format json", "7d550a04d57c826c334cae162c77af39a26e3fc0f6484e4b4b2f918cb8234483"),
    ("zeta drinfeld --degree 16", "a53cfcd9863d5d76420aa5c6057fe27268e0d9b73a55211520ff5ef843dae2b0"),
    ("zeta drinfeld --degree 16 --format latex", "b54bf9699454d64ed16a3ccb18977320714b088dc266f524e515f97f96343a62"),
    ("zeta solve-betas --degree 15", "de87ee928f8fc146c9f7343ee360b79e52283be9412ecc3735e954a0185ed8f0"),
    ("zeta solve-betas --degree 16", "496579a1ea1aa799f444a99eca7ef28358664f3cecdf587796659058b6838d21"),
    ("pentagon dims --degree 10 --variant L3bar", "a409bd84cd49c58ef9558e015633ac8f0467b0876f665c21176d1cdafbd2a757"),
    ("pentagon dims --degree 10 --variant L4bar", "45146f88b8691740631cfbd93b9a08989b65e8f8cf638a3330ee83a023bef9bb"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
