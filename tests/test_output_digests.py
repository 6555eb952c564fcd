"""Byte pins: SHA-256 digests of the stdout and the exit code of CLI commands
whose output prints point sets, primes and closed sets, beyond the jobs
pinned by `perfbench/golden.json`.  A change of representation inside the
library must leave every byte of these outputs as it was.
"""

import hashlib
import io

import pytest

from xtoplat.cli import main


def _digest(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


PINNED = {
    "export --bni 12 6 --format json --subspace all":
        "ece5dcc26049a20f7f1ee0785f7f60fe80732f90325ae4d7ccbea63445499f0d",
    "export --bni 12 6 --format json --subspace max":
        "372050e5bdd9d862d8edb847b7f6bbcc0efe81ed5e1ee3f63d8210ba47f4bff4",
    "export --bni 12 6 --format json --subspace min":
        "d0adecc69ed995131f8ede0149ddcdeed77fab45f40b062157e98f320531cc8e",
    "export --bni 12 6 --format json --subspace drop-zero":
        "5f9b9e4a977dad94da783b566edef1dd757b04dcb14edda0e5f583f8c83643ed",
    "export --bni 12 3 --format dot --closed-sets":
        "6ef6dbd488671675c42c75149816f24454c264d5c0ba0cdec2df0e98933145c2",
    "export --s3 --format json":
        "f77b3081256d84d2a9b397ed8e1d52bc7cc91691f06f449cffbe405d1eb7eea7",
    "export --forest T2+V3 --format json":
        "703209cbc66b3372f0ffea9d36ed7cd112b8ab50b8c3a8d8551d6ac76fa967ef",
    "export --forest T2+V3 --format dot --closed-sets":
        "a9fba17999c86ae6939a23046df00c8cd6f9a04efdb75005571865aaa2fd73a6",
    "spec --bni 30 25 --json":
        "2671b9a25851a22e5840d3e9e191a2a956e550ce545300057e2173bd51191261",
    "spec --s3 --json":
        "693c38c19da527a0a8be47ae75701deacfe97cef94807287f351ba4200d6287e",
    "spec --bni 2 1 --subspace drop-zero":
        "d86e1256ee013b2889e489456c8776cac27860ae77f02652650e7654fd360313",
    "verify all":
        "929bd2127babf3b327705504921a8fab87eea02943ff07d783d8fef5aaa2f599",
    "verify bni --max-n 30":
        "cdf0fb2954bb764e722a7f04f056c714a7f112d49c300a4aec1034b4ed7cb70b",
    # between them every read of the order behind a printed flag takes
    # both values
    "classify --forest T2":
        "eaf356a5c8476a0e595ae493dea828189256175fd27e3a5e1561e459dc6338f0",
    "classify --forest V2 --json":
        "96a506d8b8aae227e275b664f13d4c0a4b0b9fedaeb9d595f8a8c1501364e1ea",
    "classify --forest C3+C3 --json":
        "cf310e1031595dbc3cd9c987edc922f626195ad690a6563ae0d78852413152ba",
    "classify --forest C1+C1+C1":
        "afa6d4f1051ba375e21a20d120ef0c8a2e808be660b2a29cdfd2af7ac5c7c6db",
    "classify --chain 1 --json":
        "bb9fa03ff1f8c85e833d21add9dd89524b2c48918308c393319bc5f7c7eb397e",
    "classify --forest T3+V2+C4":
        "2a56ae97c6986e33e29cf5e9c6272d556236408c14ea4a5800298bc1da25a2a4",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_output_bytes_are_pinned(command):
    assert _digest(command.split()) == (0, PINNED[command])


def test_space_file_read_back_is_pinned(tmp_path):
    # the JSON export of C2+C2+C2 read back by `classify --space`
    out = io.StringIO()
    assert main(["export", "--forest", "C2+C2+C2", "--format", "json"], out=out) == 0
    path = tmp_path / "space.json"
    path.write_text(out.getvalue(), encoding="utf-8")
    assert _digest(["classify", "--space", str(path)]) == (
        0,
        "6932107387c81c41cd29b4beb571f1f2f4ef7c43d31f8c099f45fbebcfc1bccb",
    )
