"""Golden outputs: the sha256 of every artifact of fixed-seed CLI runs, pinned.

The determinism tests compare two runs of one tree, so they cannot see a
change that moves bytes.  These compare with hashes recorded for the numpy
version and machine below: a change that moves an artifact must update the
hash here, and log the old and new one.  float64 results may differ with
numpy's kernels, so in another environment the tests skip and name both.
"""

import hashlib
import os
import platform
from unittest import mock

import numpy as np
import pytest

from kerrsim import _parts
from kerrsim.cli import main

RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64"}

PIPELINE = {
    20230: {
        "alpha_0.23/input_model.json":
            "f5b69eee676f9a6a61b2a1d0ef6a867d70b335b00c52c0e93925020ac88b3aaa",
        "alpha_0.23/output_model.json":
            "b92a6ebcb49110c56af0ed788f7717077a97d4a75f96e5e41a9a73a039bee72d",
        "alpha_0.23/output_reconstructed.json":
            "0a62c16ecd16bdab9a47754c3f3a2973547c31d49b739a09bee8ead7651fcd8b",
        "alpha_0.23/reconstruction_diag.json":
            "5398bc3212324763ac2f1e0aec415e22a5f5233d0602773691ac93825b361981",
        "alpha_0.23/samples.npy":
            "a5af3db943beef8685bed54124f27ee18cb67d19c09bbe6283774e898e3c9a57",
        "alpha_0.23/samples_meta.json":
            "283b671bd9d4b39a92609d8d2fe1e539c0e68943585058b03b52ef8ab8add546",
        "alpha_0.23/tables/input_model.csv":
            "d9c6a4161f0b2c424daeee813187fe19eee6c9776153cc6470ed077fab4bcac3",
        "alpha_0.23/tables/output_model.csv":
            "26b224910cf54ca17056c51574636ddab4cb171c80295bde93513ce2be8ed1ed",
        "alpha_0.23/tables/output_reconstructed.csv":
            "3eb76e60cd5e54cd0d773f03263b173f1c86a217425abf49a0ddc4f9cc3affd3",
        "alpha_0.53/input_model.json":
            "9e65edbd3f48164a608fcde33be27cd1d2549460dcfbcf772c9cee1bf7220068",
        "alpha_0.53/output_model.json":
            "35fc9b44a459b43cfcf1d13e5f84364dd6e0c241fd9cfc536da983197544f7da",
        "alpha_0.53/output_reconstructed.json":
            "e1b3904f9ed4965a917fdb088c82a9b118e2e7d23cefbb002f83f2f43bd044b0",
        "alpha_0.53/reconstruction_diag.json":
            "a6940e4c37a414df2f0d5f2719547a9ba99e51a2adc2364aed46b9951d52bcfa",
        "alpha_0.53/samples.npy":
            "701add238ced2bc88e431812e0df3f5ef9e5ee9b02dbf90d8d0abd72f9615f62",
        "alpha_0.53/samples_meta.json":
            "34f8a32f656f7d3465ebf3a0d00dfc14b9045a04eea71518a143c24a500e4533",
        "alpha_0.53/tables/input_model.csv":
            "447561e3a20f809be02d0490a46143a404dc2d6c470bcf334384b2ce9cf78a73",
        "alpha_0.53/tables/output_model.csv":
            "ac6d8ca7eed7c0e371e3945f615bb9f138d11fbb73b49edda83fc1c0c3137051",
        "alpha_0.53/tables/output_reconstructed.csv":
            "3fb1162844bc732a282a15b6d399c6dd9768e2bc227e832f6ad885b5331f82a3",
        "alpha_0.79/input_model.json":
            "7fbfa5b347c3868df43c93625910d814078fc8e934a96d7ea5a04385e013b7d1",
        "alpha_0.79/output_model.json":
            "4ba2cbc05f11dab457a073952317ac6d1f0c4a98bb296867ffb5945930912616",
        "alpha_0.79/output_reconstructed.json":
            "4ddd3454698421803f5f55c56ad885136781e92f494bf044252ffd8f581b3dd7",
        "alpha_0.79/reconstruction_diag.json":
            "9f0be6d69f8008e6946016d0a301e185ed13dbe95087d4a6f2c1984821ccc522",
        "alpha_0.79/samples.npy":
            "1162528107ebf1c82d9d4367e164017c358ba205ad6a342750b4a796354d96b8",
        "alpha_0.79/samples_meta.json":
            "37bdaa589da1f781a14672ff1bc99de9f8a1186343d9bd113e9106c7e62ee401",
        "alpha_0.79/tables/input_model.csv":
            "e3b0244610199acfaca194232ad00948a3bcc7315017f16fff9df85e692bddc8",
        "alpha_0.79/tables/output_model.csv":
            "25e9af74c933bc28212fbda1a8bd319fc44b436ad952c51e4b7f26f1cc7119f4",
        "alpha_0.79/tables/output_reconstructed.csv":
            "d284e73fb196fed040c258e713f9ad47d7d19c97c64cfcea5f074c76d80c5b3d",
        "report.json":
            "b01dda563f09e4ec17075a7de3a676491dd1b2c4536b91b1f990a5b4ab7b3dcd",
    },
    4242: {
        "alpha_0.23/input_model.json":
            "f5b69eee676f9a6a61b2a1d0ef6a867d70b335b00c52c0e93925020ac88b3aaa",
        "alpha_0.23/output_model.json":
            "b92a6ebcb49110c56af0ed788f7717077a97d4a75f96e5e41a9a73a039bee72d",
        "alpha_0.23/output_reconstructed.json":
            "fc7aeb4f5334e3a9512eaf5111a3414d8b77f8aabec08cb0092f3858ecedfc6e",
        "alpha_0.23/reconstruction_diag.json":
            "86e42b2d9f06f81c78133d9c8e049bc33190e90e493d0dc4dce96c0751c0a5d4",
        "alpha_0.23/samples.npy":
            "63fe9786089ac7b4728a5d8a51e0fd9592f5634eb6f89b3e6c57042e03991d23",
        "alpha_0.23/samples_meta.json":
            "67c39b490afe90872502b4b589c77338a2b5bad188660930b07cfcb70ab2e8e5",
        "alpha_0.23/tables/input_model.csv":
            "d9c6a4161f0b2c424daeee813187fe19eee6c9776153cc6470ed077fab4bcac3",
        "alpha_0.23/tables/output_model.csv":
            "26b224910cf54ca17056c51574636ddab4cb171c80295bde93513ce2be8ed1ed",
        "alpha_0.23/tables/output_reconstructed.csv":
            "f67e8b1966155e549ee7d7c6d707dda7e9afb6b355cf695ea50c90d7b7d21c11",
        "alpha_0.53/input_model.json":
            "9e65edbd3f48164a608fcde33be27cd1d2549460dcfbcf772c9cee1bf7220068",
        "alpha_0.53/output_model.json":
            "35fc9b44a459b43cfcf1d13e5f84364dd6e0c241fd9cfc536da983197544f7da",
        "alpha_0.53/output_reconstructed.json":
            "7ce7817f5560547991ef8ecd8c592c3c3ee12993e7e1970884c669ac783cd29a",
        "alpha_0.53/reconstruction_diag.json":
            "04741b5797e2d589450415eaba635b62d633d3259d2d9cb5b137ea48c6da1a33",
        "alpha_0.53/samples.npy":
            "ef5ff7cc865222509fd80833d7e78af56d2d822f98850ed14fdb6e16bda6a246",
        "alpha_0.53/samples_meta.json":
            "aa06f340c0bc684178ad46b5d5c93f006a5bc6923dc894112de04c77ac3f34a0",
        "alpha_0.53/tables/input_model.csv":
            "447561e3a20f809be02d0490a46143a404dc2d6c470bcf334384b2ce9cf78a73",
        "alpha_0.53/tables/output_model.csv":
            "ac6d8ca7eed7c0e371e3945f615bb9f138d11fbb73b49edda83fc1c0c3137051",
        "alpha_0.53/tables/output_reconstructed.csv":
            "7e6578eb765c219d0dc786a106b7a0cc99f142d017da62a7cf25e0c17a702a99",
        "alpha_0.79/input_model.json":
            "7fbfa5b347c3868df43c93625910d814078fc8e934a96d7ea5a04385e013b7d1",
        "alpha_0.79/output_model.json":
            "4ba2cbc05f11dab457a073952317ac6d1f0c4a98bb296867ffb5945930912616",
        "alpha_0.79/output_reconstructed.json":
            "bd2f69232a154a22143b6fa6e600620f3892eb423ed47df7b64f0fadf69d3cf4",
        "alpha_0.79/reconstruction_diag.json":
            "2e88120e68feb8f01dd098a79ab4b5ddaf6fe7bc9685fb7de860a0dcb3016515",
        "alpha_0.79/samples.npy":
            "b4529b0d7072d847dba6e35cfdb07b7164288ab9b1813889a4ec4ec4ceb7322f",
        "alpha_0.79/samples_meta.json":
            "da00a6e12060e0267c1b1664d0765e31ba53a6e846612d5148dfb4bc50e50e48",
        "alpha_0.79/tables/input_model.csv":
            "e3b0244610199acfaca194232ad00948a3bcc7315017f16fff9df85e692bddc8",
        "alpha_0.79/tables/output_model.csv":
            "25e9af74c933bc28212fbda1a8bd319fc44b436ad952c51e4b7f26f1cc7119f4",
        "alpha_0.79/tables/output_reconstructed.csv":
            "62078de9965cd4f65bcc520e82096435d9336d3d90266c217838b287dd9a088b",
        "report.json":
            "feb9d280ba33bae00aade58ed3e82420e5d5bfcdc763a030f3075b12e13388c7",
    },
}
SAMPLE_AND_RECONSTRUCT = {
    "out/alpha_0.53/samples.csv":
        "7a6c9500ac4f27b3af3ab34f23df02d76be562fe6c38438f9c0bf5c252cae785",
    "out/alpha_0.53/samples_meta.json":
        "dd2300166441cd9975d9bb779cf354aa3f431f1d72ab9e68d9bab8f0f3908fcc",
    "rec/reconstructed.json":
        "8e5770b682861efaf89f7ae45310ad197f760d8aee17692929075764271150de",
    "rec/reconstruction_diag.json":
        "f99cfc2e48ffeab33ea2d737a9c65d2b04c27ef99f67dc3b290c734969a72be9",
}
KLM = {
    "klm_table.csv": "f57f95692bc5fb5083b22c70eb93bd0c114d0c24f70f84cbe0f4d57f350d96c3",
    "klm_table.json": "f9eb7d8083317f03f21e458dbfee64308d12ca2b7d91f6292d7ef9aedb167e47",
}


def _require_recorded_environment() -> None:
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != RECORDED_ON:
        pytest.skip(f"hashes recorded on {RECORDED_ON}, this environment is {here}")


def _hashes(root: str, keep=lambda name: True) -> dict:
    """sha256 of every file under ``root`` that ``keep`` takes, by its path from ``root``."""
    found = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if keep(rel):
                with open(path, "rb") as fh:
                    found[rel] = hashlib.sha256(fh.read()).hexdigest()
    return found


@pytest.mark.parametrize("seed", sorted(PIPELINE))
def test_pipeline_artifacts_are_golden(seed, tmp_path, monkeypatch):
    _require_recorded_environment()
    monkeypatch.chdir(tmp_path)  # report.json records the outdir as given
    assert main(["pipeline", "--seed", str(seed), "--out", "out"]) == 0
    assert _hashes("out", lambda rel: rel == "report.json" or rel.startswith("alpha_")) \
        == PIPELINE[seed]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sample_and_reconstruct_artifacts_are_golden(cpus, tmp_path, monkeypatch):
    _require_recorded_environment()
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(_parts, "_usable_cpus", return_value=cpus):
        assert main(["sample", "--alpha", "0.53", "--samples-per-phase", "16667",
                     "--out", "out"]) == 0
        assert main(["reconstruct", "--samples", "out/alpha_0.53/samples.csv",
                     "--out", "rec"]) == 0
    assert _hashes(".") == SAMPLE_AND_RECONSTRUCT


def test_klm_table_is_golden(tmp_path, monkeypatch):
    _require_recorded_environment()
    monkeypatch.chdir(tmp_path)
    assert main(["klm", "--out", "out"]) == 0
    assert _hashes("out") == KLM
