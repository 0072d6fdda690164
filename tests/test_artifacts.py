"""Seeded artifacts are a contract: small runs of every gap-measuring
experiment must reproduce pinned digests, bit for bit.

Each case runs one experiment into its own directory and hashes every file
it writes, after removing the wall-clock fields: the report's ``timings``
and table1's ``certify_ms`` and ``mean_certify_ms``.  A digest is the first
16 hex digits of the file's sha256.  The cases are small versions of the
README configs: certify, table1, tsp-fig2 on tsp-8 and tsp-6, mpc-fig4 and
validate on ``mpc`` and on ``uniform-gaps``, and an exact and a Monte Carlo
chi-sweep.

After a deliberate artifact change, print the new table with

    PYTHONPATH=src python tests/test_artifacts.py

replace PINNED with it, and name the changed files and the reason in the
change's notes.
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from gapcert.experiments import run

MPC_ORACLE = {"method": "refine-min", "n0": 2000, "gap_tolerance": 1.0}

# (directory, config, directory whose certificate a validate run reads)
CASES = [
    ("certify", {"experiment": "certify", "seed": 7,
                 "benchmark": "rastrigrin2", "n_p": 300, "n_v": 300,
                 "epsilon": 0.01, "chi": 0.1}, None),
    ("table1", {"experiment": "table1", "seed": 11, "trials": 3, "n_p": 300,
                "n_v": 300, "epsilon": 0.01, "chi": 0.1}, None),
    ("fig2-tsp8", {"experiment": "tsp-fig2", "seed": 3, "tsp_random": 8,
                   "n_p": 1000, "chi": 0.1, "trials": 5,
                   "confidence": 0.999}, None),
    ("fig2-tsp6", {"experiment": "tsp-fig2", "seed": 3, "tsp_random": 6,
                   "n_p": 1000, "chi": 0.1, "trials": 5,
                   "confidence": 0.999}, None),
    ("fig4-mpc", {"experiment": "mpc-fig4", "seed": 5, "family": "mpc",
                  "r": 5, "epsilon": 0.01, "n_p_list": [50, 100],
                  "m_validate": 5, "oracle": MPC_ORACLE}, None),
    ("validate-mpc", {"experiment": "validate", "seed": 9, "family": "mpc",
                      "n_p": 100, "m_validate": 5, "oracle": MPC_ORACLE},
     "fig4-mpc"),
    ("fig4-uniform", {"experiment": "mpc-fig4", "seed": 5,
                      "family": "uniform-gaps", "r": 20, "epsilon": 0.01,
                      "n_p_list": [2, 5], "m_validate": 20}, None),
    ("validate-uniform", {"experiment": "validate", "seed": 9,
                          "family": "uniform-gaps", "n_p": 5,
                          "m_validate": 20}, "fig4-uniform"),
    ("chi-exact", {"experiment": "chi-sweep", "seed": 4, "tsp_random": 7,
                   "n_p": 300, "trials": 3}, None),
    ("chi-monte-carlo", {"experiment": "chi-sweep", "seed": 4,
                         "benchmark": "rastrigrin2", "n_p": 300, "trials": 3,
                         "mc_samples": 2000}, None),
]

PINNED = {
    "certify/certificate.json": "7c35a9907468de7b",
    "certify/infoset.csv": "28e5d0479783f1eb",
    "certify/infoset.manifest.json": "e14578d212641df9",
    "certify/report.json": "129676d89a1b3e20",
    "chi-exact/chi_p.csv": "2110e62b9eb19a00",
    "chi-exact/config.json": "135b5eb0184310d6",
    "chi-exact/records.csv": "e57ccf78bebae18f",
    "chi-exact/report.json": "5835485d4f96c1f4",
    "chi-monte-carlo/chi_p.csv": "9104b800051ccef8",
    "chi-monte-carlo/config.json": "ff272ab50219f447",
    "chi-monte-carlo/records.csv": "d7cb041fcd68ef04",
    "chi-monte-carlo/report.json": "1433b0a45276b1e0",
    "fig2-tsp6/bound_vs_gap.csv": "1991d54a14c2b670",
    "fig2-tsp6/config.json": "cda8386eb2afa0e5",
    "fig2-tsp6/records.csv": "0b46652ae9ff45dd",
    "fig2-tsp6/report.json": "77cc9c9666953891",
    "fig2-tsp6/running_fraction.csv": "7aaa1a9d5ef6ea46",
    "fig2-tsp8/bound_vs_gap.csv": "a3a1004110cedbf4",
    "fig2-tsp8/config.json": "ce0797908f1b5076",
    "fig2-tsp8/records.csv": "8e2bbce53f1a99c6",
    "fig2-tsp8/report.json": "1bba28404c61fe77",
    "fig2-tsp8/running_fraction.csv": "7aaa1a9d5ef6ea46",
    "fig4-mpc/certificate_np100.json": "59016a1eaf1eaed2",
    "fig4-mpc/certificate_np50.json": "ed2c91a0a01a2413",
    "fig4-mpc/config.json": "c2f83d494d4ee718",
    "fig4-mpc/fig4_hist_np100.csv": "be6d5f32940993db",
    "fig4-mpc/fig4_hist_np50.csv": "d1469d34accec5c1",
    "fig4-mpc/fig4_markers.csv": "28459ac9ec0a75a3",
    "fig4-mpc/records.csv": "73b8b35d5707e5f7",
    "fig4-mpc/report.json": "a4e70ca38d460042",
    "fig4-uniform/certificate_np2.json": "0cde238c4b072dc1",
    "fig4-uniform/certificate_np5.json": "2c9535f057911dfe",
    "fig4-uniform/config.json": "bdd5fdd614a252e1",
    "fig4-uniform/fig4_hist_np2.csv": "0762b5352e58586b",
    "fig4-uniform/fig4_hist_np5.csv": "ddb31d7283a8e739",
    "fig4-uniform/fig4_markers.csv": "a349ebd4bb5df076",
    "fig4-uniform/records.csv": "ea2a4d6fa7639d6a",
    "fig4-uniform/report.json": "e502d1da793bbbbb",
    "table1/config.json": "3b18d94dfc9335e4",
    "table1/records.csv": "512400a4d1b7ab46",
    "table1/report.json": "0f87843e81b6c866",
    "table1/table1.csv": "939165bb25627ef7",
    "validate-mpc/certificate_np100.json": "59016a1eaf1eaed2",
    "validate-mpc/config.json": "49ebd886b2a4d22c",
    "validate-mpc/records.csv": "7bb5f6e82cdb6e5f",
    "validate-mpc/report.json": "1af12eb3ca46c9c6",
    "validate-uniform/certificate_np5.json": "2c9535f057911dfe",
    "validate-uniform/config.json": "797ba97eafefad16",
    "validate-uniform/records.csv": "63349eccc652c93f",
    "validate-uniform/report.json": "c7e34522aca2ab63",
}


def scrubbed(path: Path) -> str:
    """The file's text without its wall-clock fields."""
    text = path.read_text(encoding="utf-8")
    if path.name == "report.json":
        report = json.loads(text)
        del report["timings"]
        for row in report["summary"].get("benchmarks", {}).values():
            del row["mean_certify_ms"]
        return json.dumps(report, indent=2)
    if path.name in ("records.csv", "table1.csv"):
        rows = [line.split(",") for line in text.splitlines()]
        keep = [i for i, column in enumerate(rows[0])
                if column not in ("certify_ms", "mean_certify_ms")]
        return "\n".join(",".join(row[i] for i in keep) for row in rows)
    return text


def digests(root: Path) -> dict[str, str]:
    """Run every case under root; digest of each file by relative path."""
    for name, config, certificate_from in CASES:
        out = root / name
        out.mkdir()
        if certificate_from is not None:
            cert = f"certificate_np{config['n_p']}.json"
            shutil.copy(root / certificate_from / cert, out / cert)
        run(config, out_dir=out)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(scrubbed(path).encode()).hexdigest()[:16]
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_artifacts_match_pinned_digests(tmp_path):
    assert digests(tmp_path) == PINNED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",')
