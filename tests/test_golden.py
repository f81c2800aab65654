"""CLI reports on fixed inputs, compared byte for byte with stored reports.

``tests/golden`` holds two measure files, the moment files ``gen`` writes
from them (q = 1 with m = 5, q = 2 with m = 6) and the report of each
command below on those inputs.  A change in any rendered digit, key or
line fails here.
"""

import json
from pathlib import Path

import pytest

from thmm.cli import main

GOLDEN = Path(__file__).parent / "golden"
Z = ["--z", "2+1i", "--z=-0.2+0.1i", "--z", "0.5+0.01i", "--z", "3"]

# name: (argv with input files named relative to GOLDEN, {output flag: expected file})
CASES = {
    "gen_q1": (["gen", "--input", "measure_q1.json", "--count", "5"],
               {"--output": "moments_q1.json"}),
    "gen_q2": (["gen", "--input", "measure_q2.json", "--count", "6"],
               {"--output": "moments_q2.json"}),
    "analyze_q1": (["analyze", "--input", "moments_q1.json"],
                   {"--output": "analyze_q1.json", "--params-out": "params_q1.json"}),
    "analyze_q2": (["analyze", "--input", "moments_q2.json"],
                   {"--output": "analyze_q2.json", "--params-out": "params_q2.json"}),
    "recover_q2": (["recover", "--input", "params_q2.json"],
                   {"--output": "recover_q2.json"}),
    "factorize_q2": (["factorize", "--input", "moments_q2.json", "--route", "second", *Z],
                     {"--output": "factorize_q2.json"}),
    "factorize_q1_second": (["factorize", "--input", "moments_q1.json", "--route", "second", *Z],
                            {"--output": "factorize_q1_second.json"}),
    "factorize_q1_first": (["factorize", "--input", "moments_q1.json", "--route", "first", *Z],
                           {"--output": "factorize_q1_first.json"}),
    "factorize_q2_first": (["factorize", "--input", "moments_q2.json", "--route", "first", *Z],
                           {"--output": "factorize_q2_first.json"}),
    "extremal_q2": (["extremal", "--input", "moments_q2.json", "--which", "krein", *Z],
                    {"--output": "extremal_q2.json"}),
    "scalar_report_q1": (["scalar-report", "--input", "moments_q1.json"],
                         {"--output": "scalar_report_q1.json"}),
    "factorize_q1_direct": (["factorize", "--input", "moments_q1.json", "--route", "direct", *Z],
                            {"--output": "factorize_q1_direct.json"}),
    "extremal_q1_friedrichs": (["extremal", "--input", "moments_q1.json", "--which", "friedrichs",
                                *Z],
                               {"--output": "extremal_q1_friedrichs.json"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    argv, outputs = CASES[name]
    argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in argv]
    for flag, expected in outputs.items():
        argv += [flag, str(tmp_path / expected)]
    assert main(argv) == 0
    for expected in outputs.values():
        assert (tmp_path / expected).read_bytes() == (GOLDEN / expected).read_bytes(), expected


@pytest.mark.parametrize("name, value", [("analyze_q1.json", "5.440092820663267e-15"),
                                         ("analyze_q2.json", "1.9344468226395842e-13")])
def test_max_identity_residual_is_the_largest_printed_one(name, value):
    # the gate leaves out no printed identity residual, and keeps its bytes
    text = (GOLDEN / name).read_text()
    assert f'\n  "max_identity_residual": {value}\n' in text
    report = json.loads(text)
    assert report["max_identity_residual"] == max(report["identity_residuals"].values())
