import json

import numpy as np
import pytest

from volume_oracle import monte_carlo_volume

_ACCEPTANCE_RESULTS = []

OCTAGON_SECTION = [
    [2, -1.2], [2, 1.2], [1.2, 2], [-1.2, 2], [-2, 1.2], [-2, -1.2], [-1.2, -2], [1.2, -2]
]


def standard_project_dict():
    """The tall-walled octagonal tunnel with one steep joint set dipping SE."""
    return {
        "schema_version": 1,
        "tunnel": {"section": OCTAGON_SECTION, "axis_trend_deg": 0.0},
        "joints": [
            {"id": "J1", "dip_deg": 60.0, "dip_direction_deg": 0.0, "friction_deg": 20.0},
            {"id": "J2", "dip_deg": 60.0, "dip_direction_deg": 120.0, "friction_deg": 20.0},
            {"id": "J3", "dip_deg": 60.0, "dip_direction_deg": 240.0, "friction_deg": 20.0},
        ],
        "fuzzy_joints": [
            {"id": "F1", "dip_deg": [55, 60, 60, 65], "dip_direction_deg": [-5, 0, 0, 5],
             "friction_deg": [15, 20, 20, 25]},
            {"id": "F2", "dip_deg": [55, 60, 60, 65], "dip_direction_deg": [115, 120, 120, 125],
             "friction_deg": [15, 20, 20, 25]},
            {"id": "F3", "dip_deg": [55, 60, 60, 65], "dip_direction_deg": [235, 240, 240, 245],
             "friction_deg": [15, 20, 20, 25]},
        ],
        "dataset": {
            "sample_count": 283,
            "seed": 11,
            "dip_range": [10, 35],
            "dip_direction_range": [100, 160],
            "friction_range": [15, 25],
            "angle_range": [31, 391],
        },
        "anfis": {"mfs_per_input": [2, 2, 2, 8, 2], "epochs": 30, "learn_rate": 0.01,
                  "ridge": 0.01},
        "geometry": {
            "shape": {"type": "line", "a": [0.9, 1, 1, 1.1], "b": [0.9, 1, 1, 1.1],
                      "c": [1.8, 2, 2, 2.2]},
            "bbox": [0, 0, 2, 2],
            "nx": 8,
            "ny": 8,
        },
    }


def principal_frame_monte_carlo(halfspaces, verts, n_points, seed, pad=0.05):
    """Monte-Carlo volume of a block, sampled in the principal-axis frame of its vertices.

    Rotating the block onto its principal axes preserves its volume, and the
    padded axis-aligned box around the rotated vertices fits a long sliver
    far better than a world-aligned box, so the estimator's standard error
    stays well below 1%.
    """
    centered = verts - verts.mean(axis=0)
    rotation = np.linalg.svd(centered)[2]  # rows are the principal axes
    rotated = verts @ rotation.T
    box = (rotated.min(axis=0) - pad, rotated.max(axis=0) + pad)
    return monte_carlo_volume([(rotation @ n, d) for n, d in halfspaces], box, n_points, seed)


@pytest.fixture
def project_file(tmp_path):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(standard_project_dict(), indent=1))
    return str(path)


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, passed, detail in _ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"[{status}] {name}{suffix}")
