import json
import logging

import pytest

from fuzzyblock.project import (
    ProjectIOError,
    ProjectSchemaError,
    ProjectSemanticError,
    ProjectSyntaxError,
    parse_project,
    parse_project_dict,
)
from conftest import standard_project_dict


def write(tmp_path, doc):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseProject:
    def test_minimal_file_fills_defaults(self, tmp_path):
        doc = {
            "schema_version": 1,
            "tunnel": {"section": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
            "joints": [
                {"id": "J1", "dip_deg": 30, "dip_direction_deg": 0, "friction_deg": 20}
            ],
        }
        cfg = parse_project(write(tmp_path, doc))
        assert cfg.delta_variant == "paper"
        assert cfg.label_thresholds == (0.95, 0.7, 0.3)
        assert cfg.anfis.epochs == 30
        assert cfg.dataset is None
        assert len(cfg.joints) == 1

    def test_full_standard_project(self, tmp_path):
        cfg = parse_project(write(tmp_path, standard_project_dict()))
        assert len(cfg.joints) == 3
        assert len(cfg.fuzzy_joints) == 3
        assert cfg.dataset is not None
        assert cfg.dataset.sample_count == 283
        assert cfg.anfis.mfs_per_input == (2, 2, 2, 8, 2)
        assert cfg.geometry is not None

    def test_missing_file(self):
        with pytest.raises(ProjectIOError):
            parse_project("/nonexistent/path.json")

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProjectSyntaxError):
            parse_project(str(path))

    def test_unknown_key_named(self):
        doc = standard_project_dict()
        doc["joints"][0]["frction"] = 20
        with pytest.raises(ProjectSchemaError, match="frction"):
            parse_project_dict(doc)

    def test_unknown_top_key(self):
        doc = standard_project_dict()
        doc["tunel"] = {}
        with pytest.raises(ProjectSchemaError, match="tunel"):
            parse_project_dict(doc)

    def test_schema_version_required(self):
        doc = standard_project_dict()
        del doc["schema_version"]
        with pytest.raises(ProjectSchemaError, match="schema_version"):
            parse_project_dict(doc)

    def test_dip_out_of_range_cites_bound(self):
        doc = standard_project_dict()
        doc["joints"][0]["dip_deg"] = 95
        with pytest.raises(ProjectSemanticError, match=r"\[0, 90\]"):
            parse_project_dict(doc)

    def test_friction_range(self):
        doc = standard_project_dict()
        doc["joints"][0]["friction_deg"] = 90
        with pytest.raises(ProjectSemanticError):
            parse_project_dict(doc)

    def test_duplicate_joint_ids(self):
        doc = standard_project_dict()
        doc["joints"][1]["id"] = "J1"
        with pytest.raises(ProjectSemanticError, match="unique"):
            parse_project_dict(doc)

    def test_plunge_must_be_zero(self):
        doc = standard_project_dict()
        doc["tunnel"]["axis_plunge_deg"] = 5.0
        with pytest.raises(ProjectSemanticError, match="plunge"):
            parse_project_dict(doc)

    def test_nonconvex_section(self):
        doc = standard_project_dict()
        doc["tunnel"]["section"] = [[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]]
        with pytest.raises(ProjectSemanticError, match="convex"):
            parse_project_dict(doc)

    def test_fuzzy_joint_trapezoid_order(self):
        doc = standard_project_dict()
        doc["fuzzy_joints"][0]["dip_deg"] = [65, 60, 60, 55]
        with pytest.raises(ProjectSemanticError):
            parse_project_dict(doc)

    def test_fuzzy_dip_direction_width(self):
        doc = standard_project_dict()
        doc["fuzzy_joints"][0]["dip_direction_deg"] = [0, 10, 20, 95]
        with pytest.raises(ProjectSemanticError, match="90"):
            parse_project_dict(doc)

    def test_delta_variant_checked(self):
        doc = standard_project_dict()
        doc["delta_variant"] = "classic"
        with pytest.raises(ProjectSemanticError, match="delta_variant"):
            parse_project_dict(doc)

    def test_label_thresholds_checked(self):
        doc = standard_project_dict()
        doc["label_thresholds"] = [0.3, 0.7, 0.95]
        with pytest.raises(ProjectSemanticError):
            parse_project_dict(doc)

    def test_resolution_ignored(self, caplog):
        # schema version 1 still accepts the retired key, of any value
        doc = standard_project_dict()
        doc["resolution"] = 10
        with caplog.at_level(logging.WARNING, logger="fuzzyblock.project"):
            cfg = parse_project_dict(doc)
        assert cfg == parse_project_dict(standard_project_dict())
        assert "$.resolution is ignored" in caplog.text

    def test_unit_weight_ignored(self, caplog):
        # SFs are friction-only: the key is checked, logged, and read by nothing
        bare = standard_project_dict()
        del bare["unit_weight_kn_m3"]
        doc = standard_project_dict()
        doc["unit_weight_kn_m3"] = 19.5
        with caplog.at_level(logging.WARNING, logger="fuzzyblock.project"):
            cfg = parse_project_dict(doc)
        assert cfg == parse_project_dict(bare)
        assert "$.unit_weight_kn_m3 is ignored" in caplog.text
        doc["unit_weight_kn_m3"] = -1.0
        with pytest.raises(ProjectSemanticError, match="unit_weight_kn_m3"):
            parse_project_dict(doc)
        doc["unit_weight_kn_m3"] = "heavy"
        with pytest.raises(ProjectSchemaError, match="unit_weight_kn_m3"):
            parse_project_dict(doc)

    def test_joint_location_ignored(self, caplog):
        doc = standard_project_dict()
        doc["joints"][1]["location"] = [1.0, -2.0, 0.5]
        with caplog.at_level(logging.WARNING, logger="fuzzyblock.project"):
            cfg = parse_project_dict(doc)
        assert cfg == parse_project_dict(standard_project_dict())
        assert "$.joints[1].location is ignored" in caplog.text
        doc["joints"][1]["location"] = [1.0, -2.0]
        with pytest.raises(ProjectSchemaError, match=r"joints\[1\]\.location"):
            parse_project_dict(doc)
        doc["joints"][1]["location"] = [1.0, -2.0, "up"]
        with pytest.raises(ProjectSchemaError, match=r"location\[2\]"):
            parse_project_dict(doc)

    def test_dataset_ranges_checked(self):
        doc = standard_project_dict()
        doc["dataset"]["dip_range"] = [50, 95]
        with pytest.raises(ProjectSemanticError, match="dip_range"):
            parse_project_dict(doc)

    def test_anfis_mfs_scalar_broadcast(self):
        doc = standard_project_dict()
        doc["anfis"]["mfs_per_input"] = 3
        cfg = parse_project_dict(doc)
        assert cfg.anfis.mfs_per_input == (3, 3, 3, 3, 3)

    def test_anfis_ridge_nullable(self):
        doc = standard_project_dict()
        doc["anfis"]["ridge"] = None
        cfg = parse_project_dict(doc)
        assert cfg.anfis.ridge is None

    def test_geometry_segment_and_polygon(self):
        doc = standard_project_dict()
        doc["geometry"] = {
            "shape": {
                "type": "segment",
                "p": {"x": 0.0, "y": [-0.1, 0, 0, 0.1]},
                "q": {"x": 1.0, "y": [-0.1, 0, 0, 0.1]},
            },
            "bbox": [-1, -1, 2, 1],
        }
        cfg = parse_project_dict(doc)
        assert cfg.geometry.nx == 40
        doc["geometry"] = {
            "shape": {
                "type": "polygon",
                "vertices": [
                    {"x": 0, "y": 0},
                    {"x": 1, "y": 0},
                    {"x": 1, "y": 1},
                ],
            },
            "bbox": [-1, -1, 2, 2],
            "nx": 5,
            "ny": 6,
        }
        cfg = parse_project_dict(doc)
        assert cfg.geometry.ny == 6

    def test_geometry_unknown_shape(self):
        doc = standard_project_dict()
        doc["geometry"]["shape"] = {"type": "circle"}
        with pytest.raises(ProjectSchemaError, match="circle"):
            parse_project_dict(doc)
