import json
import os
import pathlib
import subprocess
import sys

import pytest

import fuzzyblock
from fuzzyblock.project import (
    ProjectIOError,
    ProjectSchemaError,
    ProjectSemanticError,
    ProjectSyntaxError,
    parse_project,
    parse_project_dict,
)
from conftest import standard_project_dict
from test_tunnel import PENTAGRAM


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

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_integer_one(self, version):
        # True == 1 and 1.0 == 1 in Python, so equality alone admits them
        doc = standard_project_dict()
        doc["schema_version"] = version
        with pytest.raises(ProjectSchemaError, match=r"^\$\.schema_version must be an integer"):
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

    @pytest.mark.parametrize("section", ["joints", "fuzzy_joints"])
    @pytest.mark.parametrize("value", [None, 1, ["J1"], {"a": [1]}],
                             ids=["null", "number", "list", "object"])
    def test_joint_id_must_be_a_string(self, section, value):
        doc = standard_project_dict()
        doc[section][1]["id"] = value
        with pytest.raises(ProjectSchemaError,
                           match=rf"^\$\.{section}\[1\]\.id must be a string, got "):
            parse_project_dict(doc)

    def test_number_id_does_not_collide_with_string_id(self):
        # 1 is no id at all, rather than a duplicate of "1"
        doc = standard_project_dict()
        doc["joints"][0]["id"] = "1"
        doc["joints"][1]["id"] = 1
        with pytest.raises(ProjectSchemaError, match=r"^\$\.joints\[1\]\.id must be a string"):
            parse_project_dict(doc)

    def test_nonconvex_section(self):
        doc = standard_project_dict()
        doc["tunnel"]["section"] = [[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]]
        with pytest.raises(ProjectSemanticError, match="convex"):
            parse_project_dict(doc)
        # a pentagram turns one way at every vertex, but winds twice
        doc["tunnel"]["section"] = [list(vertex) for vertex in PENTAGRAM]
        with pytest.raises(ProjectSemanticError, match="convex"):
            parse_project_dict(doc)

    def test_repeated_section_vertex(self):
        doc = standard_project_dict()
        doc["tunnel"]["section"] = [[0, 0], [4, 0], [4, 0], [1, 3]]
        with pytest.raises(ProjectSemanticError, match=r"\$\.tunnel\.section: .*zero-length"):
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

    @pytest.mark.parametrize("dip", [[-5, 0, 10, 20], [80, 85, 90, 95]])
    def test_fuzzy_dip_support(self, dip):
        doc = standard_project_dict()
        doc["fuzzy_joints"][1]["dip_deg"] = dip
        with pytest.raises(ProjectSemanticError, match=r"^\$\.fuzzy_joints\[1\]: dip support"):
            parse_project_dict(doc)

    def test_delta_variant_checked(self):
        # the --delta-variant flag checks the variant; a project cannot set it
        doc = standard_project_dict()
        doc["delta_variant"] = "classic"
        with pytest.raises(ProjectSchemaError, match=r"^unknown key 'delta_variant' at \$$"):
            parse_project_dict(doc)

    def test_label_thresholds_checked(self):
        doc = standard_project_dict()
        doc["label_thresholds"] = [0.3, 0.7, 0.95]
        with pytest.raises(ProjectSemanticError):
            parse_project_dict(doc)

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda doc: doc.update(resolution=10), r"'resolution' at \$$"),
            (lambda doc: doc.update(bbox_margin_m=2.5), r"'bbox_margin_m' at \$$"),
            (lambda doc: doc.update(unit_weight_kn_m3=27.0), r"'unit_weight_kn_m3' at \$$"),
            (lambda doc: doc["joints"][1].update(location=[1.0, -2.0, 0.5]),
             r"'location' at \$\.joints\[1\]$"),
            (lambda doc: doc.update(seed_offset_m=0.7), r"'seed_offset_m' at \$$"),
            (lambda doc: doc.update(delta_variant="paper"), r"'delta_variant' at \$$"),
            (lambda doc: doc["tunnel"].update(axis_plunge_deg=0),
             r"'axis_plunge_deg' at \$\.tunnel$"),
        ],
        ids=["resolution", "bbox_margin_m", "unit_weight_kn_m3", "joint_location",
             "seed_offset_m", "delta_variant", "axis_plunge_deg"],
    )
    def test_retired_key_rejected(self, edit, path):
        # no computation reads these keys, or another source sets them, so the
        # schema no longer accepts them
        doc = standard_project_dict()
        edit(doc)
        with pytest.raises(ProjectSchemaError, match="^unknown key " + path):
            parse_project_dict(doc)

    def test_dataset_ranges_checked(self):
        doc = standard_project_dict()
        doc["dataset"]["dip_range"] = [50, 95]
        with pytest.raises(ProjectSemanticError, match=r"\$\.dataset: dip_range must stay"):
            parse_project_dict(doc)
        doc = standard_project_dict()
        doc["dataset"]["friction_range"] = [15, 90]
        with pytest.raises(ProjectSemanticError, match=r"\$\.dataset: friction_range must"):
            parse_project_dict(doc)
        doc = standard_project_dict()
        doc["dataset"]["angle_range"] = [0, float("inf")]
        with pytest.raises(ProjectSemanticError,
                           match=r"\$\.dataset\.angle_range\[1\] must be finite"):
            parse_project_dict(doc)

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda doc: doc.update(label_thresholds=[float("nan"), 0.5, 0.1]),
             r"\$\.label_thresholds\[0\]"),
            (lambda doc: doc["tunnel"].update(section=[[float("nan"), -1.2], [2, 1.2], [0, 2]]),
             r"\$\.tunnel\.section\[0\]\[0\]"),
            (lambda doc: doc["anfis"].update(learn_rate=float("nan")), r"\$\.anfis\.learn_rate"),
            (lambda doc: doc["joints"][0].update(dip_deg=-float("inf")),
             r"\$\.joints\[0\]\.dip_deg"),
            (lambda doc: doc["joints"][1].update(friction_deg=10**400),
             r"\$\.joints\[1\]\.friction_deg"),
        ],
        ids=["label_threshold_nan", "section_vertex_nan", "learn_rate_nan", "dip_minus_inf",
             "long_integer"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, edit, path):
        # json reads the bare tokens NaN and -Infinity; a long integer overflows a float
        doc = standard_project_dict()
        edit(doc)
        with pytest.raises(ProjectSemanticError, match=path + " must be finite"):
            parse_project(write(tmp_path, doc))

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
        doc["anfis"]["ridge"] = 0
        assert parse_project_dict(doc).anfis.ridge == 0.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ridge", -1, r"\$\.anfis\.ridge must be >= 0 or null"),
            ("learn_rate", -0.5, r"\$\.anfis\.learn_rate must be positive"),
            ("learn_rate", 0, r"\$\.anfis\.learn_rate must be positive"),
        ],
        ids=["ridge_negative", "learn_rate_negative", "learn_rate_zero"],
    )
    def test_anfis_step_sizes_checked(self, key, value, message):
        # a negative ridge would silently take the minimum-norm path, and a
        # learn rate <= 0 would climb the premise error
        doc = standard_project_dict()
        doc["anfis"][key] = value
        with pytest.raises(ProjectSemanticError, match=message):
            parse_project_dict(doc)

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

    @pytest.mark.parametrize("hash_seed", ["0", "1", "3"])
    def test_missing_key_independent_of_hash_seed(self, tmp_path, hash_seed):
        # the first missing key is named in the table's order, not in the
        # order of a set, which the hash seed picks for each interpreter
        doc = standard_project_dict()
        doc["joints"][0] = {"id": "J1"}
        path = write(tmp_path, doc)
        src = str(pathlib.Path(fuzzyblock.__file__).resolve().parent.parent)
        child = (
            "import sys\n"
            "from fuzzyblock.project import ProjectSchemaError, parse_project\n"
            "try:\n"
            "    parse_project(sys.argv[1])\n"
            "except ProjectSchemaError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", child, path], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "missing required key 'dip_deg' at $.joints[0]\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["joints"][0].update(frction=1, dip_deg=None),
             r"^unknown key 'frction' at \$\.joints\[0\]$"),
            (lambda doc: (doc["fuzzy_joints"][1].pop("friction_deg"),
                          doc["fuzzy_joints"][1].update(dip_deg="x")),
             r"^missing required key 'friction_deg' at \$\.fuzzy_joints\[1\]$"),
            (lambda doc: doc["joints"][0].update(dip_deg="x", friction_deg="y"),
             r"^\$\.joints\[0\]\.dip_deg must be a number"),
            (lambda doc: (doc["dataset"].update(dip_range=[50, 95]),
                          doc["anfis"].update(epochs="x")),
             r"^\$\.dataset: dip_range must stay"),
            (lambda doc: (doc["tunnel"].pop("section"), doc.update(tunel=1)),
             r"^unknown key 'tunel' at \$$"),
        ],
        ids=["unknown_before_bad_value", "missing_before_bad_value", "table_order",
             "dataset_before_anfis", "unknown_before_missing_section"],
    )
    def test_first_fault_named(self, edit, message):
        doc = standard_project_dict()
        edit(doc)
        with pytest.raises((ProjectSchemaError, ProjectSemanticError), match=message):
            parse_project_dict(doc)

    def test_rule_grid_cap_checked_at_parse(self):
        # 8 MFs on each of the 5 inputs make 32,768 rules, over the 1024 that
        # training takes: the parse rejects it before any dataset is generated
        doc = standard_project_dict()
        doc["anfis"]["mfs_per_input"] = [8, 8, 8, 8, 8]
        with pytest.raises(ProjectSemanticError,
                           match=r"^\$\.anfis\.mfs_per_input gives 32768 rules"):
            parse_project_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["anfis"].update(mfs_per_input=[2, 2, 1, 2, 2]),
             r"^\$\.anfis\.mfs_per_input entries must be >= 2$"),
            (lambda doc: doc["anfis"].update(epochs=0), r"^\$\.anfis\.epochs must be >= 1$"),
            (lambda doc: doc["geometry"].update(bbox=[0, 0, 0, 1]),
             r"^\$\.geometry\.bbox is degenerate: \[0\.0, 0\.0, 0\.0, 1\.0\]$"),
            (lambda doc: doc["geometry"].update(nx=1), r"^\$\.geometry\.nx must be at least 2$"),
            (lambda doc: doc["geometry"].update(ny=0), r"^\$\.geometry\.ny must be at least 2$"),
            (lambda doc: doc.update(label_thresholds=[0.3, 0.7, 0.95]),
             r"^\$\.label_thresholds must strictly decrease within \[0, 1\]$"),
        ],
        ids=["mfs_below_2", "zero_epochs", "degenerate_bbox", "nx_below_2", "ny_below_2",
             "thresholds_out_of_order"],
    )
    def test_owned_rules_named_at_key_path(self, edit, message):
        # these rules belong to surrogate.model, plane_geometry and
        # fuzzy_numbers; the parser adds the key path to the owner's message
        doc = standard_project_dict()
        edit(doc)
        with pytest.raises(ProjectSemanticError, match=message):
            parse_project_dict(doc)
