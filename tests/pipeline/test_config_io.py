"""Tests of config serialization: dict round trips, experiment files and
dotted-key overrides."""

import json

import pytest

from repro.pipeline import (
    ExperimentConfig,
    apply_overrides,
    load_experiment,
    parse_override_items,
    resolve_base_config,
)


class TestDictRoundTrip:
    @pytest.mark.parametrize("n", [20, 40, 80])
    @pytest.mark.parametrize("family", ["digits", "fashion"])
    def test_laptop_round_trip_identity(self, family, n):
        cfg = ExperimentConfig.laptop(family, n=n, seed=3)
        data = cfg.to_dict()
        rebuilt = ExperimentConfig.from_dict(data)
        assert rebuilt == cfg
        assert rebuilt.to_dict() == data

    @pytest.mark.parametrize("family", ["digits", "letters"])
    def test_paper_scale_round_trip_identity(self, family):
        cfg = ExperimentConfig.paper_scale(family, seed=1)
        data = cfg.to_dict()
        rebuilt = ExperimentConfig.from_dict(data)
        assert rebuilt == cfg
        assert rebuilt.to_dict() == data

    def test_dict_is_json_serializable_and_nested(self):
        data = ExperimentConfig.laptop("digits", n=20).to_dict()
        json.dumps(data)  # must not raise
        assert isinstance(data["system"], dict)
        assert isinstance(data["slr"], dict)
        assert isinstance(data["twopi"], dict)
        assert data["system"]["n"] == 20

    def test_round_trip_survives_json(self):
        cfg = ExperimentConfig.laptop("kuzushiji", n=40,
                                      precision="single")
        rebuilt = ExperimentConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        assert rebuilt == cfg

    def test_unknown_top_level_key_rejected(self):
        data = ExperimentConfig.laptop("digits", n=20).to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            ExperimentConfig.from_dict(data)

    def test_unknown_nested_key_rejected_with_context(self):
        data = ExperimentConfig.laptop("digits", n=20).to_dict()
        data["slr"]["warp_factor"] = 9
        with pytest.raises(ValueError, match=r"slr\.warp_factor"):
            ExperimentConfig.from_dict(data)

    def test_missing_required_key_rejected_by_name(self):
        with pytest.raises(ValueError,
                           match=r"missing ExperimentConfig key\(s\): system"):
            ExperimentConfig.from_dict({"family": "digits"})

    def test_missing_nested_key_named_with_context(self):
        from dataclasses import dataclass

        from repro.utils import dataclass_from_dict

        @dataclass
        class Inner:
            size: int

        with pytest.raises(ValueError, match=r"outer\.size"):
            dataclass_from_dict(Inner, {}, context="outer")

    def test_post_init_validation_still_applies(self):
        data = ExperimentConfig.laptop("digits", n=20).to_dict()
        data["family"] = "klingon"
        with pytest.raises(ValueError, match="klingon"):
            ExperimentConfig.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            ExperimentConfig.from_dict("not a dict")

    def test_missing_keys_take_defaults(self):
        cfg = ExperimentConfig.from_dict({
            "family": "digits",
            "system": {"n": 20, "phase_init": "high"},
        })
        assert cfg.system.n == 20
        assert cfg.seed == 0
        assert cfg.slr.rho == pytest.approx(0.1)


class TestOverrides:
    def cfg(self):
        return ExperimentConfig.laptop("digits", n=20)

    def test_top_level_override(self):
        assert apply_overrides(self.cfg(),
                               {"n_train": 77}).n_train == 77

    def test_nested_override(self):
        cfg = apply_overrides(self.cfg(), {"slr.block_size": 5,
                                           "twopi.iterations": 42})
        assert cfg.slr.block_size == 5
        assert cfg.twopi.iterations == 42

    def test_cli_strings_parsed_once_via_parse_override_items(self):
        # The CLI path: parse_override_items JSON-decodes exactly once;
        # apply_overrides uses values as given.
        parsed = parse_override_items(["n_train=96", "roughness_p=1e-4",
                                       "precision=single"])
        cfg = apply_overrides(self.cfg(), parsed)
        assert cfg.n_train == 96
        assert cfg.roughness_p == pytest.approx(1e-4)
        assert cfg.precision == "single"

    def test_quoted_string_value_stays_a_string(self):
        # --set key='"5"' must yield the *string* "5", not the int 5 —
        # apply_overrides must not re-decode what parse_override_items
        # already decoded.
        parsed = parse_override_items(['precision="single"'])
        assert parsed == {"precision": "single"}
        assert apply_overrides(self.cfg(), parsed).precision == "single"
        assert parse_override_items(['family="5"']) == {"family": "5"}

    def test_family_override_rejected(self):
        # The family fixes the canonical block sizes, so overriding it
        # alone would keep the base family's: the spec below would give
        # fashion with digits' 5/5 at n=40, not fashion's 4/4.
        with pytest.raises(ValueError, match="top-level 'family' key"):
            apply_overrides(self.cfg(), {"family": "fashion"})
        with pytest.raises(ValueError, match="--family"):
            resolve_base_config({"base": "laptop", "family": "digits",
                                 "set": {"family": "fashion"}})

    def test_apply_overrides_uses_values_as_given(self):
        cfg = apply_overrides(self.cfg(), {"n_train": 96})
        assert cfg.n_train == 96

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="warp_factor"):
            apply_overrides(self.cfg(), {"warp_factor": 1})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ValueError, match="slr"):
            apply_overrides(self.cfg(), {"slr.warp_factor": 1})

    def test_unknown_sub_config_rejected(self):
        with pytest.raises(ValueError, match="bad override key"):
            apply_overrides(self.cfg(), {"engine.threads": 4})

    def test_too_deep_key_rejected(self):
        with pytest.raises(ValueError, match="bad override key"):
            apply_overrides(self.cfg(), {"slr.block.size": 5})

    def test_whole_nested_config_key_rejected(self):
        with pytest.raises(ValueError, match="nested config"):
            apply_overrides(self.cfg(), {"slr": 5})

    def test_validation_applies_to_result(self):
        # block size 7 does not divide n=20 -> ExperimentConfig rejects.
        with pytest.raises(ValueError, match="block size"):
            apply_overrides(self.cfg(), {"slr.block_size": 7})

    def test_bad_twopi_k_rejected_before_training(self):
        with pytest.raises(ValueError, match="k must be 4 or 8"):
            apply_overrides(self.cfg(), {"twopi.k": 6})

    def test_twopi_k_must_match_roughness_k(self):
        # A roughness_k "before" over a twopi.k "after" is a silently
        # wrong 2-pi reduction; the message names both keys.
        for overrides in ({"twopi.k": 4}, {"roughness_k": 4}):
            with pytest.raises(ValueError,
                               match=r"twopi\.k=4 .*roughness_k=8|"
                                     r"twopi\.k=8 .*roughness_k=4"):
                apply_overrides(self.cfg(), overrides)
        cfg = apply_overrides(self.cfg(), {"twopi.k": 4, "roughness_k": 4})
        assert cfg.twopi.k == cfg.roughness_k == 4

    def test_empty_overrides_return_config(self):
        cfg = self.cfg()
        assert apply_overrides(cfg, {}) is cfg

    def test_parse_override_items(self):
        parsed = parse_override_items(["slr.block_size=5", "family=digits",
                                       "twopi.polish=false"])
        assert parsed == {"slr.block_size": 5, "family": "digits",
                          "twopi.polish": False}

    def test_parse_override_items_bad_item(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_override_items(["slr.block_size"])


class TestExperimentFiles:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if name.endswith(".json")
                        else payload)
        return path

    def test_json_base_laptop(self, tmp_path):
        path = self.write(tmp_path, "exp.json", {
            "recipe": "ours_a",
            "base": "laptop",
            "family": "fashion",
            "n": 20,
            "seed": 4,
            "set": {"n_train": 64, "twopi.iterations": 11},
        })
        spec = load_experiment(path)
        assert spec.recipe == "ours_a"
        assert spec.config.family == "fashion"
        assert spec.config.system.n == 20
        assert spec.config.seed == 4
        assert spec.config.n_train == 64
        assert spec.config.twopi.iterations == 11

    def test_json_full_config(self, tmp_path):
        full = ExperimentConfig.laptop("digits", n=20).to_dict()
        path = self.write(tmp_path, "exp.json",
                          {"recipe": "baseline", "config": full})
        spec = load_experiment(path)
        assert spec.config == ExperimentConfig.laptop("digits", n=20)

    def test_seed_governs_whole_run_in_full_config_form(self, tmp_path):
        # Both schema forms give `seed` the same semantics: it threads
        # into the 2-pi solver too, like the canonical scales do.
        full = ExperimentConfig.laptop("digits", n=20).to_dict()
        path = self.write(tmp_path, "exp.json",
                          {"config": full, "seed": 7})
        spec = load_experiment(path)
        assert spec.config.seed == 7
        assert spec.config.twopi.seed == 7
        base_path = self.write(tmp_path, "base.json",
                               {"base": "laptop", "n": 20, "seed": 7})
        base_spec = load_experiment(base_path)
        assert base_spec.config.twopi.seed == 7

    def test_paper_base(self, tmp_path):
        path = self.write(tmp_path, "exp.json",
                          {"recipe": "ours_c", "base": "paper",
                           "family": "digits"})
        spec = load_experiment(path)
        assert spec.config.system.n == 200
        assert spec.config.n_train == 60000

    def test_paper_base_rejects_n(self, tmp_path):
        path = self.write(tmp_path, "exp.json",
                          {"base": "paper", "n": 40})
        with pytest.raises(ValueError, match="laptop"):
            load_experiment(path)

    def test_config_and_base_mutually_exclusive(self, tmp_path):
        full = ExperimentConfig.laptop("digits", n=20).to_dict()
        path = self.write(tmp_path, "exp.json",
                          {"config": full, "base": "laptop"})
        with pytest.raises(ValueError, match="mutually exclusive"):
            load_experiment(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "exp.json", {"recipee": "ours_c"})
        with pytest.raises(ValueError, match="recipee"):
            load_experiment(path)

    def test_unknown_base_rejected(self, tmp_path):
        path = self.write(tmp_path, "exp.json", {"base": "mainframe"})
        with pytest.raises(ValueError, match="mainframe"):
            load_experiment(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_experiment(path)

    def test_unrecognized_suffix_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("recipe: ours_c")
        with pytest.raises(ValueError, match="suffix"):
            load_experiment(path)

    def test_recipe_optional(self, tmp_path):
        path = self.write(tmp_path, "exp.json", {"base": "laptop",
                                                 "n": 20})
        assert load_experiment(path).recipe is None

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self.write(tmp_path, "exp.toml", "\n".join([
            'recipe = "ours_b"',
            'base = "laptop"',
            'family = "digits"',
            "n = 20",
            "[set]",
            '"n_train" = 50',
            '"slr.block_size" = 4',
        ]))
        spec = load_experiment(path)
        assert spec.recipe == "ours_b"
        assert spec.config.n_train == 50
        assert spec.config.slr.block_size == 4

    def test_repo_example_configs_load(self):
        # The shipped example files must stay valid.
        from pathlib import Path

        configs = (Path(__file__).resolve().parents[2] / "examples"
                   / "configs")
        spec = load_experiment(configs / "smoke.json")
        assert spec.recipe == "baseline"
        assert spec.config.system.n == 20
        spec = load_experiment(configs / "noisy_fullconfig.json")
        assert spec.recipe == "noisy"
        try:
            import tomllib  # noqa: F401
        except ImportError:
            return
        spec = load_experiment(configs / "ours_c_laptop.toml")
        assert spec.recipe == "ours_c"
