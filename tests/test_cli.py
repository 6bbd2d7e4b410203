import json
import os
import stat
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sctk
from sctk.cli import COMMANDS, emit_corpus, load_config, main, parse_config
from sctk.errors import InvalidConfig

GOLDEN = (1 + np.sqrt(5)) / 2


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    emit_corpus(out)
    return out


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig, match="mystery"):
            parse_config(
                {"n": 1, "m": 1, "d": 1, "A": [0.0], "B": [1.0], "T": 1.0,
                 "K": 2, "mystery": 1}
            )

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidConfig, match="'T'"):
            parse_config({"n": 1, "m": 1, "d": 1, "A": [0.0], "B": [1.0], "K": 2})

    def test_matrix_size_mismatch_names_key(self):
        with pytest.raises(InvalidConfig, match="'A'"):
            parse_config(
                {"n": 2, "m": 1, "d": 1, "A": [0.0], "B": [1.0, 0.0],
                 "T": 1.0, "K": 2}
            )

    def test_corpus_configs_parse(self, corpus_dir):
        for path in sorted(corpus_dir.iterdir()):
            cfg = load_config(path)
            assert cfg.system.n >= 1


class TestEmitCorpus:
    def test_writes_five_configs(self, corpus_dir):
        assert len(list(corpus_dir.glob("*.json"))) == 5

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_corpus(a)
        emit_corpus(b)
        for pa in sorted(a.iterdir()):
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_unwritable_destination_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["emit-corpus", "--out", str(blocker / "sub")])
        assert code == 2

    def test_read_only_directory_exits_2(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("permission bits do not constrain root")
        ro = tmp_path / "ro"
        ro.mkdir()
        os.chmod(ro, stat.S_IRUSR | stat.S_IXUSR)
        try:
            code = main(["emit-corpus", "--out", str(ro / "sub")])
        finally:
            os.chmod(ro, stat.S_IRWXU)
        assert code == 2


class TestCommands:
    def test_validate_ok(self, corpus_dir, tmp_path):
        code = main(
            ["validate", "--config", str(corpus_dir / "s1.json"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "o" / "validate_report.json").read_text())
        assert doc["report"]["valid"] is True

    def test_malformed_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "bogus_key": 2}))
        assert main(["validate", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_riccati_on_s2_reports_golden_ratio(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["riccati", "--config", str(corpus_dir / "s2.json"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "riccati_report.json").read_text())
        assert doc["report"]["solvable"] is True
        assert doc["report"]["P"][0][0] == pytest.approx(GOLDEN, abs=1e-9)

    def test_riccati_on_s3_reports_not_solvable(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["riccati", "--config", str(corpus_dir / "s3.json"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "riccati_report.json").read_text())
        assert doc["report"]["solvable"] is False

    def test_observe_record_schema(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["observe", "--config", str(corpus_dir / "m0.json"),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "observe_report.json").read_text())["report"]
        for key in ("driver", "K", "delta", "T", "c_opt", "observable"):
            assert key in rep
        assert rep["observable"] is True

    def test_equivalence_on_s3_all_false_exit_0(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["equivalence", "--config", str(corpus_dir / "s3.json"),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "equivalence_report.json").read_text())["report"]
        assert rep["riccati_solvable"] is False
        assert rep["feedback_stabilizable"] is False
        assert rep["weakly_observable"] is False
        assert rep["null_controllable_with_cost"] is False
        assert rep["agreement"] is True

    def test_budget_exceeded_exits_3(self, tmp_path):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "n": 1, "m": 1, "d": 1, "A": [0.0], "B": [1.0],
            "C": [[0.0]], "D": [[0.0]], "T": 1.0, "K": 40,
        }))
        assert main(["observe", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_removed_gram_budget_key_exits_1(self, corpus_dir, tmp_path, capsys):
        cfg = json.loads((corpus_dir / "m0.json").read_text())
        cfg["max_gram_dim"] = 4000
        path = tmp_path / "m0_gram.json"
        path.write_text(json.dumps(cfg))
        assert main(["observe", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key 'max_gram_dim'" in capsys.readouterr().err

    def test_delta0_past_the_old_gram_budget(self, corpus_dir, tmp_path):
        # 2^14 leaves: 16383 output rows, once past the 4000-row Gram budget
        cfg = json.loads((corpus_dir / "m0.json").read_text())
        cfg.update({"K": 14, "delta": 0.0})
        path = tmp_path / "m0_k14.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["observe", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "observe_report.json").read_text())["report"]
        assert rep["c_opt"] == pytest.approx(1.0 / cfg["T"], abs=1e-10)

    def test_env_var_tightens_budget(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SCTK_MAX_LEAVES", "4")
        code = main(["observe", "--config", str(corpus_dir / "s2.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_synthesize_unobservable_system_exits_1(self, corpus_dir, tmp_path):
        # S3 has no output at all, so no constant can exist at any delta
        code = main(["synthesize", "--config", str(corpus_dir / "s3.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_invalid_explicit_constant_exits_1(self, corpus_dir, tmp_path):
        cfg = json.loads((corpus_dir / "s2.json").read_text())
        cfg["c"] = 1e-9  # far below the optimal constant
        path = tmp_path / "bad_c.json"
        path.write_text(json.dumps(cfg))
        code = main(["synthesize", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_synthesize_writes_control_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["synthesize", "--config", str(corpus_dir / "s2.json"),
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out / "control_field.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 3  # node, depth, u0
        rep = json.loads((out / "synthesize_report.json").read_text())["report"]
        assert rep["all_bounds_hold"] is True

    def test_stabilize_writes_decay_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        cfg = json.loads((corpus_dir / "s1.json").read_text())
        cfg["paths"] = 500
        cfg["k_max"] = 3
        path = tmp_path / "s1_small.json"
        path.write_text(json.dumps(cfg))
        assert main(["stabilize", "--config", str(path), "--out", str(out)]) == 0
        data = np.loadtxt(out / "piecewise_decay.csv", delimiter=",", skiprows=1)
        assert data.shape[0] == 4

    def test_theorem51_report(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["theorem51", "--config", str(corpus_dir / "m0.json"),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "theorem51_report.json").read_text())["report"]
        assert rep["applicable"] and rep["forward_pass"] and rep["converse_pass"]

    def test_invariance_outputs_table(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        cfg = json.loads((corpus_dir / "s2.json").read_text())
        cfg["K_grid"] = [2, 3]
        path = tmp_path / "s2_inv.json"
        path.write_text(json.dumps(cfg))
        assert main(["invariance", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "invariance_table.csv").read_text().strip().splitlines()
        assert lines[0] == "driver,K,delta,T,c_opt,observable"
        assert len(lines) == 1 + 6  # 3 drivers x 2 meshes


class TestReproducibility:
    def test_report_section_is_deterministic(self, corpus_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["stabilize", "--config", str(corpus_dir / "s2.json"),
                         "--out", str(out)]) == 0
        d1 = json.loads((out1 / "stabilize_report.json").read_text())
        d2 = json.loads((out2 / "stabilize_report.json").read_text())
        assert json.dumps(d1["report"], sort_keys=True) == json.dumps(
            d2["report"], sort_keys=True
        )
        assert d1["meta"]["config_hash"] == d2["meta"]["config_hash"]


class TestReportSchema:
    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "emit-corpus"])
    def test_corpus_reports_validate(self, corpus_dir, tmp_path, command):
        schema = json.loads(
            (Path(sctk.__file__).parent / "report_schema.json").read_text()
        )
        validator = jsonschema.Draft7Validator(schema)
        written = 0
        for cfg in sorted(corpus_dir.glob("*.json")):
            out = tmp_path / cfg.stem
            code = main([command, "--config", str(cfg), "--out", str(out)])
            report = out / f"{command}_report.json"
            # S3 has no valid constant, so only its control commands exit 1
            needs_constant = command in ("synthesize", "stabilize")
            assert code == (1 if cfg.stem == "s3" and needs_constant else 0)
            if code == 0:
                validator.validate(json.loads(report.read_text()))
                written += 1
            else:
                assert not report.exists()
        assert written == (4 if needs_constant else 5)
