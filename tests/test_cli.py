import builtins
import io
import json
import os
import stat
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sctk
import sctk.cli as cli
from sctk.cli import COMMANDS, _write_text, emit_corpus, load_config, main, parse_config
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

    @pytest.mark.parametrize(
        "key",
        ["n", "m", "d", "T", "K", "delta", "c", "gh_levels", "seed", "paths",
         "k_max", "max_leaves"],
    )
    def test_boolean_for_a_number_exits_1(self, corpus_dir, tmp_path, capsys, key):
        # JSON true is a Python bool, and bool is a subclass of int
        cfg = json.loads((corpus_dir / "s2.json").read_text())
        cfg[key] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(cfg))
        assert main(["observe", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config key {key!r} has wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("A", [True]),
            ("B", ["1"]),
            ("x0", [True]),
            ("C", [[True]]),
            ("C", [1.0]),
            ("D", [[[0.0]]]),
            ("K_grid", [True, 2]),
            ("K_grid", [2.7, 3]),
            ("delta_grid", [False, 0.5]),
            ("delta_grid", [[0.5]]),
            ("T_grid", [None]),
            ("x0", [float("inf")]),
            ("A", [float("nan")]),
            ("A", [10**400]),
            ("K_grid", [10**400]),
        ],
    )
    def test_bad_list_element_exits_1(self, corpus_dir, tmp_path, capsys, key, value):
        # each element was passed to float() or int() unchecked: booleans
        # ran as 0 or 1, K_grid 2.7 ran as K = 2, x0 Infinity ran with exit
        # 0, and a nested list, null or an int beyond the float range
        # escaped as a traceback
        cfg = json.loads((corpus_dir / "s2.json").read_text())
        cfg[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        for command in ("observe", "invariance", "equivalence"):
            out = str(tmp_path / command)
            assert main([command, "--config", str(path), "--out", out]) == 1
            assert f"config key {key!r} has wrong type" in capsys.readouterr().err


class TestWriteText:
    @pytest.mark.parametrize(
        "old_size, new_size",
        [(3000, 100), (10_000, 100), (10_000, 4097), (100, 10_000), (4096, 4096)],
    )
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old_size, new_size):
        # shrinking within a 4 KiB block and across one, growing, same size
        path = tmp_path / "f.csv"
        path.write_text("x" * old_size)
        inode = path.stat().st_ino
        new = "".join(chr(ord("a") + i % 26) for i in range(new_size))
        assert _write_text(path, new) == path
        assert path.read_text() == new
        assert path.stat().st_ino == inode  # rewritten in place, not replaced

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:1000]))
        path = tmp_path / "f.csv"
        new = "0123456789" * 1001
        _write_text(path, new)
        monkeypatch.undo()
        assert path.read_text() == new

    def test_missing_file_is_created(self, tmp_path):
        path = tmp_path / "new.json"
        _write_text(path, "{}\n")
        assert path.read_text() == "{}\n"

    def test_symlink_target_is_rewritten(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old contents, longer than the new ones\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        _write_text(link, "new\n")
        assert link.is_symlink()
        assert target.read_text() == "new\n"


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

    def test_unwritable_destination_exits_2(self, corpus_dir, tmp_path, capsys):
        # every command, whether it writes CSVs or only its report, turns
        # an --out it cannot create into exit 2 and one line on stderr
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        config = ["--config", str(corpus_dir / "s2.json")]
        for command in COMMANDS:
            extra = [] if command == "emit-corpus" else config
            code = main([command, *extra, "--out", str(blocker / "sub")])
            err = capsys.readouterr().err
            assert code == 2, command
            assert err.startswith("cannot write output:"), command
            assert err.count("\n") == 1, command

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


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail, instead of sweeping 2^40 leaves, if the budget guard is gone."""

    def refuse(tree, *args, **kwargs):
        raise AssertionError(f"synthesis swept a tree with {tree.leaf_count} leaves")

    monkeypatch.setattr(cli, "synthesize_control", refuse)


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

    def test_riccati_not_solvable_with_noise_reports_certificate(self, tmp_path):
        # 2a + c^2 = 2.25 > 0 and no control: value iteration proves growth
        cfg = tmp_path / "noisy.json"
        cfg.write_text(json.dumps(
            {"n": 1, "m": 1, "d": 1, "A": [1.0], "B": [0.0], "C": [[0.5]],
             "D": [[0.0]], "T": 1.0, "K": 2}
        ))
        out = tmp_path / "o"
        assert main(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "riccati_report.json").read_text())
        schema = json.loads(
            (Path(sctk.__file__).parent / "report_schema.json").read_text()
        )
        jsonschema.Draft7Validator(schema).validate(doc)
        diag = doc["report"]["diagnostics"]
        assert doc["report"]["solvable"] is False
        assert diag["evidence"] == "certificate"
        assert diag["certificate_growth"] > 1

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

    def test_budget_exceeded_exits_3(self, tmp_path, capsys, no_sweep):
        # only synthesize sweeps the tree node by node, so only it has a budget
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "n": 1, "m": 1, "d": 1, "A": [0.0], "B": [1.0],
            "C": [[0.0]], "D": [[0.0]], "T": 1.0, "K": 40,
        }))
        out = tmp_path / "o"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 3
        assert "budget 200000" in capsys.readouterr().err
        assert not (out / "control_field.csv").exists()

    def test_m0_past_the_leaf_budget(self, tmp_path):
        # A = C = D = 0, B = 1 on 2^40 leaves: c_opt = (1 - delta) / T
        # exactly at every K, and nothing but synthesize builds per-node data
        cfg = tmp_path / "m0_k40.json"
        cfg.write_text(json.dumps({
            "n": 1, "m": 1, "d": 1, "A": [0.0], "B": [1.0],
            "C": [[0.0]], "D": [[0.0]], "T": 1.0, "K": 40, "delta": 0.5,
        }))
        out = tmp_path / "o"
        assert main(["observe", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "observe_report.json").read_text())["report"]
        assert rep["c_opt"] == pytest.approx(0.5, abs=1e-10)
        assert main(["theorem51", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["stabilize", "--config", str(cfg), "--out", str(out)]) == 0

    def test_s4_at_k64_past_the_leaf_budget(self, corpus_dir, tmp_path, no_sweep):
        cfg = json.loads((corpus_dir / "s4.json").read_text())
        cfg["K"] = 64
        path = tmp_path / "s4_k64.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"

        def report(command):
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            return json.loads((out / f"{command}_report.json").read_text())["report"]

        assert np.isfinite(report("observe")["c_opt"])
        t51 = report("theorem51")
        assert t51["applicable"] and t51["forward_pass"]
        assert report("stabilize")["interval_contraction"] <= cfg["delta"]
        assert main(["synthesize", "--config", str(path), "--out", str(out)]) == 3

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
        code = main(["synthesize", "--config", str(corpus_dir / "s2.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        # the budget concerns the per-node output only
        code = main(["theorem51", "--config", str(corpus_dir / "s2.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 0

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
        assert not data[:, [2, 4, 6]].any()  # the *_se columns: exact moments

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

    def test_stabilize_report_ignores_seed_and_paths(self, corpus_dir, tmp_path):
        reports, tables = [], []
        for i, extra in enumerate(({}, {"seed": 7, "paths": 50})):
            cfg = dict(json.loads((corpus_dir / "s4.json").read_text()), **extra)
            path = tmp_path / f"s4_{i}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"o{i}"
            assert main(["stabilize", "--config", str(path), "--out", str(out)]) == 0
            reports.append(json.loads((out / "stabilize_report.json").read_text()))
            tables.append((out / "piecewise_decay.csv").read_text())
        assert reports[0]["report"] == reports[1]["report"]
        assert tables[0] == tables[1]
        assert [r["meta"]["seed"] for r in reports] == [0, 7]


class TestRerun:
    """A rerun into a used --out leaves what a run into a fresh one leaves."""

    @pytest.mark.parametrize(
        "command, key, values, table",
        [("synthesize", "K", (8, 3), "control_field.csv"),
         ("stabilize", "k_max", (8, 3), "piecewise_decay.csv")],
    )
    def test_shrinking_rerun_matches_fresh_run(
        self, corpus_dir, tmp_path, command, key, values, table
    ):
        base = json.loads((corpus_dir / "s2.json").read_text())
        paths = []
        for v in values:
            paths.append(tmp_path / f"{key}{v}.json")
            paths[-1].write_text(json.dumps(dict(base, **{key: v})))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for path in paths:
            assert main([command, "--config", str(path), "--out", str(reused)]) == 0
        assert main([command, "--config", str(paths[-1]), "--out", str(fresh)]) == 0
        assert (reused / table).read_bytes() == (fresh / table).read_bytes()
        report = f"{command}_report.json"
        docs = [json.loads((out / report).read_text()) for out in (reused, fresh)]
        assert docs[0]["report"] == docs[1]["report"]
        assert docs[0]["meta"]["config_hash"] == docs[1]["meta"]["config_hash"]

    def test_every_file_goes_through_one_writer(self, corpus_dir, tmp_path, monkeypatch):
        real_open = builtins.open

        def read_only_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                raise AssertionError(f"open({file!r}, {mode!r}) bypasses _write_text")
            return real_open(file, mode, *args, **kwargs)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{self} written outside _write_text")

        monkeypatch.setattr(builtins, "open", read_only_open)
        monkeypatch.setattr(io, "open", read_only_open)
        monkeypatch.setattr(Path, "write_text", refuse)
        monkeypatch.setattr(Path, "write_bytes", refuse)
        tables = {"invariance": "invariance_table.csv",
                  "synthesize": "control_field.csv",
                  "stabilize": "piecewise_decay.csv"}
        for command in COMMANDS:
            out = tmp_path / command
            if command == "emit-corpus":
                assert main([command, "--out", str(out)]) == 0
                assert sorted(p.name for p in out.iterdir()) == sorted(
                    p.name for p in corpus_dir.iterdir()
                )
                continue
            config = str(corpus_dir / "s2.json")
            assert main([command, "--config", config, "--out", str(out)]) == 0, command
            written = {p.name for p in out.iterdir()} - {f"{command}_report.json"}
            assert written == ({tables[command]} if command in tables else set()), command


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
