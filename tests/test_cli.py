import builtins
import dataclasses
import io
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sctk
import sctk.cli as cli
from sctk.cli import COMMANDS, _write_text, emit_corpus, load_config, main, parse_config
from sctk.errors import InvalidConfig, NumericalFailure
from sctk.nullcontrol import verify_theorem_5_1
from sctk.observability import assemble_forms, optimal_constant
from sctk.stabilizer import equivalence_harness
from sctk.systems import HorizonConfig
from sctk.trees import TreeDriver, build_tree

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


    @pytest.mark.parametrize(
        "key, value",
        [
            ("c", float("inf")),
            ("c", float("-inf")),
            ("c", float("nan")),
            ("T", float("inf")),
            ("T", 10**400),
            ("delta", float("nan")),
            ("k_max", -1),
        ],
    )
    def test_bad_scalar_exits_1(self, corpus_dir, tmp_path, capsys, key, value):
        # "c": Infinity ran synthesize to exit 0 with its NaN residuals
        # written as "-inf", and "k_max": -1 crashed stabilize on an empty
        # record list
        cfg = json.loads((corpus_dir / "s2.json").read_text())
        cfg[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        for command in ("synthesize", "stabilize", "theorem51"):
            out = str(tmp_path / command)
            assert main([command, "--config", str(path), "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("invalid config") and key in err


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

    def refuse(kernel, *args, **kwargs):
        leaves = kernel.tree.leaf_count
        raise AssertionError(f"synthesis swept a tree with {leaves} leaves")

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
        # 2a + c^2 = 2.25 > 0 and no control: H(1) = diag(2.25, 0) >= 0
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
        assert diag["certificate_margin"] == 1.0
        assert diag["certificate_Q"] == [[1.0]]

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
        assert [w["kind"] for w in rep["witness"].values()] == ["hautus"] * 4

    @pytest.mark.parametrize("delta", [0.0, 0.99999])
    def test_equivalence_needs_delta_in_the_unit_interval(self, corpus_dir, tmp_path,
                                                          capsys, delta):
        cfg = dict(json.loads((corpus_dir / "s4.json").read_text()), delta=delta)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["equivalence", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == (1 if delta == 0.0 else 0)
        if code:
            assert capsys.readouterr().err.startswith("invalid config")

    def test_equivalence_reads_no_grid_mesh_or_driver(self, corpus_dir, tmp_path):
        # T_grid and delta_grid are accepted for old configs but unread, and
        # no tree is built, so K and the driver change nothing either
        reports = []
        extras = ({}, {"T_grid": [3.0], "delta_grid": [0.1], "K": 9, "driver": "trinomial"})
        for i, extra in enumerate(extras):
            cfg = dict(json.loads((corpus_dir / "s4.json").read_text()), **extra)
            path = tmp_path / f"s4_{i}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"o{i}"
            assert main(["equivalence", "--config", str(path), "--out", str(out)]) == 0
            reports.append(json.loads((out / "equivalence_report.json").read_text())["report"])
        assert reports[0] == reports[1]
        assert {k: w["kind"] for k, w in reports[0]["witness"].items()} == {
            "riccati_solvable": "sare", "feedback_stabilizable": "gain",
            "weakly_observable": "lift", "null_controllable_with_cost": "lift"}

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
        assert not out.exists()

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

    def test_wide_driver_builds_no_branch_template(self, tmp_path):
        # d = 12 trinomial: 3^12 = 531 441 branches per node, whose template
        # alone would take 55 MB; only synthesize sweeps it, and the leaf
        # budget stops synthesize before it allocates anything that size
        eye = [1.0, 0.0, 0.0, 1.0]
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({
            "n": 2, "m": 2, "d": 12, "A": [0.0] * 4, "B": eye,
            "C": [[0.1 * v for v in eye]] * 12, "D": [[0.0] * 4] * 12,
            "T": 1.0, "K": 4, "driver": "trinomial",
        }))
        out = tmp_path / "o"

        def peak(command):
            tracemalloc.start()
            try:
                code = main([command, "--config", str(cfg), "--out", str(out)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["observe", "--config", str(cfg), "--out", str(out)])
        code, observe_peak = peak("observe")
        assert code == 0 and observe_peak < 1_000_000
        code, synthesize_peak = peak("synthesize")
        assert code == 3 and synthesize_peak < 1_000_000

    def test_overflowing_quadrature_is_an_invalid_config(self, corpus_dir, tmp_path, capsys):
        # from 371 levels hermgauss's weights overflow to NaN
        cfg = json.loads((corpus_dir / "s2.json").read_text())
        cfg.update({"driver": "quantized_gaussian", "gh_levels": 371})
        path = tmp_path / "s2_gh371.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(InvalidConfig, match="finite"):
            load_config(path)
        for command in ("validate", "observe"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("invalid config:")

    @pytest.mark.parametrize("command", ["observe", "stabilize"])
    def test_overflowing_recursion_exits_2(self, tmp_path, capsys, command):
        # Euler factor |1 - 2500 dt| = 18.5 at K = 128: the recursion's
        # P = R^T R overflows, which is a numerical failure, not a config
        # error, though the NaN it makes once reached the root finder
        cfg = {
            "n": 2, "m": 1, "d": 1, "A": [-2500.0, 0.0, 0.0, 1.0], "B": [0.0, 1.0],
            "C": [[0.0, 0.0, 0.0, 2.0]], "D": [[0.0, 0.0]],
            "T": 1.0, "K": 128, "delta": 0.5, "driver": "bernoulli",
        }
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: the Riccati recursion overflowed: P_0 is not finite"]
        assert not (tmp_path / "o").exists()

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

    def test_stabilize_failing_after_the_decay_run_leaves_no_out(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        # the decay table is computed before the SARE solve, and is written
        # only once the whole analysis has succeeded
        def fail(system):
            raise NumericalFailure("forced")

        monkeypatch.setattr(cli, "solve_sare", fail)
        out = tmp_path / "o"
        assert main(["stabilize", "--config", str(corpus_dir / "s2.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numerical failure: forced\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["s2", "s4"])
    def test_stabilize_at_zero_x0(self, corpus_dir, tmp_path, name):
        # stabilize accepts x0 = 0 like synthesize, theorem51 and riccati; the
        # lift certificate does not depend on x0 and the cost scales by s^2
        cfg = json.loads((corpus_dir / f"{name}.json").read_text())
        schema = json.loads(
            (Path(sctk.__file__).parent / "report_schema.json").read_text()
        )
        reports = {}
        for s in (1.0, 0.0, 1e-130, 3.0):
            cfg["x0"] = [s] * cfg["n"]
            path = tmp_path / f"{name}_x0.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"o{s}"
            assert main(["stabilize", "--config", str(path), "--out", str(out)]) == 0
            doc = json.loads((out / "stabilize_report.json").read_text())
            jsonschema.Draft7Validator(schema).validate(doc)
            reports[s] = doc["report"]["feedback_comparison"]
        base = reports[1.0]
        for s, fb in reports.items():
            assert fb["certificate"] == base["certificate"]
            assert fb["cost"] == pytest.approx(s * s * base["cost"], rel=1e-14)
        assert reports[0.0]["cost"] == reports[0.0]["value_at_x0"] == 0.0

    @pytest.mark.parametrize("name", ["s1", "s2", "s4", "m0"])
    def test_stabilize_reports_the_equivalence_certificate(self, corpus_dir, tmp_path, name):
        config = str(corpus_dir / f"{name}.json")
        assert main(["stabilize", "--config", config, "--out", str(tmp_path / "s")]) == 0
        assert main(["equivalence", "--config", config, "--out", str(tmp_path / "e")]) == 0
        stab = json.loads((tmp_path / "s" / "stabilize_report.json").read_text())
        equiv = json.loads((tmp_path / "e" / "equivalence_report.json").read_text())
        witness = equiv["report"]["witness"]
        assert stab["report"]["feedback_comparison"]["certificate"] == witness["weakly_observable"]

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

    def test_invariance_on_an_empty_grid_writes_the_header(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        cfg = dict(json.loads((corpus_dir / "s2.json").read_text()), K_grid=[])
        path = tmp_path / "s2_empty.json"
        path.write_text(json.dumps(cfg))
        assert main(["invariance", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "invariance_table.csv").read_text() == "driver,K,delta,T,c_opt,observable\n"
        rep = json.loads((out / "invariance_report.json").read_text())["report"]
        assert rep == {"rows": [], "gaps": {}, "gaps_non_increasing": True}


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
                assert not out.exists()
        assert written == (4 if needs_constant else 5)

    def test_nan_value_is_a_numerical_failure(self):
        # infinities have a spelling in the report, NaN has none
        assert cli._jsonable([np.inf, -np.inf, np.float64(2.0)]) == ["inf", "-inf", 2.0]
        with pytest.raises(NumericalFailure, match="NaN"):
            cli._jsonable({"residual": [1.0, float("nan")]})

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "M0"])
    def test_one_walk_equals_the_walk_of_asdict(self, corpus, name):
        # the handlers hand their report dataclasses to write_report as they
        # are; the walk must equal the walk of dataclasses.asdict's copy
        sys_ = corpus[name]
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), sys_.d)
        forms = assemble_forms(tree, sys_)
        reports = (
            optimal_constant(forms, 0.5),
            verify_theorem_5_1(forms, 0.5),
            equivalence_harness(sys_, 0.5),
        )
        for rep in reports:
            assert cli._jsonable(rep) == cli._jsonable(dataclasses.asdict(rep))

    def test_dataclass_fields_keep_the_report_spelling(self):
        @dataclasses.dataclass(frozen=True)
        class Rep:
            c: float
            rows: list

        inner = Rep(np.float64(-np.inf), [np.int64(3), np.bool_(True)])
        assert cli._jsonable(Rep(math.inf, [inner, np.array([0.5])])) == {
            "c": "inf", "rows": [{"c": "-inf", "rows": [3, True]}, [0.5]],
        }
        with pytest.raises(NumericalFailure, match="NaN"):
            cli._jsonable(Rep(1.0, [{"x": np.array([np.nan])}]))
        with pytest.raises(NumericalFailure, match="NaN"):
            cli._jsonable(Rep(math.nan, []))


class TestSharedParser:
    """main() parses with one module-level parser for the whole process."""

    def test_no_argument_leaks_into_the_next_call(self, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["observe", "--config", str(corpus_dir / "s2.json"), "--out", out]) == 0
        capsys.readouterr()
        assert main(["observe", "--out", out]) == 1
        assert "command 'observe' requires --config" in capsys.readouterr().err
        args = cli._PARSER.parse_args(["validate"])
        assert (args.config, args.out) == (None, "sctk_out")

    def test_unknown_command_is_argparses_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense", "--out", "unused"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sctk [-h] [--config CONFIG] [--out OUT]")
        assert "argument command: invalid choice: 'nonsense'" in err
