import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dyncapmoe

from dyncapmoe import analytics as an
from dyncapmoe import cli
from dyncapmoe import estimator as est
from dyncapmoe import harness as hn


@pytest.fixture
def tiny_config_file(tmp_path):
    cfg = hn.gradcheck_default_config()
    cfg = dataclasses.replace(cfg, steps=5, learning_rate=0.02)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    return path


@pytest.fixture
def paper_example_spec(tmp_path):
    """Text, then a 120 s clip at 0.5 fps with 3x3 frames, then 120 s audio."""
    spec = {
        "theta": 1,
        "segments": [
            {"kind": "text", "n_tokens": 5},
            {"kind": "video", "duration_s": 120.0, "fps": 0.5,
             "rows": 3, "cols": 3, "f_l": 8, "f_u": 64},
            {"kind": "audio", "duration_s": 120.0},
        ],
    }
    path = tmp_path / "segments.json"
    path.write_text(json.dumps(spec))
    return path


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["gradcheck", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "rope-dump" in capsys.readouterr().out

    def test_missing_required_flag_exits_2(self):
        assert cli.main(["analyze", "--layer", "0", "--out", "x.csv"]) == 2


@pytest.mark.parametrize("module", ["dyncapmoe", "dyncapmoe.cli"])
def test_module_forms_run_the_cli(module):
    src = str(Path(dyncapmoe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    failed = run("gradcheck", "--eps", "0")
    assert failed.returncode == 1 and "eps must be finite" in failed.stderr
    helped = run("--help")
    assert helped.returncode == 0 and "rope-dump" in helped.stdout


class TestRopeDump:
    @pytest.mark.parametrize("theta", [1, 2])
    def test_reproduces_worked_triples(self, paper_example_spec, tmp_path, theta):
        out = tmp_path / f"ids_{theta}.jsonl"
        code = cli.main(["rope-dump", "--segments", str(paper_example_spec),
                         "--theta", str(theta), "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        x, p, per_frame = 5, 2, 9
        video = [r for r in records if r["modality"] == "video"]
        audio = [r for r in records if r["modality"] == "audio"]
        assert len(video) == 60 * per_frame and len(audio) == 800
        assert (video[0]["t"], video[0]["h"], video[0]["w"]) == (x, x, x)
        second = video[per_frame]
        assert (second["t"], second["h"], second["w"]) == (x + 2 * theta, x, x)
        last = video[-1]
        assert (last["t"], last["h"], last["w"]) == (x + 118 * theta, x + p, x + p)
        y = 1 + max(max(r["t"], r["h"], r["w"]) for r in records[:5 + 540])
        assert (audio[0]["t"], audio[0]["h"], audio[0]["w"]) == (y, y, y)
        tail = audio[-1]
        assert (tail["t"], tail["h"], tail["w"]) == (y + 117 * theta,) * 3

    def test_theta_from_spec_file_when_flag_absent(self, tmp_path):
        spec = {"theta": 2, "segments": [{"kind": "audio", "duration_s": 6.0}]}
        path = tmp_path / "seg.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "ids.jsonl"
        assert cli.main(["rope-dump", "--segments", str(path), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[-1]["t"] == 6  # second unit at 3*theta with theta=2

    def test_stdout_when_no_out_flag(self, paper_example_spec, capsys):
        assert cli.main(["rope-dump", "--segments", str(paper_example_spec)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 + 540 + 800
        assert json.loads(lines[0]) == {"index": 0, "modality": "text",
                                        "t": 0, "h": 0, "w": 0}

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert cli.main(["rope-dump", "--segments", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"segments": [{"kind": "warp", "n": 1}]}))
        assert cli.main(["rope-dump", "--segments", str(path)]) == 1

    @pytest.mark.parametrize("spec,message", [
        ({"segments": [{"kind": "audio", "duration_s": float("inf")}]}, "duration_s"),
        ({"segments": [{"kind": "video", "duration_s": float("nan"), "fps": 1.0,
                        "rows": 2, "cols": 2}]}, "duration_s"),
        ({"theta": 1.5, "segments": [{"kind": "text", "n_tokens": 2}]}, "theta"),
        ({"theta": 2.0, "segments": [{"kind": "text", "n_tokens": 2}]}, "theta"),
        ({"theta": True, "segments": [{"kind": "text", "n_tokens": 2}]}, "theta"),
        ({"segments": [{"kind": "text", "n_tokens": 2.5}]}, "n_tokens"),
        ({"segments": [{"kind": "image", "rows": 1.5, "cols": 2}]}, "rows"),
        ({"segments": [{"kind": "audio", "duration_s": 10**400}]}, "duration_s"),
        ({"segments": [{"kind": "audio", "duration_s": "3"}]}, "duration_s"),
        ({"segments": 5}, "segments"),
        ({"segments": [5]}, "segments"),
        ({"theta": 1}, "segment spec must contain a 'segments' list"),
    ], ids=["infinite-audio", "nan-video", "fractional-theta", "float-theta", "bool-theta",
            "fractional-text-count", "fractional-image-rows", "overflowing-audio",
            "string-audio", "scalar-segments", "scalar-segment-item", "no-segments"])
    def test_invalid_spec_values_exit_1(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["rope-dump", "--segments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert "Traceback" not in captured.err and not captured.out


    @pytest.mark.parametrize("spec", [5, ["segments"], None],
                             ids=["number", "list", "null"])
    def test_spec_that_is_no_object_exits_1_saying_so(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["rope-dump", "--segments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: segment spec must be a JSON object, got {spec!r}\n"
        assert not captured.out


@pytest.mark.parametrize("command", ["gradcheck", "train"])
@pytest.mark.parametrize("config", [[1, 2], 5, "moe"], ids=["list", "number", "string"])
def test_config_that_is_no_object_exits_1_saying_so(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "train" else [])
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: a model config must be a JSON object, got {config!r}\n"
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("kind", [["text"], {"kind": "text"}, 1],
                         ids=["list", "object", "number"])
@pytest.mark.parametrize("command", ["rope-dump", "train"])
def test_a_segment_kind_that_is_no_string_exits_1_naming_it(tiny_config_file, tmp_path,
                                                            capsys, command, kind):
    segments = [{"kind": kind, "n_tokens": 2}]
    if command == "rope-dump":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"segments": segments}))
        argv = ["rope-dump", "--segments", str(path)]
    else:
        d = json.loads(tiny_config_file.read_text())
        d["segments"] = segments
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown segment kind {kind!r}\n"
    assert not captured.out and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["rope-dump", "train", "gradcheck"])
def test_a_video_frame_time_that_overflows_exits_1_naming_duration_and_theta(
        tiny_config_file, tmp_path, capsys, command):
    segments = [{"kind": "video", "duration_s": 1e308, "fps": 1.0, "rows": 1, "cols": 1,
                 "f_l": 1, "f_u": 4}]
    if command == "rope-dump":
        spec = {"segments": segments}
    else:
        spec = {**json.loads(tiny_config_file.read_text()), "segments": segments}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = {"rope-dump": ["rope-dump", "--segments", str(path)],
            "train": ["train", "--config", str(path), "--out", str(tmp_path / "run")],
            "gradcheck": ["gradcheck", "--config", str(path)]}[command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: video frame 2 of 4 has no finite time: "
                            "duration_s 1e+308 and theta 1 overflow\n")
    assert not captured.out and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["gradcheck", "train"])
@pytest.mark.parametrize("block", ["moe", "segments"])
def test_config_that_lacks_a_block_exits_1_naming_it(tiny_config_file, tmp_path, capsys,
                                                     command, block):
    d = json.loads(tiny_config_file.read_text())
    del d[block]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "run"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "train" else [])
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: .*missing 1 required .*argument: '{block}'\n", captured.err)
    assert not captured.out and not out.exists()


class TestGradcheckCommand:
    def test_default_config_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out and "unbiasedness" not in out

    def test_no_estimator_oracle_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gradcheck called an estimator oracle")

        monkeypatch.setattr(est, "estimator_expectation", refuse)
        monkeypatch.setattr(est, "exact_gradient_oracle", refuse)
        assert cli.main(["gradcheck"]) == 0

    def test_config_file_accepted(self, tiny_config_file):
        assert cli.main(["gradcheck", "--config", str(tiny_config_file)]) == 0

    def test_impossible_tolerance_exits_1(self, capsys):
        assert cli.main(["gradcheck", "--tol", "1e-300"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path):
        assert cli.main(["gradcheck", "--config", str(tmp_path / "no.json")]) == 1

    @pytest.mark.parametrize("segments", [5, [5]], ids=["scalar", "scalar-item"])
    def test_segments_not_a_list_of_objects_exits_1_naming_segments(
            self, tiny_config_file, tmp_path, capsys, segments):
        d = json.loads(tiny_config_file.read_text())
        d["segments"] = segments
        config = tmp_path / "segments.json"
        config.write_text(json.dumps(d))
        assert cli.main(["gradcheck", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: segments must be a list of objects")
        assert "Traceback" not in captured.err and not captured.out

    def test_json_report_matches_the_printed_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert cli.main(["gradcheck"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["gradcheck", "--json", str(path)]) == 0
        assert capsys.readouterr().out == plain  # stdout does not change
        data = json.loads(path.read_text(encoding="utf-8"))
        report = hn.grad_check(hn.gradcheck_default_config())
        assert data["eps"] == 1e-6 and data["tol"] == 1e-4 and data["passed"] is True
        assert [(b["name"], b["max_rel_err"], b["n_checked"], b["n_skipped"])
                for b in data["blocks"]] == \
            [(b.name, repr(b.max_rel_err), b.n_checked, b.n_skipped) for b in report.blocks]
        assert set(data) == {"eps", "tol", "passed", "blocks"}
        assert path.read_text(encoding="utf-8") == \
            json.dumps(report.to_json_dict(), indent=2) + "\n"

    def test_json_report_is_written_when_the_check_fails(self, tmp_path):
        path = tmp_path / "report.json"
        assert cli.main(["gradcheck", "--tol", "1e-300", "--json", str(path)]) == 1
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["passed"] is False and data["tol"] == 1e-300

    def test_unwritable_json_path_exits_1(self, tmp_path, capsys):
        assert cli.main(["gradcheck", "--json", str(tmp_path / "no" / "r.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_an_eps_that_overflows_a_probe_forward_exits_1_with_one_error_line(self, capsys):
        assert cli.main(["gradcheck", "--eps", "1e300"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: cross_entropy: 112 of 128 probe losses are not finite, the first is nan")
        assert captured.err.count("\n") == 1 and not captured.out

    @pytest.mark.parametrize("flag,value", [("--eps", "0"), ("--eps", "-1e-6"),
                                            ("--eps", "nan"), ("--eps", "inf"),
                                            ("--tol", "0"), ("--tol", "nan"),
                                            ("--tol", "inf")])
    def test_eps_and_tol_must_be_finite_and_positive(self, flag, value, capsys):
        assert cli.main(["gradcheck", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and flag[2:] in captured.err
        assert "gradcheck passed" not in captured.out


class TestTrainCommand:
    def test_zero_steps_writes_header_only_loss_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["train", "--steps", "0", "--out", str(out)])
        assert code == 0
        assert (out / "loss.csv").read_text() == "step,loss\n"
        assert (out / "trace.csv").read_text() == ",".join(an.CSV_COLUMNS) + "\n"
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert cli.main(["analyze", "--trace", str(out / "trace.csv"), "--layer", "0",
                         "--out", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no records for layer 0\n"
        assert not captured.out and not report.exists()

    def test_short_run_writes_curve_and_trace(self, tiny_config_file, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(tiny_config_file),
                         "--out", str(out)])
        assert code == 0
        loss_lines = (out / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "step,loss" and len(loss_lines) == 6
        trace = an.import_trace(out / "trace.csv")
        cfg = hn.ToyModelConfig.from_json_file(tiny_config_file)
        assert len(trace) == 5 * cfg.layers * cfg.batch

    def test_runs_are_byte_identical(self, tiny_config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["train", "--config", str(tiny_config_file),
                             "--seed", "11", "--out", str(out)]) == 0
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("field", ["noise", "learning_rate"])
    def test_non_finite_config_exits_1(self, tiny_config_file, tmp_path, capsys, field):
        d = json.loads(tiny_config_file.read_text())
        d[field] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be finite" in err
        assert not out.exists()

    def test_non_finite_rope_base_exits_1(self, tiny_config_file, tmp_path, capsys):
        d = json.loads(tiny_config_file.read_text())
        d["rope"]["base"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 1
        assert "error: base must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, field, got", [
        (("seed",), 1.5, "seed", "1.5"), (("moe", "seed"), 2.5, "seed", "2.5"),
        (("moe", "seed"), -1, "seed", "-1"), (("rope", "head_dim"), 6.0, "head_dim", "6.0"),
        (("rope", "split"), [2, 2.0, 2], "split", "2.0")])
    def test_non_integer_config_exits_1(self, tiny_config_file, tmp_path, capsys,
                                        path, value, field, got):
        d = json.loads(tiny_config_file.read_text())
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be an integer >= " in err
        assert f"got {got}" in err
        assert not out.exists()

    def test_a_scalar_rope_split_exits_1_naming_split(self, tiny_config_file, tmp_path,
                                                      capsys):
        d = json.loads(tiny_config_file.read_text())
        d["rope"]["split"] = d["rope"]["head_dim"]
        config = tmp_path / "split.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert "error: split must be three blocks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("moe", "top_p"), True, "top_p must be finite and in (0, 1], got True"),
        (("noise",), "0.1", "noise must be finite and >= 0, got '0.1'"),
        (("rope", "base"), "1e4", "base must be finite and > 0, got '1e4'")])
    def test_a_bool_or_string_real_setting_exits_1_naming_it(
            self, tiny_config_file, tmp_path, capsys, path, value, message):
        d = json.loads(tiny_config_file.read_text())
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda rope: rope.update(bse=rope.pop("base")), "'bse'"),
        (lambda rope: rope.pop("head_dim"), "'head_dim'")])
    def test_a_rope_block_with_an_unknown_or_missing_key_exits_1_naming_it(
            self, tiny_config_file, tmp_path, capsys, edit, named):
        d = json.loads(tiny_config_file.read_text())
        edit(d["rope"])
        config = tmp_path / "rope.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()

    def test_config_with_a_heads_field_exits_1(self, tiny_config_file, tmp_path, capsys):
        d = json.loads(tiny_config_file.read_text())
        assert "heads" not in d
        d["heads"] = 1
        config = tmp_path / "heads.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "heads" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_exits_1_and_leaves_no_directory(self, tiny_config_file,
                                                          tmp_path, capsys):
        d = json.loads(tiny_config_file.read_text())
        d.update(learning_rate=1e6, steps=50)
        config = tmp_path / "diverges.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert "training aborted: non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_cannot_be_created_exits_1(self, tiny_config_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["train", "--config", str(tiny_config_file),
                         "--out", str(blocker / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_changes_the_run(self, tiny_config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(tiny_config_file), "--seed", "1",
                  "--out", str(out1)])
        cli.main(["train", "--config", str(tiny_config_file), "--seed", "2",
                  "--out", str(out2)])
        assert (out1 / "loss.csv").read_bytes() != (out2 / "loss.csv").read_bytes()


class TestAnalyzeCommand:
    @pytest.fixture
    def trace_file(self, tiny_config_file, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config_file),
                         "--out", str(out)]) == 0
        return out / "trace.csv"

    def test_expert_report(self, trace_file, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main(["analyze", "--trace", str(trace_file), "--layer", "0",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "group,layer,expert_id,role,proportion"
        props = [float(line.split(",")[-1]) for line in lines[1:]]
        assert abs(sum(props) - 1.0) <= 1e-12

    def test_modality_grouping(self, trace_file, tmp_path):
        out = tmp_path / "by_modality.csv"
        code = cli.main(["analyze", "--trace", str(trace_file), "--layer", "0",
                         "--group-by", "modality", "--out", str(out)])
        assert code == 0
        groups = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert groups == {"text", "image"}

    def test_count_histogram(self, trace_file, tmp_path):
        out = tmp_path / "hist.csv"
        code = cli.main(["analyze", "--trace", str(trace_file), "--layer", "1",
                         "--group-by", "count", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "layer,k,fraction"
        fracs = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(sum(fracs) - 1.0) <= 1e-12

    @staticmethod
    def write_jsonl(path, modalities, gate_prob=0.5):
        path.write_text("".join(json.dumps({
            "step": 0, "layer": 0, "token_index": t, "modality": m, "k": 1,
            "slots": [{"expert_id": t % 2, "role": "routed", "gate_prob": gate_prob,
                       "selected_rank": 0}]}) + "\n" for t, m in enumerate(modalities)))
        return path

    def test_empty_modality_is_a_group_of_its_own(self, tmp_path):
        trace = self.write_jsonl(tmp_path / "trace.jsonl", ["", "text", ""])
        out = tmp_path / "by_modality.csv"
        assert cli.main(["analyze", "--trace", str(trace), "--layer", "0",
                         "--group-by", "modality", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "group,layer,expert_id,role,proportion",
            ",0,0,routed,1.0", "text,0,1,routed,1.0"]

    def test_wrong_typed_jsonl_field_exits_1_naming_it(self, tmp_path, capsys):
        trace = self.write_jsonl(tmp_path / "trace.jsonl", ["text"], gate_prob="0.5")
        out = tmp_path / "report.csv"
        assert cli.main(["analyze", "--trace", str(trace), "--layer", "0",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == 'error: gate_prob must be a JSON number, got "0.5"\n'
        assert not captured.out and not out.exists()

    def test_jsonl_record_without_slots_exits_1_naming_the_field(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"step": 0, "layer": 0, "token_index": 0,
                                     "modality": "text", "k": 1}) + "\n")
        out = tmp_path / "report.csv"
        assert cli.main(["analyze", "--trace", str(trace), "--layer", "0",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 1: a JSONL record lacks the field 'slots'\n"
        assert not captured.out and not out.exists()

    def test_blank_jsonl_line_exits_1_naming_its_line(self, tmp_path, capsys):
        trace = self.write_jsonl(tmp_path / "trace.jsonl", ["text"])
        trace.write_text(trace.read_text() + "\n")
        out = tmp_path / "report.csv"
        assert cli.main(["analyze", "--trace", str(trace), "--layer", "0",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: Expecting value at column 1\n"
        assert not captured.out and not out.exists()

    def test_unparsable_csv_number_exits_1_naming_the_field_and_line(self, tmp_path,
                                                                     capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(an.CSV_COLUMNS) + "\n0,0,0,text,1,routed,0.5,0,1\n"
                         "9223372036854775808,0,1,text,1,routed,0.5,0,1\n")
        out = tmp_path / "report.csv"
        assert cli.main(["analyze", "--trace", str(trace), "--layer", "0",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: line 3: step must be an int64 integer, "
                                "got '9223372036854775808'\n")
        assert not captured.out and not out.exists()

    def test_empty_layer_exits_1(self, trace_file, tmp_path, capsys):
        capsys.readouterr()
        for group_by in ("expert", "modality", "count"):
            code = cli.main(["analyze", "--trace", str(trace_file), "--layer", "9",
                             "--group-by", group_by, "--out", str(tmp_path / "x.csv")])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err == "error: no records for layer 9\n"
            assert not captured.out and not (tmp_path / "x.csv").exists()
