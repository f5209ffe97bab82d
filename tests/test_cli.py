"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "bending"])
        assert args.device == "bending"
        assert args.sampling == "axial+worst"

    def test_design_rejects_unknown_device(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "modulator"])

    def test_design_solver_flag(self):
        args = build_parser().parse_args(
            ["design", "bending", "--solver", "krylov-block"]
        )
        assert args.solver == "krylov-block"
        assert build_parser().parse_args(["design", "bending"]).solver == "direct"

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "bending"],
            ["evaluate", "result.json"],
            ["submit", "bending", "--connect", "127.0.0.1:1"],
        ],
        ids=["design", "evaluate", "submit"],
    )
    @pytest.mark.parametrize(
        "spec, replacement",
        [
            ("batched", "'direct'"),
            ("krylov-block:recycle", "'krylov-block'"),
            ("krylov", "'krylov-block'"),
            ("krylov:gmres", "'krylov-block'"),
            ("krylov-block:bicgstab", "'krylov-block'"),
            (
                "krylov-block:float32",
                "1.12-1.20x slower than float64; drop ':float32' "
                "(e.g. 'krylov-block')",
            ),
        ],
    )
    def test_retired_solver_exits_2_naming_replacement(
        self, capsys, argv, spec, replacement
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--solver", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--solver" in err
        assert replacement in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "bending"],
            ["evaluate", "result.json"],
            ["submit", "bending", "--connect", "127.0.0.1:1"],
        ],
        ids=["design", "evaluate", "submit"],
    )
    # Removed backends and worker counts die in argparse too, not in
    # make_executor (a traceback) or, for submit, on the daemon; the
    # message names serial and remote.
    @pytest.mark.parametrize(
        "spec",
        [
            "thread", "thread:2", "process:0", "process:abc", "serial:7",
            "process", "process:2",
        ],
    )
    def test_thread_executor_exits_2_naming_process(self, capsys, argv, spec):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--executor", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--executor" in err
        assert "'remote:host:port" in err
        if spec.startswith("process"):
            assert "serial already overlaps factorizations" in err
            assert "repro worker --listen 127.0.0.1:0" in err

    @pytest.mark.parametrize(
        "argv",
        [["design", "bending"], ["evaluate", "result.json"]],
        ids=["design", "evaluate"],
    )
    @pytest.mark.parametrize(
        "flag", [["--precond-dtype", "float32"], ["--precond-dtype=float64"]]
    )
    def test_retired_precond_dtype_names_solver_modifier(
        self, capsys, argv, flag
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--precond-dtype was removed" in err
        assert "drop the flag" in err
        assert "float32" not in err

    @pytest.mark.parametrize(
        "argv",
        [["design", "bending"], ["evaluate", "result.json"]],
        ids=["design", "evaluate"],
    )
    def test_removed_connect_retries_flag_exits_2(self, capsys, argv):
        """Connect attempts are a fixed count now; the flag is gone."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--remote-connect-retries", "2"])
        assert exc.value.code == 2
        assert "--remote-connect-retries" in capsys.readouterr().err

    def test_axis_flags_parse_to_floats(self):
        args = build_parser().parse_args(
            ["design", "bending", "--wavelengths", "1.53,1.57"]
        )
        assert args.wavelengths == [1.53, 1.57]
        assert args.temperatures is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "bending", "--connect",
                                       "127.0.0.1:1", "--temperatures", "hot"])

    def test_help_documents_solver_fallback(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--help"])
        # argparse re-wraps help text to the terminal width; compare on
        # whitespace-normalized output.
        out = " ".join(capsys.readouterr().out.split())
        assert "--solver" in out
        assert "falls back" in out

    def test_baseline_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "bending", "MagicOpt"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "bending" in out
        assert "BOSON-1" in out
        assert "axial+worst" in out

    def test_design_and_evaluate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "design.json"
        code = main(
            [
                "design",
                "bending",
                "--iterations",
                "2",
                "--sampling",
                "nominal",
                "--quiet",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        capsys.readouterr()

        code = main(["evaluate", str(out_path), "--samples", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "post-fab FoM" in out

    def test_design_with_krylov_solver(self, tmp_path, capsys):
        out_path = tmp_path / "design_krylov.json"
        code = main(
            [
                "design",
                "bending",
                "--iterations",
                "2",
                "--sampling",
                "nominal",
                "--solver",
                "krylov-block",
                "--quiet",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        capsys.readouterr()

    def test_baseline_command(self, tmp_path, capsys):
        out_path = tmp_path / "ls.json"
        code = main(
            [
                "baseline",
                "bending",
                "LS",
                "--iterations",
                "2",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        from repro.utils.io import load_result

        payload = load_result(out_path)
        assert payload["method"] == "LS"
        assert np.asarray(payload["pattern"]).shape == (32, 32)


class TestRefusals:
    """Bad input is a one-line ``error:`` and exit 2, never a traceback."""

    # Port 1 on loopback is closed: a submit that got as far as dialing
    # would report "cannot reach daemon" instead of the config error.
    @pytest.mark.parametrize(
        "argv",
        [["design", "bending"],
         ["submit", "bending", "--connect", "127.0.0.1:1"]],
        ids=["design", "submit"],
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--iterations", "0"], "iterations"),
            (["--relax-epochs", "-1"], "relax_epochs"),
            (["--aggregate", "bogus"], "aggregate"),
            (["--wavelengths", "-1.5"], "wavelengths_um"),
            (["--executor", "remote:nocolon"], "nocolon"),
        ],
    )
    def test_invalid_job_config_exits_2(self, capsys, argv, flags, message):
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert message in err
        assert "cannot reach daemon" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trace-format", "xml"], "trace_format"),
            (["--checkpoint-every", "0"], "checkpoint_every"),
            (["--checkpoint-keep", "0"], "checkpoint_keep"),
            (["--remote-timeout", "0"], "remote_timeout"),
            (["--metrics-every", "-1"], "metrics_every"),
        ],
    )
    def test_invalid_design_knob_exits_2(self, capsys, flags, message):
        assert main(["design", "bending"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert message in err

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--samples", "0"], "--samples"),
            (["--samples", "-3"], "--samples"),
            (["--trace-format", "bogus"], "--trace-format"),
        ],
    )
    def test_invalid_evaluate_flag_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, flags, flag
    ):
        import repro.cli
        from repro.devices import make_device
        from repro.utils.io import save_result

        def no_solve(*_args, **_kwargs):
            raise AssertionError("evaluate solved before refusing a flag")

        monkeypatch.setattr(repro.cli, "evaluate_ideal", no_solve)
        path = tmp_path / "result.json"
        shape = make_device("bending").design_shape
        save_result({"device": "bending", "pattern": np.zeros(shape)}, path)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(path)] + flags)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ("{not json", "Expecting"),
            ("wrong-shape", "pattern shape (1, 1)"),
        ],
        ids=["missing", "not-json", "wrong-shape"],
    )
    def test_evaluate_bad_result_file_exits_2(
        self, tmp_path, capsys, content, message
    ):
        from repro.utils.io import save_result

        path = tmp_path / "result.json"
        if content == "wrong-shape":
            save_result({"device": "bending", "pattern": np.zeros((1, 1))},
                        path)
        elif content is not None:
            path.write_text(content)
        assert main(["evaluate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot evaluate {path}: ")
        assert message in err
