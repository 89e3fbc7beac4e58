"""Command-line interface: subcommands, config files, artifacts, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhevqa
from qhevqa import qhe
from qhevqa.classical_he import he_xor
from qhevqa.cli import (
    ANALYTIC_P0,
    TRANSPORTS,
    build_parser,
    check_gadget_contract,
    gadget_demo,
    load_config_file,
    main,
    run_manifest,
    write_training_svg,
)
from qhevqa.vqa import EpochMetrics, load_digits_csv


def write_digits(tmp_path, rows: int) -> str:
    """The first ``rows`` bundled digits as a dataset file; returns its path."""
    path = tmp_path / f"digits{rows}.csv"
    path.write_text(
        "".join(
            ",".join(f"{x:g}" for x in vec) + f",{label}\n"
            for vec, label in load_digits_csv().samples[:rows]
        )
    )
    return str(path)


class TestGadgetDemo:
    def test_statistics_within_band(self):
        report = gadget_demo(1500, 3)
        assert abs(report["gadget"]["0"] - ANALYTIC_P0) < 0.04
        assert abs(report["direct"]["0"] - ANALYTIC_P0) < 0.04
        assert report["analytic"]["0"] == pytest.approx(np.cos(np.pi / 8) ** 2)

    def test_single_shot_valid(self):
        report = gadget_demo(1, 0)
        assert report["gadget"]["0"] in (0.0, 1.0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            gadget_demo(0, 0)

    def test_contract_catches_a_broken_t_key_update(self, monkeypatch):
        # The gadget shots run the scheme's own T-gate key update, so an
        # update that drops the e correction leaves a wrong Z key behind and
        # acceptance 1 fails.
        real = qhe.gadget_key_update

        def without_e(gadget, route, u, v, a_ct, b_ct, dagger=False):
            a_new, b_new = real(gadget, route, u, v, a_ct, b_ct, dagger)
            return a_new, he_xor(b_new, gadget.e_ct[route][v])

        monkeypatch.setattr(qhe, "gadget_key_update", without_e)
        ok, detail = check_gadget_contract(600, 7, 0.05)
        assert not ok, detail

    def test_command_prints_table(self, capsys):
        rc = main(["gadget-demo", "--shots", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "direct" in out and "gadget" in out and "analytic" in out
        assert "elapsed" in out

    def test_command_writes_report(self, tmp_path, capsys):
        out = tmp_path / "demo"
        rc = main(
            ["gadget-demo", "--shots", "100", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["shots"] == 100
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "gadget-demo"
        assert manifest["seed"] == 2


class TestDecompose:
    def test_four_outputs_and_reference_comparison(self, capsys):
        rc = main(["decompose", "--axis", "X", "--angle", "5.57"])
        out = capsys.readouterr().out
        assert rc == 0
        for marker in ("Output 1", "Output 2", "Output 3", "Output 4"):
            assert marker in out
        assert "published single-rotation reference: T=35 Tdagger=24 H=28" in out
        assert "comparison depth tallies" in out

    def test_zero_angle_gives_empty_sequence(self, capsys):
        for axis in ("Z", "z"):  # the axis is read in either case
            rc = main(["decompose", "--axis", axis, "--angle", "0"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "(empty" in out

    def test_unreachable_epsilon_fails_cleanly(self, capsys):
        rc = main(["decompose", "--angle", "0.917", "--epsilon", "1e-9"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_missing_dataset_exits_2(self, capsys):
        rc = main(["train", "--dataset", "/no/such/file.csv"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.5,0.5,0.6", "nan,0.5,1"])
    def test_unloadable_dataset_exits_2_before_training(self, tmp_path, capsys, row):
        data = tmp_path / "bad.csv"
        data.write_text(f"1,2,0\n{row}\n")
        rc = main(["train", "--epochs", "1", "--dataset", str(data)])
        assert rc == 2
        assert "error: could not load dataset" in capsys.readouterr().err

    def test_too_few_samples_exit_2_before_any_session(self, tmp_path, capsys, monkeypatch):
        # Zero samples used to end in an "empty dataset" traceback and one in
        # "training diverged", both after a delegated session had opened.
        from qhevqa import protocol

        def no_session(*_args, **_kwargs):
            raise AssertionError("a session opened")

        monkeypatch.setattr(protocol, "serve_inproc", no_session)
        monkeypatch.setattr(protocol, "TcpServer", no_session)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        for data, size in ((str(empty), 0), (write_digits(tmp_path, 1), 1)):
            for transport in TRANSPORTS:
                rc = main(["train", "--epochs", "1", "--transport", transport, "--dataset", data])
                assert rc == 2
                err = capsys.readouterr().err
                assert f"error: training needs at least 2 samples, got {size}" in err

    def test_busy_port_exits_2_and_closes_its_socket(self, tmp_path, capsys, monkeypatch):
        # A port already listening used to end in an EADDRINUSE traceback,
        # leaving the socket whose bind failed open.
        import socket

        from qhevqa import protocol

        opened = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        data = write_digits(tmp_path, 4)
        host = protocol.default_endpoint()[0]
        with socket.socket() as busy:
            busy.bind((host, 0))
            busy.listen()
            port = busy.getsockname()[1]
            monkeypatch.setattr(socket, "socket", Recording)
            rc = main(["train", "--epochs", "1", "--transport", "tcp", "--port", str(port),
                       "--dataset", data])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot listen on {host}:{port}: " in err and "Traceback" not in err
        assert len(opened) == 1 and opened[0].fileno() == -1

    @pytest.mark.parametrize("port", ["abc", "70000", "-1"])
    def test_malformed_port_variable_exits_2(self, tmp_path, capsys, monkeypatch, port):
        # A QHEVQA_PORT that is no integer in 0..65535 used to end in a
        # ValueError (abc) or OverflowError (70000, -1) traceback.
        monkeypatch.setenv("QHEVQA_PORT", port)
        rc = main(["train", "--epochs", "1", "--transport", "tcp",
                   "--dataset", write_digits(tmp_path, 4)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: QHEVQA_PORT must be an integer in 0..65535, got {port!r}" in err
        assert "Traceback" not in err

    def test_short_training_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["train", "--epochs", "2", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "training.svg").exists()
        model = json.loads((out / "model.json").read_text())
        assert np.asarray(model["theta"]).shape == (2, 4)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 epochs

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_is_a_quiet_exit(self, tmp_path, unbuffered):
        # As in ``qhevqa train ... | head -1``, but with the reader gone before
        # the first line. A piped stdout is block-buffered by default, so the
        # pipe breaks at the final flush; unbuffered, at the first print.
        out = tmp_path / "run"
        src = str(Path(qhevqa.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qhevqa.cli", "train", "--epochs", "1",
                 "--dataset", write_digits(tmp_path, 8), "--out", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1  # output was lost: not a success
        assert len((out / "metrics.csv").read_text().splitlines()) == 2

    def test_inproc_transport_matches_local(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        data = write_digits(tmp_path, 48)
        common = ["train", "--epochs", "2", "--seed", "4", "--dataset", data]
        assert main([*common, "--out", str(a)]) == 0
        assert (
            main(
                [
                    *common,
                    "--transport",
                    "inproc",
                    "--mode",
                    "delegated-exact-gates",
                    "--out",
                    str(b),
                ]
            )
            == 0
        )
        local = (a / "metrics.csv").read_bytes()
        remote = (b / "metrics.csv").read_bytes()
        # fixed-width CSV floats: delegated-exact equals plaintext to 1e-6,
        # so compare parsed values rather than raw bytes here
        for la, lb in zip(local.decode().splitlines()[1:], remote.decode().splitlines()[1:]):
            for ca, cb in zip(la.split(",")[1:], lb.split(",")[1:]):
                assert float(ca) == pytest.approx(float(cb), abs=1e-6)

    def test_sessions_send_only_what_the_server_reads(self, tmp_path, monkeypatch):
        # A plaintext session is a handshake and its end; a delegated-exact
        # one adds one RunRequest per window evaluation. No session sends an
        # empty provisioning round or the trained parameters.
        from qhevqa import protocol

        received, evaluations = [], []
        dispatch, make_exact = protocol.ServerSession._dispatch, protocol.make_exact_evaluator

        def recording_dispatch(session, msg):
            received.append(msg.kind)
            dispatch(session, msg)

        def counting_evaluator(session):
            evaluate = make_exact(session)
            return lambda *args: (evaluations.append(1), evaluate(*args))[1]

        monkeypatch.setattr(protocol.ServerSession, "_dispatch", recording_dispatch)
        monkeypatch.setattr(protocol, "make_exact_evaluator", counting_evaluator)
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["train", "--epochs", "1", "--dataset", write_digits(tmp_path, 16)]
        assert main([*common, "--out", str(a)]) == 0
        assert main([*common, "--transport", "inproc", "--out", str(b)]) == 0
        assert received == ["Hello", "Done"]
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        received.clear()
        assert main([*common, "--transport", "inproc", "--mode", "delegated-exact-gates"]) == 0
        assert evaluations and received == ["Hello", *["RunRequest"] * len(evaluations), "Done"]


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        for name in (
            "clifford-conjugation",
            "pad-mixing",
            "he-roundtrip",
            "qhe-roundtrip",
            "gadget-contract",
            "sk-certification",
            "gradient-check",
            "protocol-codec",
        ):
            assert name in out

    def test_negative_control_catches_corruption(self, capsys):
        from qhevqa import pauli_frame

        cnot = pauli_frame._FORMS["CNOT"]
        rc = main(["verify", "--negative-control"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
        assert rows["clifford-conjugation"] == rows["qhe-roundtrip"] == "FAIL"
        assert "was caught" in out
        # the wrong form must not leak into later runs
        assert pauli_frame._FORMS["CNOT"] == cnot
        assert main(["verify"]) == 0


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n# comment\nshots=77  # trailing\n\nmode=plaintext\n")
        assert load_config_file(str(cfg)) == {
            "seed": "9",
            "shots": "77",
            "mode": "plaintext",
        }

    def test_rejects_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just-some-words\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))

    def test_config_values_apply(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("shots=123\nseed=5\n")
        rc = main(["gadget-demo", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "123 shots, seed 5" in out

    def test_keys_that_name_no_option_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("subcommand=train\nfunc=x\nepochs=3\nshots=7\n")
        rc = main(["gadget-demo", "--config", str(cfg)])
        assert rc == 0
        assert "7 shots" in capsys.readouterr().out

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("shots=123\n")
        rc = main(["gadget-demo", "--config", str(cfg), "--shots", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "50 shots" in out

    def test_config_port_reaches_tcp_server_as_int(self, tmp_path, capsys):
        data = write_digits(tmp_path, 16)
        cfg = tmp_path / "tcp.cfg"
        cfg.write_text(
            "port=0\ntransport=tcp\nmode=delegated-exact-gates\nepochs=1\n"
            f"dataset={data}\n"
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert "transport tcp" in capsys.readouterr().out

    def test_config_value_outside_choices_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode=bogus\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), "--epochs", "1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestOptions:
    """Each subcommand takes the options its handler reads, and no other."""

    OPTIONS = {
        "gadget-demo": {"config", "seed", "shots", "out"},
        "decompose": {"config", "epsilon", "axis", "angle", "out"},
        "train": {
            "config", "seed", "epsilon", "mode", "transport", "port", "dataset",
            "out", "epochs",
        },
        "verify": {"negative_control"},
    }

    @pytest.mark.parametrize("subcommand", sorted(OPTIONS))
    def test_manifest_holds_every_option(self, subcommand):
        manifest = run_manifest(build_parser().parse_args([subcommand]))
        assert manifest["subcommand"] == subcommand
        assert set(manifest) == {"subcommand"} | self.OPTIONS[subcommand]
        json.dumps(manifest)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed", "1"],
            ["verify", "--config", "run.cfg"],
            ["gadget-demo", "--epsilon", "0.1"],
            ["decompose", "--seed", "1"],
            ["train", "--shots", "10"],
        ],
    )
    def test_removed_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--epochs", "0"],
        ["train", "--epochs", "-3"],
        ["gadget-demo", "--shots", "0"],
        ["train", "--mode", "delegated-faithful", "--epsilon", "0"],
        ["train", "--epsilon", "-0.1"],
        ["train", "--epsilon", "nan"],
        ["decompose", "--epsilon", "0"],
        ["train", "--seed", "-1"],
        ["gadget-demo", "--seed", "-1"],
        ["train", "--transport", "tcp", "--port", "65536"],
        ["decompose", "--angle", "nan"],
        ["decompose", "--angle", "inf"],
        ["decompose", "--axis", "Q"],
    ])
    def test_out_of_range_value_is_a_usage_error(self, argv, capsys):
        # Each used to end in a traceback or, for --axis, in the handler's own
        # error with status 1; some only after training began.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}" in err and "Traceback" not in err

    def test_out_of_range_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=0\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "argument --epochs" in capsys.readouterr().err

    def test_train_manifest_records_the_run(self, tmp_path, capsys):
        data = write_digits(tmp_path, 8)
        out = tmp_path / "run"
        argv = [
            "train", "--epochs", "2", "--transport", "inproc",
            "--mode", "delegated-exact-gates", "--dataset", data,
            "--out", str(out),
        ]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == {
            "subcommand": "train",
            "config": None,
            "seed": 0,
            "epsilon": 0.01,
            "mode": "delegated-exact-gates",
            "transport": "inproc",
            "port": None,
            "dataset": data,
            "out": str(out),
            "epochs": 2,
        }


class TestSvg:
    def test_plot_contains_both_series_and_labels(self, tmp_path):
        metrics = [
            EpochMetrics(1, 0.8, 0.5, 0.5),
            EpochMetrics(2, 0.5, 0.7, 0.75),
            EpochMetrics(3, 0.3, 0.9, 0.9),
        ]
        path = tmp_path / "plot.svg"
        write_training_svg(str(path), metrics)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "#c0392b" in text and "#2471a3" in text
        assert "epoch" in text and "test accuracy" in text
