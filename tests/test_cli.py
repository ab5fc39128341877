import numpy as np
import pytest

from dickeprobe.cli import main


def read_rows(path):
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    return header, [tuple(float(x) for x in row.split(",")) for row in rows]


class TestCurveCommand:
    def test_uniform_curve(self, tmp_path):
        out = tmp_path / "uniform.csv"
        code = main(
            [
                "curve", "--statistics", "bose", "--state", "uniform",
                "--L", "100", "--kappa", "1,1", "--tmax", "100", "--steps", "500",
                "--output", str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == "delta_t,normalized_peak"
        assert len(rows) == 500
        first_line = out.read_text().splitlines()[1]
        assert first_line == "0.000000000000,1.000000000000"
        assert rows[-1][0] == pytest.approx(100.0)

    def test_metallic_matches_bose_uniform(self, tmp_path):
        args = ["--L", "100", "--kappa", "1,1", "--tmax", "100", "--steps", "200"]
        uni, met = tmp_path / "uni.csv", tmp_path / "met.csv"
        assert main(["curve", "--statistics", "bose", "--state", "uniform", *args, "-o", str(uni)]) == 0
        assert main(["curve", "--statistics", "fermi", "--state", "metallic", *args, "-o", str(met)]) == 0
        _, rows_u = read_rows(uni)
        _, rows_m = read_rows(met)
        for (t1, v1), (t2, v2) in zip(rows_u, rows_m):
            assert t1 == t2
            assert abs(v1 - v2) < 1e-2

    def test_parameterized_states(self, tmp_path):
        for state in ("partial:5000,5000", "thermal:0.5", "superfluid", "mott"):
            out = tmp_path / "c.csv"
            code = main(
                ["curve", "--statistics", "bose", "--state", state,
                 "--L", "100", "--steps", "50", "-o", str(out)]
            )
            assert code == 0

    def test_stdout_output(self, capsys):
        code = main(
            ["curve", "--statistics", "bose", "--state", "superfluid",
             "--L", "10", "--steps", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "delta_t,normalized_peak"
        assert len(lines) == 6
        assert all(line.endswith("1.000000000000") for line in lines[1:])

    @pytest.mark.parametrize(
        ("statistics", "lattice", "beta", "ground_state"),
        [
            ("bose", ["--L", "100"], "1e308", "superfluid"),
            ("fermi", ["--L", "2"], "1e308", "thermal:1000"),
        ],
        ids=["bose-L100", "fermi-L2"],
    )
    def test_huge_inverse_temperature(
        self, statistics, lattice, beta, ground_state, tmp_path, capsys
    ):
        # beta (E - mu) overflows to inf on part of the grid; the exp clip takes
        # it like any other large exponent, with no numpy warning
        csv = []
        for state in (f"thermal:{beta}", ground_state):
            out = tmp_path / "out.csv"
            argv = ["curve", "--statistics", statistics, "--state", state, *lattice]
            assert main([*argv, "--steps", "5", "-o", str(out)]) == 0
            csv.append(out.read_text())
        assert csv[0] == csv[1]
        assert capsys.readouterr().err == ""

    def test_cold_fermi_sea(self, tmp_path, capsys):
        # at beta = 1e50 each diamond-edge level (|E| ~ 1e-17) is all or
        # nothing as mu crosses it; the remainder fills the level at mu, so
        # the curve is beta = 1e20's to the CSV's last digit
        rows = {}
        for beta in ("1e50", "1e20"):
            out = tmp_path / f"{beta}.csv"
            argv = ["curve", "--statistics", "fermi", "--state", f"thermal:{beta}"]
            assert main([*argv, "--L", "100", "-o", str(out)]) == 0
            rows[beta] = np.array(read_rows(out)[1])
        assert capsys.readouterr().err == ""
        assert np.abs(rows["1e50"] - rows["1e20"]).max() < 2e-12


class TestTransitionCommands:
    def test_adiabatic_bose_all_ones(self, tmp_path):
        out = tmp_path / "adiabatic.csv"
        code = main(
            ["adiabatic", "--statistics", "bose", "--L", "100", "--steps", "100",
             "-o", str(out)]
        )
        assert code == 0
        values = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
        assert values == {"1.000000000000"}

    def test_quench_equals_fermi_adiabatic(self, tmp_path, capsys):
        args = ["--L", "100", "--kappa", "1,1", "--steps", "120"]
        q, a = tmp_path / "q.csv", tmp_path / "a.csv"
        assert main(["quench", "--statistics", "fermi", *args, "-o", str(q)]) == 0
        assert main(["adiabatic", "--statistics", "fermi", *args, "-o", str(a)]) == 0
        assert q.read_text() == a.read_text()
        assert "small-wave-number" in capsys.readouterr().err

    def test_quench_starts_at_one(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quench", "--statistics", "bose", "--L", "100", "--steps", "80", "-o", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)


class TestClassicalCommand:
    def test_columns_and_reversal(self, tmp_path):
        out = tmp_path / "classical.csv"
        code = main(
            ["classical", "--statistics", "bose", "--state", "uniform",
             "--L", "10", "--alpha", "0.01", "--steps", "40", "--tmax", "20",
             "-o", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == "delta_t,sigma_z,n_meta"
        # at dt = 0 the back-rotation is perfect
        assert rows[0][1] == pytest.approx(-50.0, abs=1e-9)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
        assert all(v[2] >= -1e-12 for v in rows)

    def test_metallic_nbar_from_atom_total(self, tmp_path):
        # The half-filled diamond at L = 10 holds N = 82 atoms, not 100.  For
        # the reversed sequence sigma_z + N/2 = (sin^2 a / 2)(N - S) and
        # n_meta = 2 nbar (1 - S/N) = (a^2 / 2)(N - S), so the two columns
        # agree up to the exact factor (a / sin a)^2; with nbar taken from
        # the lattice they would differ by 100/82.
        out = tmp_path / "metallic.csv"
        alpha = 0.1
        code = main(
            ["classical", "--statistics", "fermi", "--state", "metallic",
             "--L", "10", "--alpha", str(alpha), "--steps", "7", "--tmax", "50",
             "-o", str(out)]
        )
        assert code == 0
        _, sigma_z, n_meta = np.loadtxt(out, delimiter=",", skiprows=1).T
        shifted = (sigma_z + 82 / 2) * (alpha / np.sin(alpha)) ** 2
        # both columns are printed to 12 decimals, 5e-13 of rounding each
        np.testing.assert_allclose(n_meta, shifted, rtol=0, atol=1e-12)
        assert n_meta.max() > 0.1


class TestKernelCalls:
    @pytest.mark.parametrize(
        ("argv", "kernel_calls"),
        [
            pytest.param(["curve", "--statistics", "bose", "--state", "thermal:1"], 1, id="curve"),
            pytest.param(
                ["classical", "--statistics", "bose", "--state", "thermal:1"], 1, id="classical"
            ),
            pytest.param(["quench", "--statistics", "bose"], 1, id="quench-bose"),
            pytest.param(["quench", "--statistics", "fermi"], 1, id="quench-fermi"),
            pytest.param(["adiabatic", "--statistics", "bose"], 1, id="adiabatic-bose"),
            pytest.param(["adiabatic", "--statistics", "fermi"], 1, id="adiabatic-fermi"),
            pytest.param(["curve", "--statistics", "bose", "--state", "mott"], 0, id="mott"),
            pytest.param(["curve", "--statistics", "fermi", "--state", "neel"], 0, id="neel"),
        ],
    )
    def test_one_kernel_call_per_command(self, argv, kernel_calls, tmp_path, monkeypatch):
        # sigma_z and n_meta are both read from the one C(dt) the command
        # computes; the frozen states have no C(dt) and never run the kernel
        import dickeprobe.emission

        kernel = dickeprobe.emission._coherent_sum
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dickeprobe.emission, "_coherent_sum", counted)
        out = tmp_path / "out.csv"
        assert main([*argv, "--L", "10", "--steps", "5", "-o", str(out)]) == 0
        assert len(calls) == kernel_calls


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "curve", "--statistics", "bose", "--state", "thermal:1.0",
            "--L", "100", "--kappa", "3,2", "--steps", "120",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "-o", str(a)]) == 0
        assert main([*args, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["curve", "--statistics", "bose"])  # missing --state
        assert info.value.code == 1

    def test_unknown_state(self):
        assert main(["curve", "--statistics", "bose", "--state", "bogus", "--L", "10"]) == 1

    def test_statistics_state_mismatch(self):
        assert main(["curve", "--statistics", "fermi", "--state", "superfluid", "--L", "10"]) == 1

    def test_kappa_out_of_range(self):
        assert (
            main(["curve", "--statistics", "bose", "--state", "uniform",
                  "--L", "10", "--kappa", "6,0"]) == 1
        )

    def test_malformed_kappa(self):
        assert (
            main(["curve", "--statistics", "bose", "--state", "uniform",
                  "--L", "10", "--kappa", "zz"]) == 1
        )

    def test_odd_L(self):
        assert main(["curve", "--statistics", "bose", "--state", "uniform", "--L", "7"]) == 1

    def test_bad_steps(self):
        assert (
            main(["curve", "--statistics", "bose", "--state", "uniform",
                  "--L", "10", "--steps", "1"]) == 1
        )

    def test_classical_state_without_distribution(self, capsys):
        assert main(["classical", "--statistics", "bose", "--state", "mott", "--L", "10"]) == 1
        assert "state 'mott' has no momentum distribution" in capsys.readouterr().err

    @pytest.mark.parametrize("statistics", ["bose", "fermi"])
    @pytest.mark.parametrize(
        "state, offered_by",
        [
            pytest.param(state, offered_by, id=state.partition(":")[0])
            for state, offered_by in [
                ("superfluid", {"bose"}),
                ("partial:8,8", {"bose"}),
                ("thermal:1", {"bose", "fermi"}),
                ("uniform", {"bose", "fermi"}),
                ("metallic", {"fermi"}),
                ("mott", {"bose"}),
                ("neel", {"fermi"}),
            ]
        ],
    )
    def test_state_offered_by_statistics(self, state, offered_by, statistics, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["curve", "--statistics", statistics, "--state", state, "--L", "4"]
        code = main([*argv, "--steps", "3", "-o", str(out)])
        if statistics in offered_by:
            assert code == 0 and out.exists()
        else:
            assert code == 1 and not out.exists()
            name = state.partition(":")[0]
            message = f"state {name!r} is not available for {statistics} statistics"
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state",
        ["partial", "partial:8", "partial:8,8,0", "partial:8,x", "thermal", "thermal:", "thermal:1,2"],
    )
    def test_malformed_state_parameters(self, state, capsys):
        usage = {
            "partial": "partial state needs parameters 'partial:N1,N2'",
            "thermal": "thermal state needs 'thermal:inverse_temperature'",
        }[state.partition(":")[0]]
        argv = ["curve", "--statistics", "bose", "--state", state, "--L", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"dickeprobe: error: {usage}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--statistics", "bose", "--state", "uniform", "--tmax", "nan"],
            ["quench", "--statistics", "fermi", "--tmax", "inf"],
            ["curve", "--statistics", "bose", "--state", "thermal:nan"],
            ["curve", "--statistics", "fermi", "--state", "thermal:inf"],
            ["curve", "--statistics", "bose", "--state", "partial:nan,16"],
            ["classical", "--statistics", "bose", "--state", "thermal:nan"],
            ["classical", "--statistics", "bose", "--state", "partial:nan,16"],
            ["classical", "--statistics", "bose", "--state", "uniform", "--alpha", "nan"],
            ["classical", "--statistics", "bose", "--state", "uniform", "--beta-rot", "nan"],
            ["classical", "--statistics", "bose", "--state", "uniform", "--beta-rot", "inf"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_input(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--L", "4", "-o", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("dickeprobe: error: ")
        if "--alpha" in argv or "--beta-rot" in argv:
            assert err == "dickeprobe: error: rotation angles must be finite\n"

    @pytest.mark.parametrize(
        "option", [["--U", "0.5"], ["--ell", "2"], ["--J", "1"]], ids=["U", "ell", "J"]
    )
    @pytest.mark.parametrize("command", ["curve", "quench", "adiabatic", "classical"])
    def test_removed_lattice_options(self, command, option, capsys):
        # no curve depends on the spacing, every curve is at U = 0 or frozen, and
        # times and inverse temperatures are in units of J (a run at J is the
        # J = 1 run with dt and beta multiplied by J)
        argv = [command, "--statistics", "bose", "--L", "4", *option]
        if command in ("curve", "classical"):
            argv += ["--state", "uniform"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dickeprobe ")
        assert f"unrecognized arguments: {' '.join(option)}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--statistics", "bose", "--state", "uniform:garbage"],
            ["curve", "--statistics", "bose", "--state", "superfluid:7"],
            ["curve", "--statistics", "bose", "--state", "mott:1"],
            ["curve", "--statistics", "fermi", "--state", "uniform:"],
            ["curve", "--statistics", "fermi", "--state", "metallic:0.5"],
            ["curve", "--statistics", "fermi", "--state", "neel:2"],
            ["classical", "--statistics", "bose", "--state", "superfluid:7"],
            ["classical", "--statistics", "fermi", "--state", "metallic:x"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_parameters_on_state_without_parameters(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        assert main([*argv, "--L", "4", "-o", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--statistics", "bose", "--state", "thermal:1e-320"],
            ["curve", "--statistics", "fermi", "--state", "thermal:1e-320"],
            ["classical", "--statistics", "bose", "--state", "thermal:5e-324"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_subnormal_inverse_temperature(self, argv, tmp_path, capsys):
        # 1/beta overflows: no finite bracket for mu, so no fake condensate
        out = tmp_path / "out.csv"
        assert main([*argv, "--L", "10", "-o", str(out)]) == 1
        assert not out.exists()
        assert "bracket overflows" in capsys.readouterr().err

    def test_tiny_inverse_temperature_is_near_uniform(self, tmp_path):
        # beta = 1e-300 is not subnormal: about one atom per mode
        csv = {}
        for state in ("thermal:1e-300", "uniform"):
            out = tmp_path / "out.csv"
            argv = ["curve", "--statistics", "bose", "--state", state, "--L", "10"]
            assert main([*argv, "--steps", "5", "-o", str(out)]) == 0
            csv[state] = out.read_text()
        assert csv["thermal:1e-300"] == csv["uniform"]

    @pytest.mark.parametrize("alpha", ["1.3e154", "1e300"])
    def test_alpha_with_non_finite_mean_excitations(self, alpha, tmp_path, capsys):
        # N alpha^2 / 4 overflows at 1.3e154 (n_meta would be inf * 0 = nan at
        # dt = 0), and alpha^2 itself overflows at 1e300
        out = tmp_path / "out.csv"
        argv = ["classical", "--statistics", "bose", "--state", "uniform", "--alpha", alpha]
        assert main([*argv, "--L", "4", "--steps", "3", "-o", str(out)]) == 1
        assert not out.exists()
        assert "dickeprobe: error: N alpha^2 / 4 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--statistics", "bose", "--state", "uniform", "--L", "4", "--steps", "3"],
            ["quench", "--statistics", "fermi", "--L", "4"],
            ["adiabatic", "--statistics", "bose", "--L", "4"],
            ["classical", "--statistics", "bose", "--state", "uniform", "--L", "4"],
            ["oracle"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output(self, argv, tmp_path, capsys, monkeypatch):
        # checked before any work: the distribution, curve and suite must not run
        import dickeprobe.cli
        import dickeprobe.oracle

        def refuse(*args, **kwargs):
            raise AssertionError("work started before --output was checked")

        for module, name in [
            (dickeprobe.cli, "_build_state"),
            (dickeprobe.cli, "peak_curve"),
            (dickeprobe.cli, "coherent_amplitude"),
            (dickeprobe.oracle, "verification_suite"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        for out in (tmp_path / "missing" / "out.csv", tmp_path, ""):
            assert main([*argv, "-o", str(out)]) == 1
            assert capsys.readouterr().err.startswith(f"dickeprobe: error: cannot write {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        # an (L, L) grid of 71 PiB, which the allocator refuses before touching any memory
        out = tmp_path / "out.csv"
        argv = ["curve", "--statistics", "bose", "--state", "superfluid", "--L", "100000000"]
        assert main([*argv, "-o", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("dickeprobe: error: ") and err.count("\n") == 1

    def test_bad_thermal_parameter(self):
        assert (
            main(["curve", "--statistics", "bose", "--state", "thermal:-2",
                  "--L", "10"]) == 1
        )


class TestOracleCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["oracle", "-o", str(out)])
        assert code == 0
        report = out.read_text()
        lines = report.splitlines()
        assert lines[-1].startswith("oracle suite:")
        assert "15/15 checks passed" in lines[-1]
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_json_report_matches_text_report(self, tmp_path):
        import json

        text_out, json_out = tmp_path / "report.txt", tmp_path / "report.json"
        assert main(["oracle", "-o", str(text_out)]) == 0
        assert main(["oracle", "--json", "-o", str(json_out)]) == 0
        rows = json.loads(json_out.read_text())
        lines = text_out.read_text().splitlines()[:-1]
        assert len(rows) == len(lines) == 15
        for row, line in zip(rows, lines):
            assert set(row) == {"name", "deviation", "tolerance", "passed"}
            assert row["passed"] is True
            assert line.split() == [
                "PASS", row["name"], "max", "deviation", f"{row['deviation']:.3e}",
                "tolerance", f"{row['tolerance']:.1e}",
            ]
