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

    def test_classical_state_without_distribution(self):
        assert main(["classical", "--statistics", "bose", "--state", "mott", "--L", "10"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--statistics", "bose", "--state", "uniform", "--tmax", "nan"],
            ["quench", "--statistics", "fermi", "--tmax", "inf"],
            ["curve", "--statistics", "bose", "--state", "uniform", "--J", "nan"],
            ["curve", "--statistics", "bose", "--state", "uniform", "--ell", "nan"],
            ["curve", "--statistics", "bose", "--state", "uniform", "--U", "inf"],
            ["curve", "--statistics", "bose", "--state", "thermal:nan"],
            ["curve", "--statistics", "fermi", "--state", "thermal:inf"],
            ["curve", "--statistics", "bose", "--state", "partial:nan,16"],
            ["classical", "--statistics", "bose", "--state", "thermal:nan"],
            ["classical", "--statistics", "bose", "--state", "partial:nan,16"],
            ["classical", "--statistics", "bose", "--state", "uniform", "--alpha", "nan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_input(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        assert main([*argv, "--L", "4", "-o", str(out)]) == 1
        assert not out.exists()

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
        assert "13/13 checks passed" in lines[-1]
        assert all(line.startswith("PASS") for line in lines[:-1])
