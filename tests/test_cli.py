import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import rpolar as rp

from rpolar.cli import (
    EXIT_DEGENERATE,
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_NOT_SYMSQ,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    format_label,
    main,
    parse_label,
    parse_matrix_file,
)
from rpolar.critical import PartitionLabel
from rpolar.errors import TiesNotStrictWarning


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_label_round_trip(self):
        text = "{1}+,{2,5}-,{3}-,{4}-"
        label = parse_label(text)
        assert format_label(label) == text
        assert isinstance(label, PartitionLabel)

    @pytest.mark.parametrize("bad", ["", "{1}", "1+", "{1}+, {2}", "{1,2,3}+"])
    def test_bad_labels(self, bad, capsys):
        code, _, err = run(capsys, "critical", "3,1", "--label", bad)
        assert code == EXIT_PARSE
        assert "error" in err


class TestRpolarCmd:
    def test_worked_diag(self, capsys):
        code, out, _ = run(capsys, "rpolar", "diag", "4,2,1,0.5,0.25")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == "rpolar/1"
        assert data["k"] == 1
        assert data["reduced_energy"] == pytest.approx(2.8125, abs=1e-12)
        assert data["cos_alphas"][0] == pytest.approx(1 / 3)
        assert len(data["rotations"]) == 2
        assert data["label"]["subsets"][0] == {"idx": [1, 2], "det": 1, "angle": 1}

    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "rpolar", "diag", "1,1,1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["reduced_energy"] == 0.0
        assert data["rotations"] == [list(np.eye(3).reshape(-1))]

    def test_full_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("3 0 0\n0 2 0\n0 0 0.5\n")
        code, out, _ = run(capsys, "rpolar", "full", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["reduced_energy"] == pytest.approx(0.75, abs=1e-12)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "rpolar", "diag", "4,2,1,0.5,0.25")
        _, out2, _ = run(capsys, "rpolar", "diag", "4,2,1,0.5,0.25")
        assert out1 == out2

    def test_negative_even_parity(self, capsys):
        # negative entries need the usual -- separator on the command line
        code, out, _ = run(capsys, "rpolar", "diag", "--", "-2,-3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert "reflected" in data["flags"]
        assert data["reduced_energy"] == pytest.approx(0.5)

    def test_negative_odd_parity_rejected(self, capsys):
        code, _, err = run(capsys, "rpolar", "diag", "--", "2,-3")
        assert code == EXIT_DEGENERATE
        assert "orientation" in err

    def test_degenerate_zero(self, capsys):
        code, _, _ = run(capsys, "rpolar", "diag", "2,0,1")
        assert code == EXIT_DEGENERATE

    def test_reflective_full(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 0\n0 -2\n")
        code, _, _ = run(capsys, "rpolar", "full", str(path))
        assert code == EXIT_DEGENERATE

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "rpolar", "diag", "4,x,1")
        assert code == EXIT_PARSE

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "rpolar", "diag", "4,2,1,0.5,0.25", "--format", "text")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k = 1"
        assert lines[1] == "reduced_energy = 2.8125"
        assert lines[4] == "minimizers = 2"
        # then the two 5x5 minimizers, printed to 12 digits
        matrices = "\n".join(lines[5:])
        assert matrices.count("[[") == 2
        entries = np.array(matrices.replace("[", " ").replace("]", " ").split(), dtype=float)
        expected = np.stack(list(rp.rpolar_diag([4, 2, 1, 0.5, 0.25]).rotations))
        np.testing.assert_allclose(entries.reshape(2, 5, 5), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "argv, content",
        [
            (("rpolar", "diag", " , "), None),
            (("rpolar", "full", "FILE"), "1 2\n3\n"),
            (("rpolar", "full", "FILE"), "1 x\n3 4\n"),
        ],
    )
    def test_parse_errors_print_one_line(self, capsys, tmp_path, argv, content):
        path = tmp_path / "f.txt"
        if content is not None:
            path.write_text(content)
        code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode, values, k",
        [
            ("diag", "0.9,0.7,0.5", 0),
            ("diag", "4,2,1,0.5,0.25", 1),
            ("diag", "0.5,2.8,1.6,2.2,1.9,2.5,3", 3),
            ("diag", "-3,2.8,-2.5,2.2,1.9,1.6,0.5", 3),
            ("full", "3,2.5,2.2,1.9,0.5", 2),
        ],
    )
    def test_streamed_json_matches_json_dumps(self, capsys, tmp_path, mode, values, k):
        # the payload as one json.dumps call writes it, built in memory
        d = np.array([float(v) for v in values.split(",")])
        if mode == "full":
            f = rp.random_rotation(d.size, 7) @ np.diag(d) @ rp.random_rotation(d.size, 8).T
            path = tmp_path / "f.txt"
            path.write_text("\n".join(" ".join(repr(float(x)) for x in row) for row in f))
            ms = rp.rpolar_full(parse_matrix_file(str(path)))
            argv = ("rpolar", "full", str(path))
        else:
            ms = rp.rpolar_diag(d)
            argv = ("rpolar", "diag", "--", values)
        assert ms.k == k
        payload = {
            "schema": "rpolar/1",
            "kind": "minimizer_set",
            "n": d.size,
            "k": ms.k,
            "reduced_energy": ms.reduced_energy,
            "cos_alphas": list(ms.cos_alphas),
            "label": ms.label.to_dict(),
            "rotations": [[float(x) for x in r.reshape(-1)] for r in ms.rotations],
            "flags": list(ms.flags),
        }
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == json.dumps(payload) + "\n"


class TestCriticalCmd:
    def test_n2_stream(self, capsys):
        code, out, _ = run(capsys, "critical", "3,1")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 4
        values = [entry["value"] for entry in lines]
        assert values == sorted(values)
        assert values[0] == pytest.approx(2.0)
        assert values[-1] == pytest.approx(20.0)

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "critical", "2.5")
        lines = out.strip().splitlines()
        assert code == EXIT_OK and len(lines) == 1
        assert json.loads(lines[0])["rotation"] == [1.0]

    def test_label_filter_worked_value(self, capsys):
        code, out, _ = run(
            capsys, "critical", "4,2,1,0.5,0.25", "--label", "{1}+,{2,5}-,{3}-,{4}-"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["value"] == pytest.approx(17.78125, abs=1e-12)
        assert data["realizable"] is False

    def test_label_filter_realizable(self, capsys):
        code, out, _ = run(capsys, "critical", "3,1", "--label", "{1,2}+")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["value"] == pytest.approx(2.0)
        assert data["realizable"] is True
        assert len(data["rotations"]) == 2

    def test_label_without_block_infeasible(self, capsys):
        code, _, _ = run(capsys, "critical", "0.9,0.5", "--label", "{1,2}+")
        assert code == EXIT_INFEASIBLE

    def test_first_value_is_reduced_energy(self, capsys):
        rng = np.random.default_rng(11)
        for _ in range(15):
            values = ",".join(map(repr, rng.uniform(0.1, 5.0, int(rng.integers(2, 7))).tolist()))
            _, listing, _ = run(capsys, "critical", values)
            _, minimizers, _ = run(capsys, "rpolar", "diag", values)
            first = json.loads(listing.partition("\n")[0])
            assert first["value"] == json.loads(minimizers)["reduced_energy"]

    def test_too_large(self, capsys):
        values = ",".join(str(10 + 7 * i) for i in range(11))
        code, out, err = run(capsys, "critical", values)
        assert code == EXIT_TOO_LARGE
        assert out == "" and err.count("\n") == 1 and err.startswith("error:")

    def test_max_n_option_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["critical", "3,1", "--max-n", "11"])
        assert exc.value.code == EXIT_PARSE

    def test_label_rotations_too_large(self, capsys):
        # 2^15 rotations of 30x30: 29.5 M entries, over MAX_OUTPUT_ENTRIES
        values = ",".join(str(10 + 7 * i) for i in range(30))
        label = ",".join("{%d,%d}+" % (2 * i + 1, 2 * i + 2) for i in range(15))
        code, out, _ = run(capsys, "critical", values, "--label", label)
        assert code == EXIT_TOO_LARGE and out == ""


def reference_listing(d) -> str:
    """`rpolar critical` output written from objects: every point of
    ``enumerate_critical``, stably sorted by (value, label string), one
    ``json.dumps`` per payload."""
    points = list(rp.enumerate_critical(d))
    points.sort(key=lambda p: (p.value, format_label(p.label)))
    return "".join(
        json.dumps(
            {
                "schema": "rpolar/1",
                "kind": "critical_point",
                "label": p.label.to_dict(),
                "value": p.value,
                "rotation": p.rotation.ravel().tolist(),
            }
        )
        + "\n"
        for p in points
    )


class TestCriticalListingBytes:
    def check(self, capsys, d):
        code, out, _ = run(capsys, "critical", ",".join(map(repr, d)))
        assert code == EXIT_OK
        assert out == reference_listing(np.array(d))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_strict(self, capsys, n):
        self.check(capsys, np.random.default_rng(n).uniform(0.1, 5.0, n).tolist())

    def test_unsorted(self, capsys):
        self.check(capsys, [0.7, 4.5, 1.6, 1.8, 0.2, 3.1])

    def test_det_minus_one_pairs(self, capsys):
        self.check(capsys, [4.5, 1.8, 1.6, 0.7, 4.3])

    def test_tied(self, capsys):
        # equal values order by label string, here with two-digit indices
        with pytest.warns(TiesNotStrictWarning):
            self.check(capsys, [4.5] + [0.5] * 9)


class TestCriticalListingMemory:
    class Sink:
        def __init__(self):
            self.lines = self.chars = 0

        def write(self, text):
            self.lines += text.count("\n")
            self.chars += len(text)
            return len(text)

    def test_streams(self):
        # 14 848 points and 10 MB of JSON: the listing streams them, never holds them
        sink = self.Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["critical", ",".join(str(10 + 7 * i) for i in range(7))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert sink.lines == 14848 and sink.chars > 10**7
        assert peak < 4 * 2**20

    def test_sparse_above_default_max_n(self):
        # no pair admits a block: 1 024 points from the one all-singleton
        # partition of {1..11}
        sink = self.Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["critical", ",".join(str(0.1 + 0.07 * i) for i in range(11))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert sink.lines == 2**10
        assert peak < 4 * 2**20

    def test_sparse_n16(self):
        # no pair admits a block: 2^15 points from the one all-singleton
        # partition, well inside MAX_LISTING_ENTRIES
        sink = self.Sink()
        with contextlib.redirect_stdout(sink):
            code = main(["critical", ",".join(map(repr, np.linspace(0.9, 0.5, 16).tolist()))])
        assert code == EXIT_OK
        assert sink.lines == 2**15


class TestBlockdiagCmd:
    def test_worked_4x4(self, capsys, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("1 0 1 1\n0 1 1 1\n0 0 -1 0\n0 0 0 -1\n")
        code, out, _ = run(capsys, "blockdiag", str(path))
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["total_norm_sq"] == pytest.approx(8.0, abs=1e-10)
        assert sum(data["frobenius_split"]) == pytest.approx(8.0, abs=1e-10)
        assert data["reconstruction_residual"] <= 1e-8

    def test_symmetric_all_singletons(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("2 1\n1 3\n")
        code, out, _ = run(capsys, "blockdiag", str(path))
        assert code == EXIT_OK
        assert all(b["size"] == 1 for b in json.loads(out)["blocks"])

    def test_rotated_nilpotent(self, capsys, tmp_path):
        # T [[0, 1], [0, 0]] T^T for the rotation T with cos = 0.6, sin = -0.8
        path = tmp_path / "n.txt"
        path.write_text("0.48 0.36\n-0.64 -0.48\n")
        code, out, _ = run(capsys, "blockdiag", str(path))
        assert code == EXIT_OK
        data = json.loads(out)
        assert [b["size"] for b in data["blocks"]] == [2]
        assert data["blocks"][0]["norm_sq"] == pytest.approx(1.0, abs=1e-12)
        assert data["reconstruction_residual"] <= 1e-12

    def test_total_norm_sq_summed_left_to_right(self, capsys, tmp_path):
        # the split of this input rounds differently under compensated
        # summation, so the total must not come from the Python version's sum()
        g = np.random.default_rng(2).standard_normal((6, 6))
        path = tmp_path / "s.txt"
        path.write_text("\n".join(" ".join(map(repr, row)) for row in (g + g.T).tolist()))
        code, out, _ = run(capsys, "blockdiag", str(path))
        assert code == EXIT_OK
        data = json.loads(out)
        total = 0.0
        for part in data["frobenius_split"]:
            total += part
        assert math.fsum(data["frobenius_split"]) != total
        assert data["total_norm_sq"] == total

    def test_not_symmetric_square(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1 1\n0 2\n")
        code, _, _ = run(capsys, "blockdiag", str(path))
        assert code == EXIT_NOT_SYMSQ

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "blockdiag", "no-such-file.txt")
        assert code == EXIT_PARSE

    @pytest.mark.filterwarnings("error")
    def test_large_finite_entries(self, capsys, tmp_path):
        # diagonal with a finite square of 1e300
        path = tmp_path / "big.txt"
        path.write_text("1e150 0\n0 1\n")
        code, out, err = run(capsys, "blockdiag", str(path))
        assert (code, err) == (EXIT_OK, "")
        data = json.loads(out)
        assert [b["entries"] for b in data["blocks"]] == [[1e150], [1.0]]
        assert data["reconstruction_residual"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_square_overflow(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1e160 0\n0 1\n")
        code, out, err = run(capsys, "blockdiag", str(path))
        assert (code, out) == (EXIT_DEGENERATE, "")
        assert err.splitlines() == ["error: matrix square overflows"]

    @pytest.mark.filterwarnings("error")
    def test_norm_overflow(self, capsys, tmp_path):
        # a finite square, but ||X||_F^2 = 2 * 1.69e308 is not: no Infinity in the JSON
        path = tmp_path / "wide.txt"
        path.write_text("0 1.3e154\n1.3e154 0\n")
        code, out, err = run(capsys, "blockdiag", str(path))
        assert (code, out) == (EXIT_DEGENERATE, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCmd:
    def test_worked_case_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "4,2,1,0.5,0.25", "--starts", "200")
        assert code == EXIT_OK
        assert "PASS" in out
        assert "2.8125" in out

    def test_trivial_case(self, capsys):
        code, out, _ = run(capsys, "verify", "1,1,1", "--starts", "50")
        assert code == EXIT_OK

    def test_small_batch(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--batch", "3", "--n", "3", "--seed", "7",
            "--starts", "150", "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["all_pass"] is True
        assert len(data["cases"]) == 3

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == EXIT_PARSE


class TestFlowCmd:
    def test_csv_shape_and_monotonicity(self, capsys):
        code, out, _ = run(
            capsys, "flow", "3,1", "--step", "0.05", "--t-end", "5", "--seed", "3"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,energy,r11,r12,r21,r22"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert all(len(row) == 6 for row in rows)
        energies = [row[1] for row in rows]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_biot_near_identity(self, capsys):
        code, out, _ = run(
            capsys, "flow", "4,2,1", "--biot", "--perturb", "0.2",
            "--step", "0.02", "--t-end", "40",
        )
        assert code == EXIT_OK
        last = list(map(float, out.strip().splitlines()[-1].split(",")))
        r_final = np.array(last[2:]).reshape(3, 3)
        assert np.linalg.norm(r_final - np.eye(3)) <= 1e-6


class TestSchemeCmd:
    def test_worked_example_rows(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "4,2,1,0.5,0.25", "--label", "{1}+,{2,5}-,{3}-,{4}-",
            "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        values = [data["steps"][0]["value_before"]] + [
            s["value_after"] for s in data["steps"]
        ]
        assert values == pytest.approx(
            [17.78125, 10.78125, 10.78125, 2.8125, 2.8125], abs=1e-12
        )
        assert data["final_value"] == data["reduced_energy"]

    def test_unsorted_final_value_is_reduced_energy(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "1.9,3.8,0.3,0.5", "--label", "{1}+,{2,3}-,{4}+",
            "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["final_value"] == data["reduced_energy"]

    def test_text_table(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "4,2,1,0.5,0.25", "--label", "{1}+,{2,5}-,{3}-,{4}-"
        )
        assert code == EXIT_OK
        assert "sign-flip" in out and "no-op" in out

    def test_infeasible_start(self, capsys):
        code, _, _ = run(capsys, "scheme", "0.9,0.8", "--label", "{1,2}+")
        assert code == EXIT_INFEASIBLE


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("rpolar", "full", "NAN_FILE"), EXIT_DEGENERATE),
            (("verify", "--batch", "1", "--n", "17"), EXIT_TOO_LARGE),
            (("flow", "4,2,1", "--step", "0"), EXIT_FAIL),
            # k = 63: 2^63 minimizers, refused before any output
            (
                ("rpolar", "diag", ",".join(map(str, np.linspace(3.0, 1.2, 126)))),
                EXIT_TOO_LARGE,
            ),
            (("verify", "1,2", "--starts", "0"), EXIT_FAIL),
            (("verify", "1,2", "--starts", "-5"), EXIT_FAIL),
            (("flow", "3,1", "--t-end", "inf"), EXIT_FAIL),
            (("flow", "3,1", "--t-end", "nan"), EXIT_FAIL),
            (("flow", "3,1", "--step", "nan"), EXIT_FAIL),
            (("verify", "--batch", "-1"), EXIT_PARSE),
            (("verify", "--batch", "1", "--n", "-1"), EXIT_PARSE),
            (("flow", "3,1", "--t-end", "-5"), EXIT_FAIL),
            # 5e13 steps at the default step: refused before the first one
            (("flow", "3,1", "--t-end", "1e12"), EXIT_TOO_LARGE),
            (("flow", "3,1", "--perturb", "inf"), EXIT_DEGENERATE),
            # 1e11 starts would need terabytes: refused before any is drawn
            (("verify", "3,2,1", "--starts", "100000000000"), EXIT_TOO_LARGE),
            # a tolerance of nan would print as NaN in the JSON report
            (("verify", "3,2,1", "--tol", "nan", "--format", "json"), EXIT_PARSE),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_single_error_line(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "nan.txt"
        path.write_text("1 0\n0 nan\n")
        argv = [str(path) if a == "NAN_FILE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestHostileValues:
    """Every subcommand that reads diagonal values keeps the output
    contract on non-finite, overflowing, tiny, odd-parity and zero input:
    a documented exit code, one ``error:`` line and no stdout on error, and
    no Infinity or NaN in what it prints."""

    LABEL = "{1}+,{2}+,{3}+"

    @pytest.mark.parametrize(
        "values", ["nan,1,0.5", "inf,1,0.5", "1e200,1,0.5", "1e-300,1,0.5", "-2,3,1", "2,0,1"]
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("rpolar", "diag"),
            ("critical",),
            ("critical", "--label", LABEL),
            ("scheme", "--label", LABEL),
            ("verify", "--starts", "3"),
            ("flow", "--t-end", "0.04"),
        ],
        ids=["rpolar-diag", "critical", "critical-label", "scheme", "verify", "flow"],
    )
    @pytest.mark.filterwarnings("error")
    def test_output_contract(self, capsys, command, values):
        code, out, err = run(capsys, *command, "--", values)
        assert code in (
            EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_DEGENERATE, EXIT_TOO_LARGE,
            EXIT_NOT_SYMSQ, EXIT_INFEASIBLE,
        )
        assert "Infinity" not in out and "NaN" not in out
        if err:
            assert code != EXIT_OK and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            # a verification failure is a report on stdout, not an error
            assert code == EXIT_OK or (command[0] == "verify" and code == EXIT_FAIL)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
