"""Command-line contract: exit codes, deterministic output, tolerances on
every numeric, bundled example states."""

import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from chiralkit import cli
from chiralkit.cli import main
from chiralkit.io import StateFileError, parse_state_document, parse_state_file, write_state_file
from chiralkit.qmat import DensityMatrix, pure_state_density
from chiralkit.sampling import random_mixed_state, random_pure_state, split_rng
from chiralkit.states import chiral_qutrit_qubit, commuting_chiral_qudit_qubit
from support import bell_state


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    write_state_file(path, bell_state(), label="bell")
    return str(path)


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example1.json"
    write_state_file(path, chiral_qutrit_qubit((0.5, 0.3, 0.2)))
    return str(path)


class TestBundledData:
    def test_bell_round_trip(self):
        with resources.as_file(resources.files("chiralkit.data") / "bell.json") as path:
            rho = parse_state_file(path)
        assert rho.dims == (2, 2)
        assert np.max(np.abs(rho.data - bell_state().data)) < 1e-10

    def test_example_state(self):
        with resources.as_file(resources.files("chiralkit.data") / "example1.json") as path:
            rho = parse_state_file(path)
        assert rho.dims == (3, 2)
        assert np.max(np.abs(rho.data - chiral_qutrit_qubit((0.5, 0.3, 0.2)).data)) < 1e-10


class TestStateFileErrors:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2,')
        assert main(["measure", "--state", str(bad), "--split", "0|1"]) == 2

    def test_missing_file_exit_2(self):
        assert main(["measure", "--state", "/nonexistent.json", "--split", "0|1"]) == 2

    def test_shape_mismatch_exit_3(self, tmp_path):
        doc = {"dims": [2, 2], "matrix": [[1.0, 0.0]] * 4}
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 3
        # a product of dims that wraps an int64 to 0 must not expect an empty matrix
        path.write_text(json.dumps({"dims": [2**32, 2**32], "matrix": []}))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 3

    def test_invariant_violation_exit_4(self, tmp_path):
        matrix = [[0.0, 0.0]] * 16
        matrix[0] = [2.0, 0.0]
        path = tmp_path / "inv.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 4

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["measure", "--state", str(bad), "--split", "0|1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unreadable input: state file is not UTF-8 text:")

    @pytest.mark.parametrize("dims,d", [([2.5, 2], 4), (["2", 2], 4), ([True, 2], 2), ([], 0)])
    def test_dims_that_are_not_whole_numbers_exit_2(self, tmp_path, capsys, dims, d):
        # int() reads these as (2, 2), (2, 2) and (1, 2), and the matrix, I/d, fits that reading;
        # no dims at all expected 0 entries
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": [[float(i % (d + 1) == 0) / d, 0.0] for i in range(d * d)]}))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 2
        assert "malformed dims/matrix fields" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [[-2], [2, -2], [0, 2]])
    def test_dims_below_one_exit_4(self, tmp_path, capsys, dims):
        # refused before the reshape, which reads a negative size as an unknown one
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": [[1.0, 0.0]] * int(np.prod(dims)) ** 2}))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 4
        assert "subsystem dimensions must be positive" in capsys.readouterr().err

    def test_unknown_flag_exit_64(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["measure", "--nope"])
        assert info.value.code == 64
        assert "usage" in capsys.readouterr().err


def _write_matrix(path, dims, m) -> str:
    """A state file holding m as it is, with no validation on the way."""
    path.write_text(json.dumps({"dims": list(dims), "matrix": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()}))
    return str(path)


class TestStateTolerance:
    """A state accepted at --atol is accepted by every reduced state and
    decomposition the command takes from it."""

    COMMANDS = ["measure", "qfi", "logdist"]

    @pytest.fixture()
    def trace_off_file(self, tmp_path):
        m = random_mixed_state((2, 2), split_rng(12, 0)).data * (1 + 5e-9)
        return _write_matrix(tmp_path / "trace.json", (2, 2), m)

    @pytest.fixture()
    def skew_file(self, tmp_path):
        m = random_mixed_state((2, 2), split_rng(12, 1)).data.copy()
        m[0, 1] += 1e-7
        return _write_matrix(tmp_path / "skew.json", (2, 2), m)

    @pytest.fixture()
    def probe_file(self, tmp_path):
        # diag(1 + 16a, 0, ..., 0, -a, ..., -a) on (2, 16) with a = 9e-9 and
        # -a on the last 16 entries: accepted at the default --atol, while its
        # A marginal has the eigenvalue -16a = -1.44e-7
        a = 9e-9
        p = np.zeros(32)
        p[0], p[16:] = 1 + 16 * a, -a
        return _write_matrix(tmp_path / "probe.json", (2, 16), np.diag(p).astype(complex))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_reduced_states_are_not_rechecked(self, probe_file, capsys, command):
        assert main([command, "--state", probe_file, "--split", "0|1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("state", ["bell.json", "example1.json", "probe"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_check_the_parse(self, probe_file, capsys, monkeypatch, command, state):
        from chiralkit import qmat

        shapes = []
        check = qmat.check_density
        monkeypatch.setattr(qmat, "check_density", lambda m, *a, **k: shapes.append(np.shape(m)) or check(m, *a, **k))
        path = probe_file if state == "probe" else str(resources.files("chiralkit.data") / state)
        assert main([command, "--state", path, "--split", "0|1"]) == 0
        capsys.readouterr()
        assert shapes == [{"bell.json": (4, 4), "example1.json": (6, 6), "probe": (32, 32)}[state]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_finite_entry_rejected_at_parse(self, tmp_path, capsys, command):
        # json reads NaN; every comparison with it is false, so only the
        # finiteness check stops it
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.nan
        path = _write_matrix(tmp_path / "nan.json", (2, 2), m)
        assert main([command, "--state", path, "--split", "0|1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state invariant violated: non-finite entry (nan+0j) at index (0, 0)\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_trace_error_within_default_atol(self, trace_off_file, capsys, command):
        assert main([command, "--state", trace_off_file, "--split", "0|1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_hermiticity_defect_within_atol(self, skew_file, capsys, command):
        assert main([command, "--state", skew_file, "--split", "0|1", "--atol", "1e-6"]) == 0
        assert capsys.readouterr().err == ""

    def test_conjugate_keeps_the_atol(self, tmp_path, capsys):
        # a Bell state 5e-10 off Hermitian still commutes with its marginals,
        # so the verdict compares the invariants of the state and its conjugate
        m = bell_state().data.copy()
        m[0, 1] += 5e-10
        path = _write_matrix(tmp_path / "bell.json", (2, 2), m)
        assert main(["qfi", "--state", path, "--split", "0|1", "--atol", "1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["nonchirality"]["condition"] == 3

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("atol", ["nan", "inf", "-1"])
    def test_bad_atol_is_a_usage_error(self, tmp_path, capsys, command, atol):
        # NaN would pass every check and -1 fail every one: a state that is
        # neither Hermitian nor of unit trace, one with a negative
        # eigenvalue, and an exact state are all refused for the atol alone
        states = (np.array([[0.9, 0.7], [0.1, 0.3]]), np.diag([2.0, -1.0]), np.eye(2) / 2)
        for k, m in enumerate(states):
            path = _write_matrix(tmp_path / f"s{k}.json", (2,), m.astype(complex))
            split = "0" if command == "logdist" else "0|1"
            assert main([command, "--state", path, "--split", split, "--atol", atol]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: atol must be finite and non-negative, got {float(atol)}\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_hermiticity_defect_rejected_at_parse(self, skew_file, capsys, command):
        assert main([command, "--state", skew_file, "--split", "0|1"]) == 4
        assert capsys.readouterr().err == "error: state invariant violated: not Hermitian: max |M - M†| = 1.000e-07\n"


class TestStateFileIO:
    @staticmethod
    def per_entry_text(rho, label):
        """The document as written one entry at a time."""
        doc = {"dims": list(rho.dims), "matrix": [[float(z.real), float(z.imag)] for z in rho.data.reshape(-1)]}
        if label is not None:
            doc["label"] = label
        return json.dumps(doc) + "\n"

    @pytest.mark.parametrize(
        "rho,label",
        [
            (random_mixed_state((2, 2), split_rng(31, 0)), "mixed"),
            (pure_state_density((32, 32), random_pure_state(1024, split_rng(31, 1))), None),
        ],
        ids=["2x2", "32x32"],
    )
    def test_bytes_match_per_entry_form_and_round_trip(self, tmp_path, rho, label):
        path = tmp_path / "state.json"
        write_state_file(path, rho, label=label)
        assert path.read_text() == self.per_entry_text(rho, label)
        assert np.array_equal(parse_state_file(path, atol=1e-6).data, rho.data)

    @pytest.mark.parametrize(
        "entry",
        [[1.0], ["1.0", 0.0], [None, 0.0], [[1.0, 0.0], 0.0], [[1.0], [0.0]], [1.0, 0.0, 0.0], "10", None],
        ids=["short", "string", "null", "ragged-nesting", "nested", "triple", "string-entry", "null-entry"],
    )
    def test_malformed_entries_raise(self, entry):
        matrix = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        matrix[1] = entry
        with pytest.raises(StateFileError, match="pairs"):
            parse_state_document({"dims": [2], "matrix": matrix})


class TestMeasureCommand:
    def test_product_state_all_zero(self, tmp_path, capsys):
        prod = random_mixed_state((2,), split_rng(140, 0))
        other = random_mixed_state((2,), split_rng(140, 1))
        from chiralkit.qmat import tensor_product

        path = tmp_path / "prod.json"
        write_state_file(path, tensor_product(prod, other))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for name, entry in doc["measures"].items():
            assert abs(entry["value"]) <= entry["tolerance"], name

    def test_every_numeric_carries_tolerance(self, example_file, capsys):
        assert main(["measure", "--state", example_file, "--split", "0|1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for name, entry in doc["measures"].items():
            assert ("tolerance" in entry) or (entry["value"] is None), name

    def test_byte_identical_reruns(self, example_file, capsys):
        main(["measure", "--state", example_file, "--split", "0|1", "--s", "0.3"])
        first = capsys.readouterr().out
        main(["measure", "--state", example_file, "--split", "0|1", "--s", "0.3"])
        assert capsys.readouterr().out == first

    def test_close_flow_parameters_keep_their_own_entries(self, example_file, capsys):
        # 0.7000001 and 1.00000001e-7 print as 0.7 and 1e-07 under {:g}, so
        # they are named by repr and overwrite no other entry
        from chiralkit import chirality as ch
        from chiralkit.qmat import Partition

        args = ["measure", "--state", example_file, "--split", "0|1"]
        s_values = [0.7, 0.7000001, 1e-7, 1.00000001e-7]
        assert main(args + [a for s in s_values for a in ("--s", repr(s))]) == 0
        measures = json.loads(capsys.readouterr().out)["measures"]
        rho, split = parse_state_file(example_file), Partition.parse("0|1")
        for name, s in zip(["0.7", "0.7000001", "1e-07", "1.00000001e-07"], s_values):
            assert measures[f"gamma_s[{name}]"]["value"] == ch.gamma_s(rho, split, s)
            assert measures[f"phi_s[{name}]"]["value"] == ch.phi_s(rho, split, s)
        assert len([k for k in measures if k.startswith(("gamma_s[", "phi_s["))]) == 8
        assert main(args) == 0
        assert {"gamma_s[0.7]", "phi_s[0.7]"} <= set(json.loads(capsys.readouterr().out)["measures"])


    @pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
    def test_non_finite_flow_parameter_is_a_usage_error(self, example_file, capsys, s):
        # gamma_s and phi_s at a non-finite s are NaN, which JSON cannot hold
        with pytest.raises(SystemExit) as info:
            main(["measure", "--state", example_file, "--split", "0|1", "--s", "0.3", f"--s={s}"])
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --s: must be finite, got {s!r}\n")

    def test_d1024_classical_quantum_state(self, tmp_path, capsys):
        # (32, 32) block state sum_a p_a |a><a| (x) sigma_a: K_A commutes with
        # rho and K_AB, so every symmetric measure vanishes; J3' need not
        from chiralkit.qmat import DensityMatrix

        rng = split_rng(142, 0)
        probs = rng.dirichlet(np.ones(32))
        data = np.zeros((32, 32, 32, 32), dtype=complex)
        for a in range(32):
            data[a, :, a, :] = probs[a] * random_mixed_state((32,), rng).data
        path = tmp_path / "cq1024.json"
        write_state_file(path, DensityMatrix((32, 32), data.reshape(1024, 1024)))
        assert main(["measure", "--state", str(path), "--split", "0|1"]) == 0
        doc = json.loads(capsys.readouterr().out)["measures"]
        for name in ("J2", "J3", "gamma_s[0.7]", "phi_s[0.7]", "gamma"):
            assert abs(doc[name]["value"]) <= doc[name]["tolerance"], name
        assert abs(doc["J3_prime"]["value"]) > 1e3 * doc["J3_prime"]["tolerance"]


class TestLogdistCommand:
    def test_reports_expected_fields(self, example_file, capsys):
        code = main(
            ["logdist", "--state", example_file, "--split", "0|1", "--restarts", "10",
             "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_fidelity"]["value"] < 1 - 1e-3
        assert not doc["nonchirality_certified"]
        assert doc["restarts"] == 10

    def test_bundled_bell_fidelity_is_at_most_one(self, capsys):
        # the Bell state's best fidelity rounds a few ulps above 1 and is
        # reported as 1.0
        with resources.as_file(resources.files("chiralkit.data") / "bell.json") as path:
            assert main(["logdist", "--state", str(path), "--split", "0|1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_fidelity"]["value"] == 1.0
        assert doc["log_distance_upper_estimate"]["value"] == 0.0
        assert doc["nonchirality_certified"]

    def test_seed_determinism(self, bell_file, capsys):
        argv = ["logdist", "--state", bell_file, "--split", "0|1", "--restarts", "5",
                "--seed", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    def test_no_iterations_is_a_usage_error(self, bell_file, capsys, max_iters):
        argv = ["logdist", "--state", bell_file, "--split", "0|1", "--restarts", "2", "--max-iters", max_iters]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_iters must be >= 1\n"


class TestStabilizerCommand:
    def test_ghz_tableau(self, tmp_path, capsys):
        path = tmp_path / "ghz.tab"
        path.write_text("+XXX\n+ZZI\n+IZZ\n")
        assert main(["stabilizer", "--tableau", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjugation_pauli"] == "III"
        assert doc["nullity"] == 0
        assert doc["stabilizer_fidelity"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["solution_set_log2"] == 3

    def test_mixed_tableau_with_y_sites(self, tmp_path, capsys):
        # +XYZ and -ZZI: one Y site, so the base solves a nonzero right-hand
        # side, the first of the 2^4 solutions with every free unknown 0
        path = tmp_path / "mixed.tab"
        path.write_text("+XYZ\n-ZZI\n")
        assert main(["stabilizer", "--tableau", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjugation_pauli"] == "XXI"
        assert doc["solution_set_log2"] == 4
        assert "nullity" not in doc

    def test_five_qubit_fidelity_without_eigh(self, tmp_path, capsys, monkeypatch):
        # psi is read off a column of the exact rho, not an eigendecomposition
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        path = tmp_path / "ghz5.tab"
        path.write_text("+XXXXX\n+ZZIII\n+IZZII\n+IIZZI\n+IIIZZ\n")
        assert main(["stabilizer", "--tableau", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nullity"] == 0
        assert doc["stabilizer_fidelity"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert calls == []

    def test_six_qubits_skip_the_fidelity(self, tmp_path, capsys):
        path = tmp_path / "ghz6.tab"
        path.write_text("+XXXXXX\n+ZZIIII\n+IZZIII\n+IIZZII\n+IIIZZI\n+IIIIZZ\n")
        assert main(["stabilizer", "--tableau", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nullity"] == 0
        assert "stabilizer_fidelity" not in doc

    def test_eleven_qubits_skip_the_nullity(self, tmp_path, capsys):
        # the nullity's table of 4^n Pauli expectations stops at 10 qubits;
        # above it the nullity is left out, as the fidelity is above 5
        n = 11
        path = tmp_path / "ghz11.tab"
        path.write_text("".join(["+" + "X" * n + "\n"] + [f"+{'I' * i}ZZ{'I' * (n - i - 2)}\n" for i in range(n - 1)]))
        assert main(["stabilizer", "--tableau", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "nullity" not in doc and "stabilizer_fidelity" not in doc
        assert doc["qubits"] == doc["generators"] == n
        assert doc["conjugation_pauli"] == "I" * n and doc["solution_set_log2"] == n
        assert "tableau" in doc
        assert doc["state_fingerprint_sha256_16"] == "141ad91b7d0d348a"  # exact bytes: no construction may move them

    @pytest.mark.parametrize("rows,block", [(7, 3), (1, 3), (300, 256), (5, 256)])
    def test_fingerprint_blocks_match_one_digest(self, monkeypatch, rows, block):
        # the row blocks hash the same bytes as the whole rounded matrix, also
        # when the row count is not a multiple of the block
        monkeypatch.setattr(cli, "_FINGERPRINT_ROWS", block)
        m = split_rng(41, rows).standard_normal((rows, 5, 2)).view(complex)[..., 0] * 1e-3
        whole = hashlib.sha256(np.round(m, 8).tobytes()).hexdigest()[:16]
        assert cli._state_fingerprint(m) == whole
        assert cli._state_fingerprint(np.asfortranarray(m)) == whole

    def test_mixed_group_skips_pure_monotones(self, tmp_path, capsys):
        path = tmp_path / "mixed.tab"
        path.write_text("+XX\n")
        assert main(["stabilizer", "--tableau", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "nullity" not in doc
        assert doc["solution_set_log2"] == 3  # 2n - k

    def test_non_utf8_tableau_exit_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.tab"
        path.write_bytes(b"\xff\xfeX")
        assert main(["stabilizer", "--tableau", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unreadable input: tableau is not UTF-8 text: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )

    def test_too_large_to_allocate_exit_64(self, tmp_path, capsys):
        # a 24-qubit state is 4 PiB: numpy refuses the stabilizer_state
        # matrix at once, before any other allocation
        n = 24
        path = tmp_path / "ghz24.tab"
        path.write_text("".join(["+" + "X" * n + "\n"] + [f"+{'I' * i}ZZ{'I' * (n - i - 2)}\n" for i in range(n - 1)]))
        assert main(["stabilizer", "--tableau", str(path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input too large to allocate: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
    def test_empty_tableau_exit_64(self, tmp_path, capsys, text):
        path = tmp_path / "empty.tab"
        path.write_text(text)
        assert main(["stabilizer", "--tableau", str(path)]) == 64
        assert capsys.readouterr().err == "error: empty tableau\n"


class TestQfiCommand:
    def test_block_state_verdicts(self, example_file, capsys):
        assert main(["qfi", "--state", example_file, "--split", "0|1", "--party", "A"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["intrinsic_ip_A"]["value"]) <= doc["intrinsic_ip_A"]["tolerance"]
        assert doc["intrinsic_ip_B"]["value"] > 0.1
        assert doc["classical_quantum"]["detected"] is True
        assert doc["nonchirality"]["verdict"] == "undecided"

    def test_one_spectrum_for_both_ips(self, example_file, capsys, monkeypatch):
        # both intrinsic IPs together cost no decomposition beyond the
        # verdicts', which decompose rho and each marginal once into the
        # modular set that the IPs read
        from chiralkit import correlations as co
        from chiralkit.qmat import Partition

        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        rho, split = parse_state_file(example_file), Partition.parse("0|1")
        co.is_classical_quantum(rho, split, "A")
        co.noncommutativity_verdict(rho, split)
        rest = len(calls)
        calls.clear()
        assert main(["qfi", "--state", example_file, "--split", "0|1", "--party", "A"]) == 0
        capsys.readouterr()
        assert len(calls) - rest == 0

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_verdicts_share_one_marginal_test_per_group(self, example_file, capsys, monkeypatch, party):
        # the two verdicts decompose each marginal once between them, and
        # print what the public functions, each testing on its own, return
        from chiralkit import correlations as co
        from chiralkit.qmat import Partition

        rho, split = parse_state_file(example_file), Partition.parse("0|1")
        dec, reason = co.is_classical_quantum(rho, split, party)
        verdict = co.noncommutativity_verdict(rho, split)
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: shapes.append(np.shape(a)) or eigh(a, *r, **k))
        assert main(["qfi", "--state", example_file, "--split", "0|1", "--party", party]) == 0
        doc = json.loads(capsys.readouterr().out)
        # rho_A and rho_B for the verdicts and the modular set, then rho
        assert shapes == [(3, 3), (2, 2), (6, 6)]
        assert doc["classical_quantum"] == {"party": party, "detected": dec is not None, "reason": reason}
        assert doc["nonchirality"] == {"verdict": verdict.verdict, "condition": verdict.condition,
                                       "reason": verdict.reason}

    def test_one_eigvalsh_the_parse_check(self, example_file, capsys, monkeypatch):
        # the reduced states are not re-checked, so the parse is the one
        # eigvalsh
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *r, **k: calls.append(np.shape(a)) or eigvalsh(a, *r, **k))
        assert main(["qfi", "--state", example_file, "--split", "0|1"]) == 0
        capsys.readouterr()
        assert calls == [(6, 6)]

    @pytest.mark.parametrize("split,groups", [("0|1|2", 3), ("0,1,2", 1)])
    def test_split_must_be_a_bipartition(self, tmp_path, capsys, split, groups):
        # one group used to end in an IndexError traceback
        path = tmp_path / "three_qubits.json"
        write_state_file(path, DensityMatrix((2, 2, 2), commuting_chiral_qudit_qubit().data))
        assert main(["qfi", "--state", str(path), "--split", split]) == 64
        assert capsys.readouterr().err == f"error: expected a bipartition, got {groups} groups\n"


class TestBoundsCommand:
    def test_small_suite_passes(self, capsys):
        assert main(["bounds", "--n", "6", "--seed", "7", "--restarts", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == 0
        assert doc["magic_bounds_worst_excess"]["value"] <= 1e-7


    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_samples_is_a_usage_error(self, capsys, n):
        # with no sample the worst excess and slack stay -inf and inf, which
        # printed as -Infinity and Infinity, not JSON
        assert main(["bounds", "--n", n]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_samples must be >= 1\n"


class TestScanCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--n", "40", "--seed", "5", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] == 40
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sample_index,E_N,abs_J2,seed"
        assert len(lines) == 41

    def test_identical_argv_identical_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--n", "25", "--seed", "9", "--out", str(out1)])
        first = capsys.readouterr().out
        main(["scan", "--n", "25", "--seed", "9", "--out", str(out2)])
        assert capsys.readouterr().out == first
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, where):
        # the output is opened before the scan, so a bad path fails at once
        from chiralkit import experiments as ex

        monkeypatch.setattr(ex, "run_chirality_entanglement_scan", lambda *a: pytest.fail("the scan ran"))
        out = tmp_path if where == "directory" else tmp_path / "missing" / "scan.csv"
        assert main(["scan", "--n", "40", "--seed", "5", "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {out}: ")

    def test_no_samples_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--n", "0", "--seed", "5", "--out", str(out)]) == 64
        assert capsys.readouterr().err == "error: n_samples must be >= 1\n"
        assert not out.exists()


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        assert main(["selftest", "--only", "C3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] C3")

    @pytest.mark.parametrize("key", ["C99", "c3"])
    def test_unknown_criterion_is_a_usage_error(self, capsys, key):
        # a key that names no criterion would run nothing and exit 0
        with pytest.raises(SystemExit) as info:
            main(["selftest", "--only", key])
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --only: invalid choice: '{key}'" in captured.err

    def test_raised_bound_violation_fails_its_criterion(self, capsys, monkeypatch):
        # with the tolerances below every slack and excess, C2 and C6 raise
        # from the library; each is a FAIL line, and the criteria after
        # them still run
        from chiralkit import correlations as co
        from chiralkit import stabilizer as st

        monkeypatch.setattr(st, "MAGIC_BOUND_TOL", -1.0)
        monkeypatch.setattr(co, "GAMMA_QFI_TOL", -1.0)
        assert main(["selftest", "--only", "C2", "--only", "C3", "--only", "C6"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[:2] for line in lines] == [["[FAIL]", "C2"], ["[PASS]", "C3"], ["[FAIL]", "C6"]]
        assert "violated" in lines[0] and "gamma-QFI bound violated: member" in lines[2]
