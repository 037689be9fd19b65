"""Command-line interface: formats, exit codes, reproducibility."""

import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mindht import SUPPORTED_SIZES, _cgen, dht_matrix, naive_dht
from mindht.cli import main
from mindht.io import SignalParseError, read_signal, write_signal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- signal file I/O ---


def test_text_round_trip(tmp_path):
    path = tmp_path / "sig.txt"
    values = np.array([1.0, -2.5, 1 / 3, 1e-17, 12345.678901234567])
    write_signal(path, values, "text")
    back, fmt = read_signal(path)
    assert fmt == "text"
    assert np.array_equal(back, values)  # bit-exact round trip


def test_csv_round_trip(tmp_path):
    path = tmp_path / "sig.csv"
    values = np.array([0.1, 0.2, -0.3, 7.0])
    write_signal(path, values, "csv")
    back, fmt = read_signal(path)
    assert fmt == "csv"
    assert np.array_equal(back, values)


def test_text_comments_and_blanks(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("# header\n\n1.5\n  # another\n-2\n\n")
    values, _ = read_signal(path)
    assert values == pytest.approx([1.5, -2.0])


def test_csv_column(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1.0\n2.0\n3.0\n4.0\n")
    values, _ = read_signal(path)
    assert values == pytest.approx([1, 2, 3, 4])


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1.0\nbogus\n")
    with pytest.raises(SignalParseError) as exc:
        read_signal(path)
    assert "line 2" in str(exc.value)


NON_FINITE_TOKENS = ("nan", "inf", "-inf", "1e999")

# (file name, contents with the token as its third sample, expected location)
NON_FINITE_FILES = (
    ("sig.txt", "1.0\n# note\n2.0\n{}\n", "line 4"),
    ("sig.csv", "1.0,2.0,{},4.0\n", "row 1, column 3"),
    ("sig.csv", "1.0\n2.0\n{}\n4.0\n", "line 3"),
)


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
@pytest.mark.parametrize("name, template, where", NON_FINITE_FILES)
def test_non_finite_sample_names_its_location(tmp_path, token, name, template, where):
    path = tmp_path / name
    path.write_text(template.format(token))
    with pytest.raises(SignalParseError) as exc:
        read_signal(path)
    assert f"{where}: non-finite sample {token!r}" in str(exc.value)


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
@pytest.mark.parametrize("name, template, where", NON_FINITE_FILES)
def test_non_finite_sample_exit2(tmp_path, capsys, token, name, template, where):
    src = tmp_path / name
    src.write_text(template.format(token))
    dst = tmp_path / ("out" + src.suffix)
    code, _, err = run(capsys, "transform", "--in", str(src), "--out", str(dst))
    assert code == 2
    assert where in err
    assert not dst.exists()


# --- transform / inverse / dft ---


def test_transform_fast(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("1\n2\n3\n4\n")
    code, _, _ = run(capsys, "transform", "--n", "4", "--in", str(src), "--out", str(dst))
    assert code == 0
    values, _ = read_signal(dst)
    assert values == pytest.approx([10, -4, -2, 0])


def test_transform_zeroes(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("0\n" * 8)
    code, _, _ = run(capsys, "transform", "--in", str(src), "--out", str(dst))
    assert code == 0
    values, _ = read_signal(dst)
    assert np.all(values == 0.0)


def test_transform_naive_any_length(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    v = np.linspace(-1, 1, 7)
    write_signal(src, v)
    code, _, _ = run(capsys, "transform", "--naive", "--in", str(src), "--out", str(dst))
    assert code == 0
    values, _ = read_signal(dst)
    assert values == pytest.approx(naive_dht(v))


def test_transform_keeps_csv_format(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_text("1,2,3,4\n")
    code, _, _ = run(capsys, "transform", "--in", str(src), "--out", str(dst))
    assert code == 0
    assert dst.read_text().count(",") == 3


def test_transform_unsupported_length_exit3(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1\n2\n3\n4\n5\n")
    code, _, err = run(capsys, "transform", "--in", str(src), "--out", str(src) + ".o")
    assert code == 3
    assert "4, 8, 12, 24" in err


def test_transform_parse_error_exit2(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1.0\nnot-a-number\n")
    code, _, err = run(capsys, "transform", "--in", str(src), "--out", str(src) + ".o")
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit2(tmp_path, capsys):
    code, _, _ = run(
        capsys, "transform", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")
    )
    assert code == 2


def test_usage_error_exit3(capsys):
    assert main(["transform", "--n", "13"]) == 3


def test_repeated_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # in-process callers see the same memory peak whenever the collector runs
    src = tmp_path / "sig.txt"
    write_signal(src, np.arange(8.0), "text")
    argvs = [
        ["count", "--format", "machine"],
        ["derive", "--n", "24", "--format", "machine"],
        ["transform", "--in", str(src), "--out", str(tmp_path / "out.txt")],
    ]
    for argv in argvs:  # fill the lazy caches first
        main(argv)
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_inverse_round_trip(tmp_path, capsys):
    src = tmp_path / "in.txt"
    mid = tmp_path / "mid.txt"
    dst = tmp_path / "out.txt"
    v = np.array([0.25, -1.5, 3.0, 2.0, 1.0, -1.0])
    write_signal(src, v)
    assert run(capsys, "transform", "--naive", "--in", str(src), "--out", str(mid))[0] == 0
    assert run(capsys, "inverse", "--in", str(mid), "--out", str(dst))[0] == 0
    values, _ = read_signal(dst)
    assert values == pytest.approx(v, abs=1e-12)


def test_dft_matches_oracle(tmp_path, capsys):
    from mindht import naive_dft

    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("1\n2\n3\n4\n")
    assert run(capsys, "dft", "--in", str(src), "--out", str(dst))[0] == 0
    rows = [line.split() for line in dst.read_text().splitlines()]
    got = np.array([complex(float(re), float(im)) for re, im in rows])
    assert got == pytest.approx(naive_dft([1, 2, 3, 4]), abs=1e-12)


# --- verify / count / derive / bench ---


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "25")
    assert code == 0
    assert out.count("ok") == 4


def test_verify_machine_mode_reproducible(capsys):
    code1, out1, _ = run(capsys, "verify", "--trials", "10", "--seed", "7", "--format", "machine")
    code2, out2, _ = run(capsys, "verify", "--trials", "10", "--seed", "7", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 7
    assert [r["n"] for r in doc["results"]] == [4, 8, 12, 24]
    assert all(r["ok"] for r in doc["results"])


@pytest.mark.parametrize("fmt", ("machine", "text"))
def test_verify_output_matches_golden(capsys, fmt):
    # tests/data/verify_seed2024_trials50_{fmt}.txt holds the stdout of the
    # verify that drew one signal per trial; the one (trials, n) draw per N
    # must give the same signals, errors and bytes
    golden = (Path(__file__).parent / "data" / f"verify_seed2024_trials50_{fmt}.txt").read_text()
    code, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "2024", "--format", fmt)
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("trials", (1, 2, 50, 1000))
def test_verify_oracle_is_naive_dht_bit_for_bit(trials):
    # verify checks all of a length's trials against one stacked product; a
    # (n, n) matrix times (trials, n, 1) runs gemv per row, as naive_dht's
    # M @ v does, so every row must have naive_dht's bits
    for seed in (2024, 7, 501, 502, 503):
        for n in SUPPORTED_SIZES:
            signals = np.random.default_rng([seed, n]).uniform(-1.0, 1.0, (trials, n))
            stacked = np.matmul(dht_matrix(n), signals[:, :, None])[..., 0]
            assert stacked.tobytes() == np.array([naive_dht(v) for v in signals]).tobytes()


def test_verify_runs_fast_dht_once_per_trial_on_a_row(capsys, monkeypatch):
    import mindht.cli as cli

    real = cli.fast_dht
    seen = []

    def counted(v, n=None):
        seen.append((type(v), v.shape, n))
        return real(v, n)

    monkeypatch.setattr(cli, "fast_dht", counted)
    code, _, _ = run(capsys, "verify", "--trials", "7")
    assert code == 0
    assert seen == [(np.ndarray, (n,), None) for n in SUPPORTED_SIZES for _ in range(7)]


def test_verify_rejects_zero_trials(capsys):
    code, _, _ = run(capsys, "verify", "--trials", "0")
    assert code == 3


def test_count_text(capsys):
    code, out, _ = run(capsys, "count")
    assert code == 0
    assert "138" in out and "meets bound" in out


def test_count_machine(capsys):
    code, out, _ = run(capsys, "count", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_meet_bound"] is True
    assert doc["matches_declared_counts"] is True
    assert {k["n"]: (k["additions"], k["multiplications"]) for k in doc["kernels"]} == {
        4: (8, 0),
        8: (22, 2),
        12: (52, 4),
        24: (138, 12),
    }


def test_count_output_matches_golden(capsys):
    # tests/data/count_machine.txt holds the stdout of count before the
    # flows ran LAYER_SPECS; pruning the trace must not move a count
    golden = (Path(__file__).parent / "data" / "count_machine.txt").read_text()
    code, out, _ = run(capsys, "count", "--format", "machine")
    assert code == 0
    assert out == golden


def test_count_detects_corrupted_kernel(capsys, monkeypatch):
    # negative control: a kernel with one extra multiplication must fail
    import mindht.kernels as kernels

    real = kernels._FLOWS[8]

    def bad(v):
        out = real(v)
        out[0] = 0.9999999 * out[0]  # one spurious multiplication
        return out

    monkeypatch.setitem(kernels._FLOWS, 8, bad)
    code, _, _ = run(capsys, "count")
    assert code == 1


def test_verify_detects_corrupted_kernel(capsys, monkeypatch):
    import mindht.cli as cli

    real = cli.fast_dht

    def bad(v, n=None):
        out = real(v, n)
        out[0] += 1e-6
        return out

    monkeypatch.setattr(cli, "fast_dht", bad)
    code, _, err = run(capsys, "verify", "--trials", "5")
    assert code == 1
    assert "FAILED" in err


@pytest.mark.parametrize("n", (8, 12, 24))
def test_derive_text(capsys, n):
    code, out, _ = run(capsys, "derive", "--n", str(n))
    assert code == 0
    assert "reconstruction ok" in out
    assert "multiplication sites" in out


def test_derive_machine(capsys):
    code, out, _ = run(capsys, "derive", "--n", "24", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["reconstruction_ok"] is True
    assert len(doc["multiplication_sites"]) == 12
    assert doc["scheduled_additions"] == 138
    assert len(doc["special_additions"]) == 2


def test_derive_single_layer(capsys):
    code, out, _ = run(capsys, "derive", "--n", "12", "--layer", "2")
    assert code == 0
    assert "layer 2" in out and "layer 1" not in out


@pytest.mark.parametrize("fmt", ("machine", "text"))
@pytest.mark.parametrize("n", (8, 12, 24))
def test_derive_output_matches_golden(capsys, n, fmt):
    # tests/data/derive_n{n}_{fmt}.txt holds the stdout of the Fraction
    # Gauss-Jordan derivation; every alphabet and residual bit must survive
    golden = (Path(__file__).parent / "data" / f"derive_n{n}_{fmt}.txt").read_text()
    code, out, _ = run(capsys, "derive", "--n", str(n), "--format", fmt)
    assert code == 0
    assert out == golden


def test_second_derive_composes_no_layer(capsys, monkeypatch):
    # the first derive fills the kernel's derivation record; the second
    # reads P_k, T(k), the balancing and the report from it
    from mindht import derivation, kernels

    calls = []
    real = derivation.apply_layer

    def counted(spec, values):
        calls.append(len(spec))
        return real(spec, values)

    monkeypatch.setattr(derivation, "apply_layer", counted)
    monkeypatch.setattr(kernels._kernel(24), "derivation", None)
    first = run(capsys, "derive", "--n", "24", "--format", "machine")
    assert calls  # the record was built through the counted apply_layer
    calls.clear()
    assert run(capsys, "derive", "--n", "24", "--format", "machine") == first
    assert calls == []


def test_derive_bad_layer(capsys):
    code, _, _ = run(capsys, "derive", "--n", "12", "--layer", "9")
    assert code == 3


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "3")
    assert code == 0
    assert out.count("N=") == 4


def test_bench_single_rep_flagged(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "1")
    assert code == 0
    assert "low confidence" in out


def test_bench_prints_one_array_line_per_n(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("array")]
    pattern = (r"array n=( 4| 8|12|24)  backend (c|replay) +median +\d+\.\d\d ns/block"
               r"  \(4096 blocks, 2 reps\)")
    assert [re.fullmatch(pattern, line).group(1).strip() for line in lines] == ["4", "8", "12", "24"]
    for n, line in zip((4, 8, 12, 24), lines):
        assert f"backend {_cgen.backend(n)}" in line
