"""Command-line interface: formats, exit codes, reproducibility."""

import gc
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mindht import SUPPORTED_SIZES, dht_matrix, naive_dht
from mindht import cli
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


# tests/data/commands: one signal per length (signal_nN, in .txt and .csv) and
# what each file command writes for it, byte for byte; .github/workflows/tests.yml
# runs the same commands through the console script
FILE_COMMANDS = (
    [(f"transform_n{n}", ["transform", "--n", str(n)], n) for n in SUPPORTED_SIZES]
    + [("naive_n10", ["transform", "--naive"], 10)]
    + [(f"{op}_n{n}", [op], n) for op in ("dft", "inverse") for n in (4, 8, 10, 12, 24)]
)


@pytest.mark.parametrize("ext", ("txt", "csv"))
@pytest.mark.parametrize("name, argv, n", FILE_COMMANDS, ids=[c[0] for c in FILE_COMMANDS])
def test_file_command_output_matches_golden(tmp_path, capsys, name, argv, n, ext):
    data = Path(__file__).parent / "data" / "commands"
    out = tmp_path / f"out.{ext}"
    assert run(capsys, *argv, "--in", str(data / f"signal_n{n}.{ext}"), "--out", str(out)) == (
        0, "", "")
    assert out.read_bytes() == (data / f"{name}.{ext}").read_bytes()


def test_dft_matches_oracle(tmp_path, capsys):
    from mindht import naive_dft

    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("1\n2\n3\n4\n")
    assert run(capsys, "dft", "--in", str(src), "--out", str(dst))[0] == 0
    rows = [line.split() for line in dst.read_text().splitlines()]
    got = np.array([complex(float(re), float(im)) for re, im in rows])
    assert got == pytest.approx(naive_dft([1, 2, 3, 4]), abs=1e-12)


# --- verify / count / derive ---


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


def _golden(name):
    return (Path(__file__).parent / "data" / name).read_text()


@pytest.mark.parametrize("fmt", ("machine", "text"))
@pytest.mark.parametrize("n", (8, 12, 24))
def test_derive_output_matches_golden(capsys, monkeypatch, n, fmt):
    # tests/data/derive_n{n}_{fmt}.txt holds the stdout of the Fraction
    # Gauss-Jordan derivation; every alphabet and residual bit must survive.
    # The first call on a fresh kernel record makes the text, the later ones
    # print the text kept in the record
    from mindht import kernels

    monkeypatch.setattr(kernels._kernel(n), "derived", {})
    golden = _golden(f"derive_n{n}_{fmt}.txt")
    for _ in range(3):
        assert run(capsys, "derive", "--n", str(n), "--format", fmt) == (0, golden, "")


def test_second_derive_composes_no_layer(capsys, monkeypatch):
    # the first derive fills the kernel's record; the second reads P_k,
    # T(k), the balancing, the report and its own text from it
    from mindht import derivation, kernels

    calls = []
    real = derivation.apply_layer

    def counted(spec, values):
        calls.append(len(spec))
        return real(spec, values)

    docs = []
    real_doc = cli._derive_doc

    def counted_doc(n, orders):
        docs.append(n)
        return real_doc(n, orders)

    monkeypatch.setattr(derivation, "apply_layer", counted)
    monkeypatch.setattr(cli, "_derive_doc", counted_doc)
    monkeypatch.setattr(kernels._kernel(24), "derived", {})
    first = run(capsys, "derive", "--n", "24", "--format", "machine")
    assert calls  # the record was built through the counted apply_layer
    assert docs == [24]
    calls.clear()
    docs.clear()
    assert run(capsys, "derive", "--n", "24", "--format", "machine") == first
    assert calls == []
    assert docs == []  # the record's text is printed, no document is built


def test_interleaved_derive_layer_choices_keep_their_own_text(capsys, monkeypatch):
    # one key never serves another: each layer choice and format is its own text
    from mindht import kernels

    monkeypatch.setattr(kernels._kernel(24), "derived", {})
    doc = cli._derive_doc(24, [1])
    layer_one = {"machine": json.dumps(doc, sort_keys=True) + "\n",
                 "text": cli._derive_text(doc) + "\n"}
    for _ in range(3):
        for fmt in ("machine", "text"):
            full = run(capsys, "derive", "--n", "24", "--format", fmt)
            assert full == (0, _golden(f"derive_n24_{fmt}.txt"), "")
            one = run(capsys, "derive", "--n", "24", "--layer", "1", "--format", fmt)
            assert one == (0, layer_one[fmt], "")
    assert layer_one["text"].count("pre-addition matrix") == 1


def test_racing_derive_calls_make_each_text_once(capsys, monkeypatch):
    # threads printing derive together on fresh kernel records make each
    # text once, under the record's lock
    from mindht import kernels

    made = []
    real_doc = cli._derive_doc

    def slow_doc(n, orders):
        made.append(n)
        time.sleep(0.005)  # widens the window between the check and the fill
        return real_doc(n, orders)

    for n in (8, 12, 24):
        monkeypatch.setattr(kernels._kernel(n), "derived", {})
    monkeypatch.setattr(cli, "_derive_doc", slow_doc)
    argvs = [["derive", "--n", str(n), "--format", fmt]
             for n in (8, 12, 24) for fmt in ("machine", "text")]
    codes = [None] * 8
    start = threading.Barrier(8)

    def work(i):
        start.wait(timeout=60)
        codes[i] = [main(argv) for argv in argvs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert codes == [[0] * len(argvs)] * 8
    assert sorted(made) == [8, 8, 12, 12, 24, 24]
    capsys.readouterr()
    for argv in argvs:
        assert run(capsys, *argv) == (0, _golden(f"derive_n{argv[2]}_{argv[4]}.txt"), "")
    assert len(made) == 6


def _dht8_flow_with_one_op_flipped(v):
    """dht8_flow with output 1 written c - m5 instead of c + m5."""
    from mindht.kernels import SQRT2
    from mindht.layers import LAYER_SPECS, cascade

    s, t = cascade(LAYER_SPECS[8], v)[1:]
    m5 = SQRT2 * s[5]
    m7 = SQRT2 * s[7]
    p = s[0] + s[2]
    q = s[0] - s[2]
    c = s[1] + s[3]
    d = s[1] - s[3]
    return [p + t[4], c - m5, q + t[5], d + m7, p - t[4], c - m5, q - t[5], d - m7]


def test_derive_text_follows_a_replaced_flow(capsys, monkeypatch):
    # a replaced flow gets a new kernel record, so new text and a new exit code;
    # restoring the flow brings the golden text back
    from mindht import kernels

    real = kernels._FLOWS[8]
    golden = {fmt: _golden(f"derive_n8_{fmt}.txt") for fmt in ("machine", "text")}
    for fmt in golden:
        assert run(capsys, "derive", "--n", "8", "--format", fmt) == (0, golden[fmt], "")
    monkeypatch.setitem(kernels._FLOWS, 8, _dht8_flow_with_one_op_flipped)
    for fmt in golden:
        for _ in range(2):
            code, out, _ = run(capsys, "derive", "--n", "8", "--format", fmt)
            assert code == 1
            assert out != golden[fmt]
    assert "reconstruction FAILED" in out
    monkeypatch.setitem(kernels._FLOWS, 8, real)
    for fmt in golden:
        assert run(capsys, "derive", "--n", "8", "--format", fmt) == (0, golden[fmt], "")


def test_derive_bad_layer(capsys, monkeypatch):
    # the order is checked by layers.check_order before anything is derived
    from mindht import cli

    def refuse(*_):
        raise AssertionError("a usage error must derive nothing")

    monkeypatch.setattr(cli, "verify_decomposition", refuse)
    for layer in ("9", "-1"):
        code, out, err = run(capsys, "derive", "--n", "12", "--layer", layer)
        assert code == 3
        assert out == ""
        assert f"layer order {layer} invalid for N=12; valid orders are 0..3" in err


def test_derive_of_an_underivable_listing_exits_1(capsys, monkeypatch):
    # a listing the derivation refuses is a failed audit, not a crash:
    # derive prints the DerivationError to stderr, nothing to stdout, and
    # exits 1; the restored listing derives the golden text again
    from mindht.layers import LAYER_SPECS

    listing = LAYER_SPECS[24]
    swapped = [list(layer) for layer in listing]
    swapped[0][3] = ("sub", 13, 1)  # operands swapped: no valid balance split
    repeated = [list(layer) for layer in listing]
    repeated[0][3] = repeated[0][2]  # row 2 in place of row 3: layer 1 is singular
    for spec, msg in (
        (swapped, "error: no valid balance split for N=24: "),
        (repeated, "error: N=24 layer 1 is not passes and butterflies: "
                   "rows 2 and 3 read the same slot\n"),
    ):
        monkeypatch.setitem(LAYER_SPECS, 24, spec)
        for fmt in ("text", "machine"):
            code, out, err = run(capsys, "derive", "--n", "24", "--format", fmt)
            assert (code, out) == (1, "")
            assert err.startswith(msg) and err.count("\n") == 1
    monkeypatch.setitem(LAYER_SPECS, 24, listing)
    for fmt in ("text", "machine"):
        golden = _golden(f"derive_n24_{fmt}.txt")
        assert run(capsys, "derive", "--n", "24", "--format", fmt) == (0, golden, "")


def test_bench_is_not_a_subcommand(capsys):
    # wall time is perfbench's (--trace 1); the CLI has no timing harness
    code, out, err = run(capsys, "bench")
    assert code == 3
    assert out == "" and "invalid choice: 'bench'" in err
