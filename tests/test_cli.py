import csv
import io

import pytest

from blocksym import cli
from blocksym.cli import (
    compare_bcss_dense,
    main,
    probe_meta_k,
    time_dense_vs_blocked,
    verify_case,
)


def run_main(argv, capsys):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_verify_single_point_passes(capsys):
    status, out, _ = run_main(
        ["--cmd", "verify", "--m", "3", "--n", "4", "--ba", "2", "--seed", "7"], capsys
    )
    assert status == 0
    assert "all checks passed" in out
    assert "bcss(reuse=on) vs naive" in out


def test_verify_default_sweep_passes(capsys):
    status, out, _ = run_main(["--cmd", "verify", "--seed", "3"], capsys)
    assert status == 0
    # 12 default cases, several checks each.
    assert out.count("ok") >= 12


def test_verify_m1_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cmd", "verify", "--m", "1"])
    assert exc.value.code == 2


def test_verify_rejects_oversized_dense(monkeypatch, capsys):
    monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", "10")
    status, _, err = run_main(["--cmd", "verify", "--m", "3", "--n", "4"], capsys)
    assert status == 2
    assert "SYMTENSOR_MAX_DENSE_ELEMS" in err


def test_corrupted_block_detected_and_named():
    results = verify_case(2, 4, 4, 2, 2, seed=11, corrupt_block=(0, 1))
    bad = [r for r in results if not r.ok]
    assert bad
    named = [r for r in bad if "(0, 1)" in r.detail]
    assert named, [r.line() for r in bad]
    # And the failure surfaces as a nonzero exit through the report path.
    assert any("worst block (0, 1)" in r.line() for r in named)


def test_compare_bcss_dense_localizes_worst_block():
    from blocksym import compress, random_symmetric, sttsm_bcss, random_matrix, sttsm_naive

    a = random_symmetric(3, 4, 31)
    x = random_matrix(4, 4, 32)
    out = sttsm_bcss(compress(a, 2), x, 2)
    oracle = sttsm_naive(a, x)
    err, worst = compare_bcss_dense(out, oracle)
    assert err < 1e-12
    out.blocks[(0, 1, 1)][0, 0, 0] += 5.0
    err, worst = compare_bcss_dense(out, oracle)
    assert err > 1e-3
    assert worst == (0, 1, 1)


def test_bench_csv_shape_and_determinism(capsys):
    args = ["--cmd", "bench", "--m", "2", "--n", "4", "--ba", "2", "--seed", "5", "--reps", "3"]
    status, out1, _ = run_main(args, capsys)
    assert status == 0
    status, out2, _ = run_main(args, capsys)
    assert status == 0

    def strip_wall(text):
        rows = list(csv.reader(io.StringIO(text.split("#")[0])))
        head = rows[0]
        wall = head.index("wall_seconds")
        return [r[:wall] + r[wall + 1 :] for r in rows]

    assert strip_wall(out1) == strip_wall(out2)
    rows = list(csv.reader(io.StringIO(out1.split("#")[0])))
    assert rows[0] == ["algorithm", "m", "n", "p", "b_A", "b_C", "seed",
                       "wall_seconds", "flops", "memops"]
    algos = {r[0] for r in rows[1:] if r}
    assert algos == {"naive", "scalar", "dense", "bcss"}
    assert "# speedup dense/bcss" in out1


def test_bench_skips_oversized_dense(monkeypatch, capsys):
    monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", "100")
    status, out, _ = run_main(
        ["--cmd", "bench", "--m", "4", "--n", "4", "--ba", "2", "--seed", "5"], capsys
    )
    assert status == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out.split("#")[0])) if r}
    assert rows["dense"][7] == "skipped"
    assert rows["bcss"][7] != "skipped"
    # Skipped dense rows still carry the formula counts.
    assert int(rows["dense"][8]) > 0


def test_bench_rows_match_cost_model(capsys):
    from blocksym import bcss_costs, dense_costs

    status, out, _ = run_main(
        ["--cmd", "bench", "--m", "3", "--n", "8", "--ba", "2", "--seed", "9"], capsys
    )
    assert status == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out.split("#")[0])) if r}
    dense = dense_costs(3, 8, 8)
    assert int(rows["dense"][8]) == dense.flops
    assert 0.5 <= int(rows["dense"][9]) / dense.memops <= 2.0
    blocked = bcss_costs(3, 8, 8, 2, 2, meta_k=0)
    assert int(rows["bcss"][8]) == blocked.flops
    assert 0.5 <= int(rows["bcss"][9]) / blocked.memops <= 2.0


def test_bench_single_algorithm_at_larger_point(capsys):
    status, out, _ = run_main(
        ["--cmd", "bench", "--m", "5", "--n", "16", "--ba", "8", "--algo", "bcss",
         "--seed", "9"], capsys
    )
    assert status == 0
    rows = [r for r in csv.reader(io.StringIO(out.split("#")[0])) if r]
    assert rows[1][0] == "bcss"
    assert float(rows[1][7]) > 0


def test_bench_degenerate_blocking_equal_flops(capsys):
    status, out, _ = run_main(
        ["--cmd", "bench", "--m", "3", "--n", "4", "--ba", "4", "--bc", "4", "--seed", "5"],
        capsys,
    )
    assert status == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out.split("#")[0])) if r}
    assert rows["dense"][8] == rows["bcss"][8]


def test_model_csv_single_point_ratio(capsys):
    status, out, _ = run_main(
        ["--cmd", "model", "--m", "2", "--n", "512", "--nbar", "16", "--meta-k", "0"],
        capsys,
    )
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    head, body = rows[0], rows[1:]
    ia, iv, i_n = head.index("storage_A"), head.index("variant"), head.index("n")
    at512 = {r[iv]: int(r[ia]) for r in body if r[i_n] == "512"}
    assert abs(at512["Dense"] / at512["BCSS"] - 1.88) < 0.005


def test_model_fixed_block_sweep(capsys):
    status, out, _ = run_main(
        ["--cmd", "model", "--m", "3", "--n", "64", "--ba", "8"], capsys
    )
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    ns = {r[2] for r in rows[1:]}
    assert ns == {"8", "16", "32", "64"}
    # Blocked storage below dense once n exceeds the block dimension.
    head = rows[0]
    ia, iv, i_n = head.index("storage_A"), head.index("variant"), head.index("n")
    for n in ("16", "32", "64"):
        pair = {r[iv]: int(r[ia]) for r in rows[1:] if r[i_n] == n}
        assert pair["BCSS"] < pair["Dense"]


def test_storage_report(capsys):
    status, out, _ = run_main(
        ["--cmd", "storage", "--m", "3", "--n", "16", "--seed", "2"], capsys
    )
    assert status == 0
    assert "k =" in out
    assert "argmin b" in out


def test_storage_builds_the_dense_tensor_once(monkeypatch, capsys):
    calls = []
    real = cli.random_symmetric

    def counted(m, n, seed):
        calls.append((m, n, seed))
        return real(m, n, seed)

    monkeypatch.setattr(cli, "random_symmetric", counted)
    status, out, _ = run_main(["--cmd", "storage", "--m", "3", "--n", "12", "--seed", "2"], capsys)
    assert status == 0
    assert out.count("measured=") == len(cli.cost_model.divisors(12))
    # The meta probe builds its own small tensor; the report's is built once.
    assert calls.count((3, 12, 2)) == 1


def test_storage_csv_m5_interior_minimum(capsys):
    status, out, _ = run_main(
        ["--cmd", "storage", "--m", "5", "--n", "64", "--csv"], capsys
    )
    assert status == 0
    body, comment = out.split("#")
    rows = list(csv.reader(io.StringIO(body)))
    totals = {int(r[0]): float(r[3]) for r in rows[1:] if r}
    best = int(comment.split("=")[1])
    assert best not in (1, 64)
    assert totals[best] < 64**5
    assert totals[1] > 64**5


def test_probe_meta_k_reports_measured_cost():
    k, nbytes, entries = probe_meta_k(4)
    assert k >= 1.0
    assert nbytes >= entries  # at least a byte per record, in practice far more


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "model.csv"
    status, out, _ = run_main(
        ["--cmd", "model", "--m", "2", "--n", "32", "--ba", "8", "--out", str(path)],
        capsys,
    )
    assert status == 0
    assert out == ""
    assert path.read_text().startswith("variant,")


@pytest.mark.parametrize("cap", [None, "10"])
@pytest.mark.parametrize("blocks", [["--ba", "3"], ["--ba", "2", "--bc", "3"]])
def test_bench_nondividing_block_is_parameter_error(monkeypatch, capsys, cap, blocks):
    if cap is None:
        monkeypatch.delenv("SYMTENSOR_MAX_DENSE_ELEMS", raising=False)
    else:
        monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", cap)
    status, _, err = run_main(["--cmd", "bench", "--m", "3", "--n", "4", *blocks], capsys)
    assert status == 2
    assert "parameter error:" in err


def test_verify_nondividing_block_is_parameter_error(capsys):
    status, _, err = run_main(["--cmd", "verify", "--m", "3", "--n", "4", "--ba", "3"], capsys)
    assert status == 2
    assert "parameter error:" in err


@pytest.mark.parametrize("cap", [None, "10"])
@pytest.mark.parametrize(
    "blocks", [["--ba", "0"], ["--ba", "-2"], ["--bc", "0"], ["--ba", "2", "--bc", "0"]]
)
def test_bench_block_dim_below_one_is_parameter_error(monkeypatch, capsys, cap, blocks):
    if cap is None:
        monkeypatch.delenv("SYMTENSOR_MAX_DENSE_ELEMS", raising=False)
    else:
        monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", cap)
    status, out, err = run_main(
        ["--cmd", "bench", "--m", "2", "--n", "4", "--algo", "bcss", *blocks], capsys
    )
    assert status == 2
    assert out == ""
    assert "parameter error: --b" in err and "at least 1" in err


@pytest.mark.parametrize("blocks", [["--ba", "0"], ["--bc", "0"], ["--ba", "2", "--bc", "-1"]])
@pytest.mark.parametrize("point", [["--m", "2", "--n", "4"], []])
def test_verify_block_dim_below_one_is_parameter_error(capsys, blocks, point):
    status, out, err = run_main(["--cmd", "verify", *point, *blocks], capsys)
    assert status == 2
    assert out == ""
    assert "at least 1" in err


# Each case would fail, not hang, if the check were lost: a block dimension
# or grid extent below one makes the unchecked fixed-block sweep loop forever.
@pytest.mark.parametrize(
    "flags", [["--nbar", "4", "--ba", "0"], ["--bc", "0"], ["--nbar", "0"]]
)
def test_model_block_dim_below_one_is_parameter_error(capsys, flags):
    status, out, err = run_main(["--cmd", "model", "--m", "3", "--n", "16", *flags], capsys)
    assert status == 2
    assert out == ""
    assert "at least 1" in err


def test_given_block_dims_are_used(capsys):
    status, out, _ = run_main(
        ["--cmd", "bench", "--m", "2", "--n", "4", "--ba", "1", "--bc", "4", "--algo", "bcss"],
        capsys,
    )
    assert status == 0
    row = next(r for r in csv.reader(io.StringIO(out)) if r and r[0] == "bcss")
    assert (row[4], row[5]) == ("1", "4")


# At zero these options used to read as unset and run at their defaults.
@pytest.mark.parametrize(
    "cmd", [["verify"], ["bench", "--algo", "bcss"], ["model"], ["storage"]]
)
@pytest.mark.parametrize(
    "dims", [["--n", "0"], ["--p", "0"], ["--n", "0", "--p", "0"], ["--n", "4", "--p", "-1"]]
)
def test_dimension_below_one_is_parameter_error(capsys, cmd, dims):
    status, out, err = run_main(["--cmd", cmd[0], "--m", "2", *cmd[1:], *dims], capsys)
    assert status == 2
    assert out == ""
    assert "parameter error: --" in err and "at least 1" in err


def test_time_dense_vs_blocked_returns_both_medians():
    dense_t, bcss_t = time_dense_vs_blocked(3, 4, 2, 5, reps=1)
    assert dense_t > 0 and bcss_t > 0


@pytest.mark.parametrize("times,status", [((2.0, 1.0), 0), ((1.0, 1.0), 0), ((1.0, 2.0), 1)])
def test_verify_strict_gates_on_shared_timing(capsys, monkeypatch, times, status):
    # --strict times dense against blocked through the function criterion 7 uses.
    seen = []

    def fake(m, n, b, seed, reps=3):
        seen.append((m, n, b, seed, reps))
        return times

    monkeypatch.setattr(cli, "time_dense_vs_blocked", fake)
    got, out, err = run_main(
        ["--cmd", "verify", "--m", "2", "--n", "4", "--ba", "2", "--strict"], capsys
    )
    assert got == status
    assert seen == [(5, 32, 8, 1234, 3)]
    assert "timing: dense" in out
    assert ("strict timing check failed" in err) == (status == 1)


# ------------------------------------------------------------ malformed input


@pytest.mark.parametrize("cap", ["abc", "-1", "0", "1.5"])
@pytest.mark.parametrize("cmd", [["verify"], ["bench", "--algo", "bcss"], ["storage"]])
def test_malformed_dense_cap_is_parameter_error(monkeypatch, capsys, cap, cmd):
    # "abc" used to end in a ValueError traceback; "-1" silently skipped
    # every dense baseline.
    monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", cap)
    status, out, err = run_main(["--cmd", cmd[0], "--m", "2", "--n", "4", *cmd[1:]], capsys)
    assert status == 2
    assert out == ""
    assert "parameter error: SYMTENSOR_MAX_DENSE_ELEMS" in err


@pytest.mark.parametrize("meta_k", ["-5", "-0.5", "nan", "inf"])
def test_meta_k_must_be_finite_and_not_negative(capsys, meta_k):
    # -5 used to print a negative storage_A.
    status, out, err = run_main(["--cmd", "model", "--m", "3", "--meta-k", meta_k], capsys)
    assert status == 2
    assert out == ""
    assert "parameter error: --meta-k" in err


@pytest.mark.parametrize("reps", ["1", "2", "0", "-3"])
def test_reps_below_three_is_parameter_error(capsys, reps):
    # Values below 3 used to be raised to 3 without a word.
    status, out, err = run_main(
        ["--cmd", "bench", "--m", "2", "--n", "4", "--algo", "bcss", "--reps", reps], capsys
    )
    assert status == 2
    assert out == ""
    assert "parameter error: --reps" in err
