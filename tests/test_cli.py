import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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
    status, out, err = run_main(["--cmd", "verify", "--m", "1"], capsys)
    assert status == 2
    assert out == ""
    assert "parameter error: --m must be at least 2" in err


def test_verify_rejects_oversized_dense(monkeypatch, capsys):
    monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", "10")
    status, _, err = run_main(["--cmd", "verify", "--m", "3", "--n", "4"], capsys)
    assert status == 2
    assert "SYMTENSOR_MAX_DENSE_ELEMS" in err


def test_verify_oversized_oracle_is_parameter_error(monkeypatch, capsys):
    # n**m = 16 fits under the cap, but the oracle's p**m = 1600 does not.
    monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", "100")
    status, out, err = run_main(
        ["--cmd", "verify", "--m", "2", "--n", "4", "--p", "40", "--ba", "2"], capsys
    )
    assert status == 2
    assert out == ""
    assert "parameter error:" in err and "SYMTENSOR_MAX_DENSE_ELEMS=100" in err


def test_corrupted_block_detected_and_named(monkeypatch):
    real = cli.sttsm_bcss

    def perturbed(*args, **kwargs):
        c = real(*args, **kwargs)
        c.blocks[(0, 1)] = c.blocks[(0, 1)] + 1.0
        return c

    monkeypatch.setattr(cli, "sttsm_bcss", perturbed)
    results = verify_case(2, 4, 4, 2, 2, seed=11)
    bad = [r for r in results if not r.ok]
    assert bad
    named = [r for r in bad if "(0, 1)" in r.detail]
    assert named, [r.line() for r in bad]
    # And the failure surfaces as a nonzero exit through the report path.
    assert any("worst block (0, 1)" in r.line() for r in named)


def test_verify_failure_exits_one_and_counts_failed_checks(monkeypatch, capsys):
    real = cli.sttsm_bcss

    def perturbed(*args, **kwargs):
        c = real(*args, **kwargs)
        c.blocks[(0, 1)] = c.blocks[(0, 1)] + 1.0
        return c

    monkeypatch.setattr(cli, "sttsm_bcss", perturbed)
    status, out, err = run_main(["--cmd", "verify", "--m", "2", "--n", "4", "--ba", "2"], capsys)
    assert status == 1
    assert out.count(" FAIL worst block (0, 1)") == 2  # reuse on and off
    assert "all checks passed" not in out
    assert err == "2 checks failed\n"


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
    assert algos == {"dense", "bcss"}
    assert "# speedup dense/bcss" in out1
    assert "# bcss workers: 1\n" in out1  # blocks of 4 elements stay on one thread
    assert "# dense workers: 1\n" in out1  # and the dense chain is one chunk


@pytest.mark.parametrize(
    "algo,cap,ran,drawn",
    [(None, None, ["dense", "bcss"], 1), ("all", None, ["naive", "scalar", "dense", "bcss"], 1),
     ("bcss", None, ["bcss"], 0), ("naive", None, ["naive"], 1), (None, "10", ["dense", "bcss"], 0)],
)
def test_bench_runs_only_what_it_reports(monkeypatch, capsys, algo, cap, ran, drawn):
    # The default used to time the elementwise oracle too, and the bcss
    # operand was the compressed dense tensor only when the dense one fit.
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append((name, args))
            return real(*args)
        return call

    for name in ("random_symmetric", "random_bcss"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    if cap is None:
        monkeypatch.delenv("SYMTENSOR_MAX_DENSE_ELEMS", raising=False)
    else:
        monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", cap)
    args = ["--cmd", "bench", "--m", "3", "--n", "4", "--ba", "2", "--seed", "5"]
    status, out, _ = run_main(args + (["--algo", algo] if algo else []), capsys)
    assert status == 0
    rows = [r for r in csv.reader(io.StringIO(out.split("#")[0])) if r][1:]
    assert [r[0] for r in rows] == ran
    assert [r[7] == "skipped" for r in rows] == [cap is not None and a != "bcss" for a in ran]
    assert calls.count(("random_symmetric", (3, 4, 5))) == drawn
    assert calls.count(("random_bcss", (3, 4, 2, 5))) == ("bcss" in ran)
    assert len(calls) == drawn + ("bcss" in ran)


def test_bench_notes_bcss_workers(monkeypatch, capsys):
    # 2^15-element slabs at m=5, n=32, b=8, one BLAS thread: split across both CPUs.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    args = ["--cmd", "bench", "--m", "5", "--n", "32", "--ba", "8", "--algo", "bcss",
            "--reps", "3"]
    status, out, _ = run_main(args, capsys)
    assert status == 0
    assert out.endswith("# bcss workers: 2\n")


def test_bench_notes_dense_workers(monkeypatch, capsys):
    # 81 chunks per mode product at m=4, n=48: split across both CPUs,
    # unless BLAS runs its own threads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    args = ["--cmd", "bench", "--m", "4", "--n", "48", "--ba", "8", "--algo", "dense",
            "--reps", "3"]
    status, out, _ = run_main(args, capsys)
    assert status == 0
    assert out.endswith("# dense workers: 2\n")
    assert "bcss workers" not in out
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    status, out, _ = run_main(args, capsys)
    assert out.endswith("# dense workers: 1\n")


def test_bench_skips_oversized_dense(monkeypatch, capsys):
    args = ["--cmd", "bench", "--m", "4", "--n", "4", "--ba", "2", "--seed", "5"]
    monkeypatch.delenv("SYMTENSOR_MAX_DENSE_ELEMS", raising=False)
    status, out, _ = run_main(args + ["--algo", "dense"], capsys)
    assert status == 0
    ran = {r[0]: r for r in csv.reader(io.StringIO(out.split("#")[0])) if r}
    monkeypatch.setenv("SYMTENSOR_MAX_DENSE_ELEMS", "100")
    status, out, _ = run_main(args, capsys)
    assert status == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out.split("#")[0])) if r}
    assert rows["dense"][7] == "skipped"
    assert rows["bcss"][7] != "skipped"
    # A skipped dense row carries the counts the chain makes when it runs;
    # its memops used to be the paper model's 3072.
    assert rows["dense"][8:] == ran["dense"][8:] == ["8192", "4096"]


def test_bench_rows_match_cost_model(capsys):
    from blocksym import bcss_costs, bcss_impl_memops, dense_costs

    status, out, _ = run_main(
        ["--cmd", "bench", "--m", "3", "--n", "8", "--ba", "2", "--seed", "9"], capsys
    )
    assert status == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out.split("#")[0])) if r}
    dense = dense_costs(3, 8, 8)
    assert int(rows["dense"][8]) == dense.flops
    assert int(rows["dense"][9]) == bcss_impl_memops(3, 8, 8, 8, 8)
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


def test_model_notes_the_points_it_skips(capsys):
    # --bc 16 does not divide p = n = 8, the sweep's first point.
    status, out, _ = run_main(
        ["--cmd", "model", "--m", "3", "--n", "64", "--ba", "8", "--bc", "16"], capsys
    )
    assert status == 0
    body, note = out.split("#", 1)
    assert {r[2] for r in csv.reader(io.StringIO(body)) if r} == {"n", "16", "32", "64"}
    assert note == " skipped n = 8, where b_C does not divide p\n"


@pytest.mark.parametrize(
    "flags,why",
    [(["--n", "32", "--ba", "8", "--bc", "3"], "skipped n = 8, 16, 32, where b_C does not"),
     (["--n", "4", "--ba", "8"], "the sweep starts above --n 4")],
)
def test_model_without_points_is_parameter_error(capsys, flags, why):
    # Both used to print the CSV header alone and exit 0.
    status, out, err = run_main(["--cmd", "model", "--m", "3", *flags], capsys)
    assert status == 2
    assert out == ""
    assert f"parameter error: no model point left: {why}" in err


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
    rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
    assert len(rows) == len(cli.cost_model.divisors(12))
    assert all(r["measured_payload"] == r["payload"] for r in rows)
    assert "measured_payload" not in "".join(line for line in out.splitlines() if line[0] == "#")
    # The meta probe builds its own small tensor; the report's is built once.
    assert calls.count((3, 12, 2)) == 1


def test_storage_csv_m5_interior_minimum(capsys):
    status, out, _ = run_main(["--cmd", "storage", "--m", "5", "--n", "64"], capsys)
    assert status == 0
    body, notes = out.split("#", 1)
    rows = list(csv.reader(io.StringIO(body)))
    totals = {int(r[0]): float(r[3]) for r in rows[1:] if r}
    assert "k = 1.125 floats/block" in notes
    assert ("# measured_payload is empty as 64**5 dense elements exceed "
            "SYMTENSOR_MAX_DENSE_ELEMS=10000000\n# argmin b = ") in notes
    best = int(notes.split("# argmin b = ")[1])
    assert best not in (1, 64)
    assert totals[best] < 64**5
    assert totals[1] > 64**5


def test_storage_names_the_grid_bound_that_empties_a_cell(capsys):
    # 64**3 dense elements fit, but b=1 has 64**3 > 10**5 block indices.
    status, out, _ = run_main(["--cmd", "storage", "--m", "3", "--n", "64"], capsys)
    assert status == 0
    rows = list(csv.DictReader(line for line in out.splitlines() if line[0] != "#"))
    assert [r["b"] for r in rows if not r["measured_payload"]] == ["1"]
    notes = [line for line in out.splitlines() if line[0] == "#"]
    assert notes[1:] == ["# measured_payload is empty where (64//b)**3 > 10**5 block indices",
                         "# argmin b = 4"]


def test_bench_grid_past_the_table_bound_is_parameter_error(capsys):
    # 2**30 table entries used to be built as Python lists, tens of GB.
    status, out, err = run_main(
        ["--cmd", "bench", "--m", "30", "--n", "2", "--ba", "1", "--algo", "bcss"], capsys
    )
    assert status == 2
    assert out == ""
    assert "parameter error: 2**30 table entries exceed 33554432" in err


def test_storage_oversized_meta_probe_is_parameter_error(capsys):
    # The probe's 4**40 dense elements used to end in NumPy's "array is too big".
    status, out, err = run_main(["--cmd", "storage", "--m", "40", "--n", "2"], capsys)
    assert status == 2
    assert out == ""
    assert "parameter error: meta probe" in err and "SYMTENSOR_MAX_DENSE_ELEMS" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("cmd", ["model", "bench", "storage", "verify"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_that_cannot_be_written_is_parameter_error(monkeypatch, tmp_path, capsys, cmd, where):
    # Used to end in a traceback and exit 1, the code of a failed check,
    # and for bench only after every algorithm had run.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("random_symmetric", "random_bcss", "sttsm_bcss"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.cost_model, "bcss_costs", no_work)
    out = str(tmp_path / "no" / "such.csv") if where == "missing directory" else str(tmp_path)
    status, stdout, err = run_main(
        ["--cmd", cmd, "--m", "3", "--n", "16", "--ba", "8", "--out", out], capsys
    )
    assert status == 2
    assert stdout == ""
    assert err.splitlines() == [f"parameter error: --out {out!r} is not a file that can be written"]


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


@pytest.mark.parametrize("algo", ["dense", "scalar", "naive"])
@pytest.mark.parametrize("blocks", [["--ba", "3"], ["--ba", "2", "--bc", "3"]])
def test_bench_nondividing_block_fails_before_any_algorithm(capsys, algo, blocks):
    # The dense algorithms take no block dimension, but their rows report both.
    status, out, err = run_main(
        ["--cmd", "bench", "--m", "3", "--n", "4", "--algo", algo, *blocks], capsys
    )
    assert status == 2
    assert out == ""
    assert "parameter error: block dimension 3 does not divide 4" in err


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


@pytest.mark.parametrize(
    "cmd", [["verify"], ["verify", "--m", "2"], ["bench", "--algo", "bcss"], ["bench"],
            ["model"], ["storage"]]
)
def test_negative_seed_is_parameter_error(capsys, cmd):
    # verify, bench and storage used to end in NumPy's "expected
    # non-negative integer" traceback with exit 1; model ignored the seed.
    status, out, err = run_main(["--cmd", *cmd, "--seed", "-1"], capsys)
    assert status == 2
    assert out == ""
    assert "parameter error: --seed must be at least 0, got -1" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("extra,status", [([], 0), (["--reps", "2"], 2)])
def test_module_entry_point(extra, status):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "blocksym", "--cmd", "verify", "--m", "2", "--n", "4",
         "--ba", "2", *extra],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    if status == 0:
        assert "all checks passed" in proc.stdout
    else:
        assert "--reps must be at least 3" in proc.stderr


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("blocksym --cmd")]


def test_readme_lists_every_command():
    cmds = {shlex.split(line)[2] for line in _readme_commands()}
    assert cmds == {"verify", "bench", "model", "storage"}


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    options = {opt for action in cli.build_parser()._actions if action.dest != "help"
               for opt in action.option_strings}
    # "--m" must not count as found inside "--meta-k".
    missing = {opt for opt in options if not re.search(rf"{opt}(?![\w-])", section)}
    assert not missing, f"options missing from README's Command line section: {missing}"


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(tmp_path, line):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "blocksym", *shlex.split(line)[1:]],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
