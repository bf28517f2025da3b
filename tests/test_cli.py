import ast
import contextlib
import functools
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sectorkit
from sectorkit import circle_theta, cover_document, cover_quant, errors, linalg
from sectorkit.cli import _round_floats, main
from sectorkit.cover_quant import symmetric_cover


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


# Linux starts a child's ru_maxrss at its parent's high-water mark, so a
# child of this test process would report at least the test process's own
# peak. A small launcher runs the command and reports its child's usage.
RSS_LAUNCHER = (
    "import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(child.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def child_peak_rss(argv):
    """Exit code and peak RSS in bytes of `python -m sectorkit argv`, run by RSS_LAUNCHER."""
    command = [sys.executable, "-m", "sectorkit", *argv, "--out", os.devnull]
    done = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, *command],
        env=process_env(), capture_output=True, text=True, check=True,
    )
    code, kib = map(int, done.stdout.split())
    return code, kib * 1024  # ru_maxrss is in KiB on Linux


class TestTableaux:
    def test_n3_values(self, tmp_path):
        code, payload = run_to_file(tmp_path, "t.json", ["tableaux", "--N", "3"])
        assert code == 0
        data = json.loads(payload)
        assert data["schema"] == "sector-kit/1"
        assert [p["hook_dim"] for p in data["partitions"]] == [1, 2, 1]
        assert data["identity_ok"]

    def test_n5_sum_of_squares(self, tmp_path):
        code, payload = run_to_file(tmp_path, "t.json", ["tableaux", "--N", "5"])
        data = json.loads(payload)
        assert code == 0
        assert data["sum_of_squares"] == math.factorial(5) == data["factorial_N"]

    def test_n1_single_entry(self, tmp_path):
        code, payload = run_to_file(tmp_path, "t.json", ["tableaux", "--N", "1"])
        data = json.loads(payload)
        assert code == 0
        assert data["partitions"] == [{"parts": [1], "hook_dim": 1, "tableau_count": 1}]

    def test_lambda_filter(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, "t.json", ["tableaux", "--N", "4", "--lambda", "2,2"]
        )
        data = json.loads(payload)
        assert code == 0
        assert len(data["partitions"]) == 1
        assert data["partitions"][0]["hook_dim"] == 2

    def test_out_of_range_is_usage_error(self, capsys):
        assert main(["tableaux", "--N", "9"]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["kind"] == "usage"

    def test_csv_format(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, "t.csv", ["tableaux", "--N", "3", "--format", "csv"]
        )
        lines = payload.decode().splitlines()
        assert code == 0
        assert lines[0] == "partition,hook_dim,tableau_count"
        assert lines[1].startswith("3,")


class TestSectors:
    def test_m2_n3_table(self, tmp_path):
        code, payload = run_to_file(tmp_path, "s.json", ["sectors", "--m", "2", "--N", "3"])
        data = json.loads(payload)
        assert code == 0
        mults = {tuple(s["partition"]): s["multiplicity"] for s in data["sectors"]}
        assert mults == {(3,): 4, (2, 1): 2, (1, 1, 1): 0}
        assert data["commutant_dim"] == 20

    def test_resource_cap_exit(self, capsys):
        assert main(["sectors", "--m", "3", "--N", "12"]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "resource"

    @pytest.mark.parametrize("m,n", [(2, 30), (3, 12), (1, 100000)])
    def test_group_order_cap_exits_before_allocating(self, capsys, m, n):
        # too large a weight block, too many gathers or too many records: refused by the estimate
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["sectors", "--m", str(m), "--N", str(n)])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert elapsed < 1.0
        assert peak < 1 << 20
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "resource"
        assert f"sector decomposition of (C^{m})^(x{n})" in error["error"]

    @pytest.mark.parametrize("m,n", [(1, 11), (2, 10)])
    def test_sizes_once_refused_by_the_group_cap_run(self, tmp_path, m, n):
        code, payload = run_to_file(tmp_path, "s.json", ["sectors", "--m", str(m), "--N", str(n)])
        assert code == 0
        data = json.loads(payload)
        assert sum(s["rank"] for s in data["sectors"]) == m**n
        assert data["commutant_dim"] == math.comb(m * m + n - 1, n)

    def test_negative_m_is_usage_error(self, capsys):
        assert main(["sectors", "--m", "-1", "--N", "3"]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "usage"

    def test_lambda_filter(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, "s.json", ["sectors", "--m", "2", "--N", "2", "--lambda", "1,1"]
        )
        data = json.loads(payload)
        assert code == 0
        assert len(data["sectors"]) == 1
        assert data["sectors"][0]["rank"] == 1

    @pytest.mark.parametrize("m,n", [(2, 17), (3, 40)])
    def test_lambda_of_another_n_exits_2_before_decomposing(self, capsys, m, n):
        # once decided after the decomposition: (2, 17) computed for seconds,
        # and (3, 40) was refused by the work cap with exit 3
        start = time.perf_counter()
        code = main(["sectors", "--m", str(m), "--N", str(n), "--lambda", "5"])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert elapsed < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "schema": "sector-kit/1", "error": f"(5,) is not a partition of {n}", "kind": "usage",
        }

    @pytest.mark.parametrize("m,n", [(7, 7), (4, 8), (3, 9), (2, 13)])
    def test_new_edges_certify_against_hook_content(self, tmp_path, m, n):
        code, payload = run_to_file(tmp_path, "s.json", ["sectors", "--m", str(m), "--N", str(n)])
        assert code == 0
        data = json.loads(payload)
        for s in data["sectors"]:
            assert s["multiplicity"] == oracles.weyl_multiplicity(tuple(s["partition"]), m)
            assert s["idempotence_residual"] == 0
        assert data["residuals"] == {"minimal_polynomial_defect": 0}

    @pytest.mark.parametrize("m,n,refused", [(2, 17, (2, 18)), (8, 8, (8, 9))], ids=["m2-edge", "N8-edge"])
    def test_estimate_bounds_the_peak_rss(self, monkeypatch, m, n, refused):
        # peak RSS above the floor of an exit-3 sectors run, against the
        # byte estimate _check_sector_cost refuses on; (2, 17) and (8, 8),
        # like every m >= 8 at N = 8, are the two largest it admits
        from sectorkit import schur_weyl

        with pytest.raises(errors.ResourceLimitError):
            schur_weyl._check_sector_cost(*refused)
        estimates = []
        monkeypatch.setattr(schur_weyl, "check_bytes", lambda nbytes, _: estimates.append(nbytes))
        schur_weyl._check_sector_cost(m, n)
        floor_code, floor = child_peak_rss(["sectors", "--m", "3", "--N", "12"])
        code, peak = child_peak_rss(["sectors", "--m", str(m), "--N", str(n)])
        assert (floor_code, code) == (3, 0)
        assert peak - floor < estimates[-1], (peak - floor, estimates[-1])


def row_minus_col(shape):
    """partitions.contents with its sign flipped: the contents of the conjugate."""
    return [i - j for i, row in enumerate(shape.parts) for j in range(row)]


class TestSectorFaults:
    """Faults seeded in the sector certificate's seams exit 4, never 0."""

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 4)])
    def test_contents_as_row_minus_col_exit_4(self, m, n, monkeypatch):
        # every sector's class-sum values become its conjugate's
        from sectorkit import schur_weyl

        monkeypatch.setattr(schur_weyl, "contents", row_minus_col)
        code, error = run_main(["sectors", "--m", str(m), "--N", str(n)])
        assert code == 4
        assert error["kind"] == "consistency"

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (5, 4)])
    def test_hook_content_off_by_one_exits_4(self, m, n, monkeypatch):
        # the anchor moved while the weight blocks certify the true ranks
        from sectorkit import schur_weyl

        exact = schur_weyl.hook_content
        monkeypatch.setattr(schur_weyl, "hook_content", lambda shape, m: exact(shape, m) + 1)
        code, error = run_main(["sectors", "--m", str(m), "--N", str(n)])
        assert code == 4
        assert error["kind"] == "consistency"
        assert "hook-content" in error["error"]

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 4)])
    def test_one_corrupted_transposition_map_exits_4(self, m, n, monkeypatch):
        # the first block of more than one word: word 0 of the map of the
        # slots (1 2) points where word 1 does
        from sectorkit import schur_weyl

        build, corrupted = schur_weyl._transposition_maps, []

        def corrupt(words):
            maps = build(words)
            if len(words) > 1 and not corrupted:
                row = maps[0][0]
                maps[0][0] = (row[1],) + row[1:]
                corrupted.append(words[0])
            return maps

        monkeypatch.setattr(schur_weyl, "_transposition_maps", corrupt)
        code, error = run_main(["sectors", "--m", str(m), "--N", str(n)])
        assert corrupted
        assert code == 4
        assert error["kind"] == "consistency"

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 4), (6, 5)])
    def test_records_labelled_by_the_conjugate_exit_4_on_the_hook_content_anchor(
        self, m, n, monkeypatch
    ):
        # d, the rank sum and the multiplicity squares are the same for a
        # shape and its conjugate; only the hook-content value tells them apart
        from sectorkit import schur_weyl
        from sectorkit.partitions import Partition

        record = schur_weyl.SectorRecord

        def conjugated(partition, **fields):
            return record(partition=Partition(partition).conjugate().parts, **fields)

        monkeypatch.setattr(schur_weyl, "SectorRecord", conjugated)
        code, error = run_main(["sectors", "--m", str(m), "--N", str(n)])
        assert code == 4
        assert error["kind"] == "consistency"
        assert "hook-content" in error["error"]


class TestEquiv:
    def test_prop3_certificate(self, tmp_path):
        code, payload = run_to_file(tmp_path, "e.json", ["equiv", "--m", "2", "--N", "3"])
        data = json.loads(payload)
        assert code == 0
        assert data["certificate"]["equivalent"] is True
        assert data["certificate"]["residual"] == 0
        assert data["certificate"]["highest_weights"] == [[[2, 1]], [[2, 1]]]
        assert "intertwiner" in data["certificate"]

    @pytest.mark.parametrize("m,n", [(14, 3), (40, 2)])
    def test_equiv_cost_exits_before_allocating(self, capsys, m, n):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["equiv", "--m", str(m), "--N", str(n)])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert elapsed < 1.0
        assert peak < 1 << 20
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "resource"
        assert "exact equivalence certificate" in error["error"]

    @pytest.mark.parametrize("m,n,refused", [(39, 2, (40, 2)), (13, 3, (14, 3))], ids=["N2-edge", "N3-edge"])
    def test_estimate_bounds_the_peak_rss(self, monkeypatch, m, n, refused):
        # peak RSS above the floor of an exit-3 equiv run, against the byte
        # estimate check_certificate_cost refuses on: (39, 2) and (13, 3) are
        # the largest sizes it admits, where the rendered r x r V is most of it
        from sectorkit import highest_weight

        with pytest.raises(errors.ResourceLimitError):
            highest_weight.check_certificate_cost(*refused)
        estimates = []
        monkeypatch.setattr(highest_weight, "check_bytes", lambda nbytes, _: estimates.append(nbytes))
        highest_weight.check_certificate_cost(m, n)
        floor_code, floor = child_peak_rss(["equiv", "--m", "14", "--N", "3"])
        code, peak = child_peak_rss(["equiv", "--m", str(m), "--N", str(n)])
        assert (floor_code, code) == (3, 0)
        assert peak - floor < estimates[-1], (peak - floor, estimates[-1])

    @pytest.mark.parametrize("m,n", [(5, 3), (9, 2), (6, 3), (11, 2), (9, 3)])
    def test_sizes_once_refused_by_the_commutant_cap_run(self, tmp_path, m, n):
        code, payload = run_to_file(tmp_path, "e.json", ["equiv", "--m", str(m), "--N", str(n)])
        cert = json.loads(payload)["certificate"]
        dim = math.comb(m, 2) if n == 2 else m * (m * m - 1) // 3
        assert code == 0
        assert cert["equivalent"] is True and cert["carrier_dims"] == [dim, dim]
        assert cert["residual"] == 0
        v = np.array([[complex(re, im) for re, im in row] for row in cert["intertwiner"]])
        assert np.abs(v @ v.conj().T - np.eye(dim)).max() < 1e-8

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3)])
    def test_seed_does_not_change_the_report(self, tmp_path, m, n):
        # the certificate draws nothing: seeds 0 and 7 differ in config.seed only
        argv = ["equiv", "--m", str(m), "--N", str(n)]
        reports = [json.loads(run_to_file(tmp_path, f"{seed}.json", argv + ["--seed", seed])[1])
                   for seed in ("0", "7")]
        assert [r["config"].pop("seed") for r in reports] == [0, 7]
        assert reports[0] == reports[1]

    def test_bad_n(self, capsys):
        assert main(["equiv", "--m", "2", "--N", "4"]) == 2
        capsys.readouterr()

    def test_csv_unsupported(self, capsys):
        assert main(["equiv", "--m", "2", "--N", "2", "--format", "csv"]) == 2
        capsys.readouterr()


class TestCover:
    def test_symmetric_cover_census(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, "c.json", ["cover", "--q-size", "3", "--N", "2"]
        )
        data = json.loads(payload)
        assert code == 0
        assert data["kernel_space_dim"] == 18
        assert data["passed"] is True

    def test_cover_json_input(self, tmp_path):
        spec_file = tmp_path / "cover.json"
        spec_file.write_text(json.dumps(oracles.cover_to_json(symmetric_cover(3, 2))))
        code, payload = run_to_file(
            tmp_path, "c.json", ["cover", "--cover-json", str(spec_file)]
        )
        data = json.loads(payload)
        assert code == 0
        assert data["kernel_space_dim"] == 18

    def test_missing_arguments(self, capsys):
        assert main(["cover"]) == 2
        capsys.readouterr()

    def test_census_cost_exits_before_allocating(self, capsys):
        # 16,387,170 points: the first N = 3 cover the estimate refuses
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["cover", "--q-size", "255", "--N", "3"])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert elapsed < 2.0
        assert peak < 4 << 20
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "resource"
        assert "cover census" in error["error"]

    @pytest.mark.parametrize(
        "q,n,code",
        [(6000, 2, 3), (12, 12, 3), (10**9, 1, 3), (1000, 2000, 2), (4, 0, 2)],
    )
    def test_q_size_and_n_refused_before_enumerating(self, q, n, code, capsys, monkeypatch):
        # q!/(q - N)! tuples would be listed before the census estimate runs;
        # sizes outside symmetric_cover's domain stay usage errors
        real = cover_quant.symmetric_cover

        def enumerate_small(q, n_particles):
            if q > n_particles > 0:
                raise AssertionError("cover enumerated before the estimate")
            return real(q, n_particles)

        monkeypatch.setattr(cover_quant, "symmetric_cover", enumerate_small)
        assert main(["cover", "--q-size", str(q), "--N", str(n)]) == code
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == ("resource" if code == 3 else "usage")
        assert code == 2 or "cover census" in error["error"]

    @staticmethod
    def cyclic_cover_file(tmp_path, order):
        spec_file = tmp_path / f"z{order}.json"
        spec = {
            "points": [f"p{x}" for x in range(order)],
            "group": [[(x + k) % order for x in range(order)] for k in range(order)],
        }
        spec_file.write_text(json.dumps(spec))
        return spec_file

    def test_regular_split_cost_exits_before_allocating(self, tmp_path, capsys, monkeypatch):
        # Z_64 under a 256 KiB budget: the split's estimate at one column per
        # eigenspace (~0.56 MiB) refuses it before H is diagonalized
        def refuse(*args):
            raise AssertionError("regular representation split past the cost check")

        monkeypatch.setattr(errors, "BYTES_CAP", 2**18)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        spec_file = self.cyclic_cover_file(tmp_path, 64)
        assert main(["cover", "--cover-json", str(spec_file)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "resource"
        assert "regular representation of a deck group of order 64" in error["error"]

    def test_cover_json_census_takes_no_span_rank_or_sylvester_path(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Sylvester path taken")

        for name in ("commutant_basis_of", "intertwiner_basis"):
            monkeypatch.setattr(linalg, name, refuse)
        spec_file = tmp_path / "d6.json"
        spec_file.write_text(json.dumps(oracles.dihedral_document(6)))
        code, payload = run_to_file(tmp_path, "c.json", ["cover", "--cover-json", str(spec_file)])
        data = json.loads(payload)
        assert code == 0
        assert [s["internal_dim"] for s in data["sectors"]] == [1, 1, 1, 1, 2, 2]
        assert data["passed"] is True

    def test_census_cost_applies_to_cover_json(self, tmp_path, capsys, monkeypatch):
        # (100, 2) one byte under the census estimate for the complex
        # irreducibles of Z_2, which the regular split's own estimate is under
        spec_file = tmp_path / "cover.json"
        spec_file.write_text(json.dumps(oracles.cover_to_json(symmetric_cover(100, 2))))
        budget = cover_quant._census_bytes(2, [1, 1], complex_entries=True) - 1
        assert cover_document._regular_bytes(2, 1) <= budget
        monkeypatch.setattr(errors, "BYTES_CAP", budget)
        assert main(["cover", "--cover-json", str(spec_file)]) == 3
        assert "cover census of 9900 points" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "options,phrase",
        [
            (["--cover-json", "DOC", "--q-size", "4", "--N", "3"], "--cover-json or --q-size"),
            (["--cover-json", "DOC", "--N", "3"], "--cover-json or --q-size and --N, not both"),
            (["--q-size", "-3", "--N", "2"], "--q-size must be >= 0, got -3"),
            (["--q-size", "4", "--N", "-1"], "got N=-1"),
        ],
        ids=["cover-json-and-sizes", "cover-json-and-N", "negative-q-size", "negative-N"],
    )
    def test_conflicting_or_negative_options_exit_2(self, tmp_path, capsys, options, phrase):
        # a document given with sizes was read and the sizes ignored; a
        # negative --q-size was reported as |Q| = 0
        spec_file = tmp_path / "cover.json"
        spec_file.write_text(json.dumps(oracles.cover_to_json(symmetric_cover(3, 2))))
        assert main(["cover"] + [str(spec_file) if o == "DOC" else o for o in options]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "usage"
        assert phrase in error["error"]

    @pytest.mark.parametrize(
        "q,n",
        [(4082, 2), (254, 3), (300, 2), (6, 6)],
        ids=["N2-edge", "N3-edge", "N2-small", "N6-stacks"],
    )
    def test_census_estimate_bounds_the_peak_rss(self, monkeypatch, q, n):
        # peak RSS above the floor of an exit-3 cover run, against the
        # estimate check_census_cost refuses on: the cover's own tables and
        # _census_bytes; (4082, 2) and (254, 3) are the largest N = 2 and
        # N = 3 covers it admits, at (300, 2) the admitted run's fixed share
        # is most of the estimate, and at (6, 6) S_6's Young stacks and
        # restrictions are
        estimates = []
        monkeypatch.setattr(cover_quant, "check_bytes", lambda nbytes, _: estimates.append(nbytes))
        cover_quant.check_census_cost(q, n)
        floor_code, floor = child_peak_rss(["cover", "--q-size", "6000", "--N", "2"])
        code, peak = child_peak_rss(["cover", "--q-size", str(q), "--N", str(n)])
        assert (floor_code, code) == (3, 0)
        assert peak - floor < estimates[-1], (peak - floor, estimates[-1])


class TestCircle:
    def test_json_report(self, tmp_path):
        code, payload = run_to_file(
            tmp_path, "c.json", ["circle", "--theta", "0", "--grid", "128"]
        )
        data = json.loads(payload)
        assert code == 0
        assert data["passed"] is True
        k0 = [r for r in data["rows"] if r["k"] == 0][0]
        assert abs(k0["eigenvalue"]) < 1e-9
        assert data["gauge"]["residual"] < 1e-8
        assert 0 < data["eigen_residual_max"] < 1e-9
        assert sorted(k0) == ["eigenvalue", "error", "k", "reference"]

    def test_csv_rows(self, tmp_path):
        code, payload = run_to_file(
            tmp_path,
            "c.csv",
            ["circle", "--theta", "1.0", "--grid", "128", "--format", "csv"],
        )
        lines = payload.decode().splitlines()
        assert code == 0
        assert lines[0] == "theta,k,eigenvalue,reference,error"
        assert len(lines) == 1 + 33

    def test_small_grid_rejected(self, capsys):
        assert main(["circle", "--theta", "0", "--grid", "4"]) == 2
        capsys.readouterr()

    def test_estimate_bounds_the_peak_rss(self, monkeypatch):
        # peak RSS of 2048 and 4096 points above the floor of an exit-3 circle
        # run (7863 points, the first refused grid), against the byte estimate
        # check_gauge_cost refuses on: 16 n (PASS_VECTORS + PASS_CHUNKS rows)
        estimates = []
        monkeypatch.setattr(circle_theta, "check_bytes", lambda nbytes, _: estimates.append(nbytes))
        floor_code, floor = child_peak_rss(["circle", "--theta", "1", "--grid", "7863"])
        assert floor_code == 3
        for n in (2048, 4096):
            circle_theta.check_gauge_cost(n)
            estimate = estimates[-1]
            assert estimate == 16 * n * (
                circle_theta.PASS_VECTORS + circle_theta.PASS_CHUNKS * circle_theta._chunk_rows(n)
            )
            code, peak = child_peak_rss(["circle", "--theta", "1", "--grid", str(n)])
            assert code == 0
            assert peak - floor < estimate, (n, peak - floor, estimate)

    @pytest.mark.parametrize("grid", [8192, 100000])
    def test_refused_grid_exits_3_before_allocating(self, capsys, grid):
        # refused by the gauge pass's work estimate, not by numpy's allocator
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["circle", "--theta", "1", "--grid", str(grid)])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert elapsed < 1.0
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "resource"
        assert f"gauge check on a {grid}-point grid" in error["error"]


class TestFailureExitCodes:
    def test_equivalence_failure_exits_4(self, monkeypatch, capsys):
        from sectorkit import highest_weight

        def refuted(first, second, m):
            return highest_weight.HighestWeightCertificate(
                False, (3, 3), [[(1, 1)], []], None, None, None, "highest-weight vectors: 1 and 0"
            )

        monkeypatch.setattr(highest_weight, "certify", refuted)
        assert main(["equiv", "--m", "3", "--N", "2"]) == 4
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"]["equivalent"] is False
        assert data["certificate"]["intertwiner"] is None

    def test_consistency_error_exits_4(self, monkeypatch, capsys):
        from sectorkit import schur_weyl
        from sectorkit.errors import ConsistencyError

        def broken(m, n):
            raise ConsistencyError("rank bookkeeping went wrong")

        monkeypatch.setattr(schur_weyl, "sector_decomposition", broken)
        assert main(["sectors", "--m", "2", "--N", "2"]) == 4
        assert json.loads(capsys.readouterr().err)["kind"] == "consistency"

    def test_wrong_wrap_phase_exits_4_without_a_report(self, monkeypatch, capsys):
        from sectorkit import circle_theta

        # the stencil wraps with exp(-i theta): its plane waves are no eigenvectors
        stencil = circle_theta._apply_fd
        monkeypatch.setattr(circle_theta, "_apply_fd", lambda theta, v: stencil(-theta, v))
        assert main(["circle", "--theta", "1", "--grid", "128"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "consistency"
        assert "fd operator" in error["error"]

    def test_memory_error_exits_3(self, monkeypatch, capsys):
        from sectorkit import cover_quant

        def exhausted(cover, seed=0):
            raise MemoryError("Unable to allocate 3.43 GiB for an array")

        monkeypatch.setattr(cover_quant, "sector_census", exhausted)
        assert main(["cover", "--q-size", "3", "--N", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = json.loads(captured.err)
        assert error["kind"] == "resource"
        assert "Unable to allocate" in error["error"]


def run_main(argv):
    """main() in-process with its output discarded: (code, the stderr record or None)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", os.devnull])
    return code, json.loads(err.getvalue()) if err.getvalue() else None


def one_wrong_word(kind):
    """The cover document of symmetric_cover(4, 3) with the word of element 1
    changed on the orbit of base point 2 only, where it acts as the identity
    ("fixed") or as element 2 ("law"): a permutation that keeps the first
    point's images, and so the Cayley table read there."""
    cover = symmetric_cover(4, 3)
    document = oracles.cover_to_json(cover)
    word = document["group"][1]
    for x in cover.orbits[2]:
        word[x] = int(x) if kind == "fixed" else document["group"][2][x]
    return document


class TestCoverFaults:
    @pytest.mark.parametrize("q,n", [(3, 2), (4, 3)])
    def test_sign_twisted_irreducibles_exit_4(self, q, n, monkeypatch):
        # every Young matrix times sign(pi): each label then carries its
        # conjugate irreducible, (N) the fermions, which every dimension,
        # leakage and intertwining check accepts
        exact = cover_quant.irreps_of

        def twisted(group, seed=0):
            signs = np.array([pi.sign() for pi in group.perms], dtype=float)[:, None, None]
            return [
                cover_quant.GroupRep(group=group, matrices=signs * rep.matrices, label=rep.label)
                for rep in exact(group, seed)
            ]

        monkeypatch.setattr(cover_quant, "irreps_of", twisted)
        code, error = run_main(["cover", "--q-size", str(q), "--N", str(n)])
        assert code == 4
        assert error["kind"] == "consistency"
        assert f"sector ({n},) has character -1 on a transposition, not 1" in error["error"]

    @pytest.mark.parametrize("q,n", [(3, 2), (4, 3)])
    def test_contents_as_row_minus_col_exit_4(self, q, n, monkeypatch):
        # the label anchor predicts each sector's conjugate: (N) the sign
        monkeypatch.setattr(cover_quant, "contents", row_minus_col)
        code, error = run_main(["cover", "--q-size", str(q), "--N", str(n)])
        assert (code, error["kind"]) == (4, "consistency")
        assert f"sector ({n},) has character 1 on a transposition, not -1" in error["error"]

    @pytest.mark.parametrize(
        "entry,phrase",
        [(5, "section must pick one point per orbit"), (24, "entries must be point indices")],
        ids=["duplicate", "out-of-range"],
    )
    def test_one_corrupted_orbit_entry_exits_2(self, entry, phrase, monkeypatch):
        # symmetric_cover(4, 3)'s orbit table with its entry (1, 1) replaced
        # by another row's point, or by one past the last point
        exact = cover_quant.FiniteCover

        def corrupted(points, group, orbits):
            orbits = np.asarray(orbits).tolist()
            orbits[1][1] = entry
            return exact(points, group, orbits)

        monkeypatch.setattr(cover_quant, "FiniteCover", corrupted)
        code, error = run_main(["cover", "--q-size", "4", "--N", "3"])
        assert (code, error["kind"]) == (2, "usage")
        assert phrase in error["error"]

    @pytest.mark.parametrize(
        "kind,phrase",
        [("fixed", "action is not free: element (1, 3, 2)"),
         ("law", "action is incompatible with the group law")],
    )
    def test_one_wrong_word_exits_2(self, kind, phrase, tmp_path):
        document = one_wrong_word(kind)
        assert sorted(document["group"][1]) == list(range(24))
        code, lines = run_cover_document(tmp_path / "cover.json", document)
        assert code == 2
        assert phrase in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("q,n", [(3, 2), (4, 3), (5, 4)])
    def test_one_wrong_young_entry_never_exits_0(self, q, n, monkeypatch):
        # each nonzero entry of each adjacent transposition's Young matrix,
        # negated or scaled by 1 + 1e-6, one at a time: the stacks built from
        # it break unitarity or the group law (exit 2), or carry another
        # representation under the shape's label (exit 4)
        exact = cover_quant.young_generators
        shapes = cover_quant.enumerate_partitions(n)
        seams = [
            (shape.parts, k, entry)
            for shape in shapes
            for k, mat in enumerate(exact(shape))
            for entry, value in enumerate(mat)
            if value != 0
        ]
        assert len(seams) >= 2 * (n - 1)
        codes = set()
        for parts, k, entry in seams:
            for fault in (lambda v: -v, lambda v: v * (1 + 1e-6)):

                def wrong(shape, parts=parts, k=k, entry=entry, fault=fault):
                    mats = exact(shape)
                    if shape.parts == parts:
                        mats[k][entry] = fault(mats[k][entry])
                    return mats

                monkeypatch.setattr(cover_quant, "young_generators", wrong)
                code, error = run_main(["cover", "--q-size", str(q), "--N", str(n)])
                assert code in (2, 4), (parts, k, entry)
                assert error["kind"] == ("usage" if code == 2 else "consistency")
                codes.add(code)
        # at N = 2 negating s_1's one entry swaps the trivial and the sign
        # sector, which only the label anchor sees; from N = 3 on any single
        # wrong entry breaks a relation of the group law
        assert codes == ({2, 4} if n == 2 else {2})

    @pytest.mark.parametrize("point", [0, 5, 23])
    def test_one_wrong_deck_element_exits_4(self, point, monkeypatch):
        # h(x) moved to every other element of its fiber, one point at a
        # time: the deck comparison with the orbit table refuses it
        exact = cover_quant.FiniteCover.deck_element
        group = symmetric_cover(4, 3).group
        for g in range(1, group.order):

            def broken(cover, g=g):
                h_of = exact(cover)[:]
                h_of[point] = cover.group.cayley[h_of[point], g]
                return h_of

            monkeypatch.setattr(cover_quant.FiniteCover, "deck_element", broken)
            code, error = run_main(["cover", "--q-size", "4", "--N", "3"])
            assert (code, error["kind"]) == (4, "consistency")
            assert f"point {point} has deck element" in error["error"]

    @pytest.mark.parametrize("row", [1, 3])
    def test_section_missing_an_orbit_exits_2(self, row, monkeypatch):
        # symmetric_cover(4, 3)'s orbit table with one row replaced by the
        # first orbit seen from another representative: that orbit listed
        # twice and this one not at all
        exact = cover_quant.FiniteCover

        def missing(points, group, orbits):
            orbits = np.asarray(orbits).tolist()
            for g in range(group.order):
                orbits[row][g] = orbits[0][group.cayley[1, g]]
            return exact(points, group, orbits)

        monkeypatch.setattr(cover_quant, "FiniteCover", missing)
        code, error = run_main(["cover", "--q-size", "4", "--N", "3"])
        assert (code, error["kind"]) == (2, "usage")
        assert "section must pick one point per orbit" in error["error"]


def one_entry_off(mats):
    """Entry (0, 0) of element 1's matrix raised by 1e-6."""
    mats[1, 0, 0] += 1e-6


def one_matrix_conjugated(mats):
    """The first non-real matrix of the stack conjugated."""
    g = next(g for g, mat in enumerate(mats) if np.abs(mat.imag).max() > 1e-9)
    mats[g] = mats[g].conj()


def two_rows_swapped(mats):
    """The two rows of element 1's 2 x 2 matrix swapped."""
    assert mats.shape[1] == 2
    mats[1] = mats[1][::-1].copy()


def all_conjugated(mats):
    """Every matrix of the stack conjugated."""
    mats[...] = mats.conj()


def seed_split_fault(monkeypatch, fault):
    """Seed the fault into every list of blocks cover_document._irreducible_blocks
    keeps, on the first kept block with a non-real entry: a complex character
    of Z_12, or a 2-dim block of D_6 (its 1-dim blocks are real). Returns the
    log of its calls, True where a fault was seeded."""
    exact, seeded = cover_document._irreducible_blocks, []

    def blocks(bases, left):
        kept = exact(bases, left)
        if kept is not None:
            i = next(i for i, (_, mats) in enumerate(kept) if np.abs(mats.imag).max() > 1e-9)
            chars, mats = kept[i]
            mats = mats.copy()
            fault(mats)
            kept[i] = (chars, mats)
        seeded.append(kept is not None)
        return kept

    monkeypatch.setattr(cover_document, "_irreducible_blocks", blocks)
    return seeded


class TestRegularSplitFaults:
    """Faults seeded in the irreducibles of the regular split, on every
    retry, exit 4, never 0. Conjugating a whole D_6 block is no fault: it
    gives an equivalent representation."""

    @pytest.mark.parametrize(
        "group,fault",
        [
            ("Z12", one_entry_off), ("D6", one_entry_off),
            ("Z12", one_matrix_conjugated), ("D6", one_matrix_conjugated),
            ("D6", two_rows_swapped),
        ],
        ids=["Z12-entry", "D6-entry", "Z12-one-conjugated", "D6-one-conjugated", "D6-rows"],
    )
    def test_broken_block_fails_every_split(self, group, fault, tmp_path, monkeypatch):
        # a stack that is no representation is refused when it is built, so
        # the retry loop runs out
        seeded = seed_split_fault(monkeypatch, fault)
        document = oracles.cyclic_document(12) if group == "Z12" else oracles.dihedral_document(6)
        code, lines = run_cover_document(tmp_path / "cover.json", document)
        assert len(seeded) > 1 and all(seeded)
        assert code == 4
        error = json.loads(lines[0])
        assert error["kind"] == "consistency"
        assert error["error"] == "failed to split the regular representation"

    def test_conjugated_block_duplicates_a_sector(self, tmp_path, monkeypatch):
        # chi_k conjugated is chi_-k, which is kept too: one pair of sectors
        # intertwines and the census fails
        seeded = seed_split_fault(monkeypatch, all_conjugated)
        spec_file = tmp_path / "z12.json"
        spec_file.write_text(json.dumps(oracles.cyclic_document(12)))
        code, payload = run_to_file(tmp_path, "c.json", ["cover", "--cover-json", str(spec_file)])
        assert seeded == [True]
        assert code == 4
        data = json.loads(payload)
        assert data["passed"] is False
        dims = list(data["pairwise_intertwiner_dims"].values())
        assert dims.count(1) == 1 and set(dims) == {0, 1}


def refuted_report(tmp_path, m, n):
    """Exit code and certificate of an equiv run whose seeded fault must be refuted."""
    code, payload = run_to_file(tmp_path, "e.json", ["equiv", "--m", str(m), "--N", str(n)])
    certificate = json.loads(payload)["certificate"]
    assert certificate["intertwiner"] is None and certificate["residual"] is None
    return code, certificate


def off_by_one(vector):
    """The dict vector with its first entry raised by 1."""
    vector = dict(vector)
    key = next(iter(vector))
    vector[key] += 1
    return {k: c for k, c in vector.items() if c}


class TestEquivFaults:
    """Faults seeded in the exact certificate's seams exit 4, never 0."""

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3), (4, 3)])
    @pytest.mark.parametrize("seam", ["spanning_vector", "apply"])
    def test_every_single_entry_fault_exits_4(self, m, n, seam, monkeypatch, capsys):
        # one entry of one carrier spanning vector P(e_w x v), or of one
        # Chevalley image G_ab x, off by 1, for each nonzero one in turn:
        # the carrier leaks, loses its one highest-weight vector or its
        # Gram matrix, or a generator's coordinates differ
        from sectorkit import highest_weight

        exact = getattr(highest_weight._Space, seam)
        seen = []

        def faulty(space, *args):
            vector = exact(space, *args)
            if vector:
                seen.append(None)
                if len(seen) == target + 1:
                    return off_by_one(vector)
            return vector

        monkeypatch.setattr(highest_weight._Space, seam, faulty)
        target = -1
        assert main(["equiv", "--m", str(m), "--N", str(n), "--out", os.devnull]) == 0
        nonzero = len(seen)
        assert nonzero > 0
        codes = set()
        for target in range(nonzero):
            seen.clear()
            codes.add(main(["equiv", "--m", str(m), "--N", str(n), "--out", os.devnull]))
        capsys.readouterr()
        assert codes == {4}

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3)])
    def test_one_wrong_generator_entry_exits_4(self, tmp_path, m, n, monkeypatch):
        # one coordinate of the first nonzero Chevalley image on the second
        # side (fermionic or parafermionic) off by one: the matched bases no
        # longer carry equal generator matrices
        from sectorkit import highest_weight

        exact = highest_weight._coordinates
        images = []

        def perturbed(y, echelon):
            coords = exact(y, echelon)
            if y:
                images.append(None)
                if len(images) == 2:
                    return (coords[0] + 1,) + coords[1:]
            return coords

        monkeypatch.setattr(highest_weight, "_coordinates", perturbed)
        code, certificate = refuted_report(tmp_path, m, n)
        assert code == 4 and len(images) == 2
        assert certificate["equivalent"] is False and "differs at weight" in certificate["detail"]

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_symmetric_singlet_exits_4(self, tmp_path, m, monkeypatch):
        # psi_01 + psi_10 in place of the singlet: the bosonic carrier is the
        # symmetric square, of highest weight (2) against the fermions' (1, 1)
        from sectorkit import highest_weight

        symmetric = highest_weight.Carrier(
            "two bosonic doublets, symmetric internal state", 2, 4, ({0b01: 1, 0b10: 1},),
            highest_weight._slot_move,
        )
        monkeypatch.setitem(highest_weight.PAIRS, 2, (symmetric, highest_weight.FERMIONS))
        code, certificate = refuted_report(tmp_path, m, 2)
        assert code == 4
        assert certificate["highest_weights"] == [[[2]], [[1, 1]]]
        assert certificate["carrier_dims"] == [math.comb(m + 1, 2), math.comb(m, 2)]

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3)])
    @pytest.mark.parametrize("side", [0, 1])
    def test_wrong_highest_weight_on_one_side_exits_4(self, tmp_path, m, n, side, monkeypatch):
        # one side's highest-weight vector reported at the weight of the
        # sorted word after its own: the two lambdas no longer agree
        from sectorkit import highest_weight

        exact = highest_weight._highest_weight_vectors
        calls = []

        def relabeled(space, spaces):
            found = exact(space, spaces)
            calls.append(None)
            if len(calls) == side + 1:
                words = list(spaces)
                found = [(words[words.index(w) + 1], h) for w, h in found]
            return found

        monkeypatch.setattr(highest_weight, "_highest_weight_vectors", relabeled)
        code, certificate = refuted_report(tmp_path, m, n)
        assert code == 4
        assert "highest weights differ" in certificate["detail"]


class TestFloatIntertwinerFaults:
    """The float library's general_equivalence checks the V it reports again.

    These seams ran through `equiv` while it searched for V in floats; the
    exact certificate has no search, so they call general_equivalence on
    the float realizations directly."""

    @staticmethod
    def realizations(m, n):
        from sectorkit import parastat_equiv

        if n == 2:
            return parastat_equiv.bosonic_singlet_realization(m), parastat_equiv.fermionic_realization(m)
        return parastat_equiv.bosonic_doublet_realization(m), parastat_equiv.parafermion_realization(m)

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3)])
    @pytest.mark.parametrize(
        "fault",
        [lambda v: v[[1, 0, *range(2, len(v))]], lambda v: v * (1 - 1e-6)],
        ids=["two rows swapped", "scaled by 1 - 1e-6"],
    )
    def test_returned_intertwiner_is_checked_again(self, m, n, fault, monkeypatch):
        # the search hands back a wrong V beside the residual of the right
        # one; the certificate must check the V it reports
        from sectorkit.parastat_equiv import general_equivalence

        search = linalg.unitary_intertwiner

        def broken(ops1, ops2, seed=0):
            v, residual, evidence = search(ops1, ops2, seed=seed)
            return fault(v), residual, evidence

        monkeypatch.setattr(linalg, "unitary_intertwiner", broken)
        certificate = general_equivalence(*self.realizations(m, n))
        assert certificate.equivalent is False
        assert certificate.intertwiner is None

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3)])
    def test_intertwiner_with_two_rows_swapped_exits_4(self, m, n, monkeypatch):
        # every intertwiner the search returns, from the random element or
        # the fallback, passes normalize_phase before its residual is taken
        from sectorkit.parastat_equiv import general_equivalence

        normalize = linalg.normalize_phase

        def swapped(v):
            v = normalize(v).copy()
            v[[0, 1]] = v[[1, 0]]
            return v

        monkeypatch.setattr(linalg, "normalize_phase", swapped)
        certificate = general_equivalence(*self.realizations(m, n))
        assert certificate.equivalent is False
        assert certificate.residual > linalg.RESIDUAL_TOL


class TestCircleFaults:
    def test_mode_numbers_off_by_one_exit_4(self, tmp_path, monkeypatch):
        # the plane waves stay eigenvectors, of eigenvalues 2 pi away from the predictions
        exact = circle_theta._mode_numbers
        monkeypatch.setattr(circle_theta, "_mode_numbers", lambda n: exact(n) + 1)
        code, payload = run_to_file(tmp_path, "c.json", ["circle", "--theta", "1", "--grid", "128"])
        assert code == 4
        report = json.loads(payload)
        assert report["passed"] is False
        assert report["worst_spectral_error"] > circle_theta.SPECTRAL_ERROR_TOL

    def test_spectral_wrap_phase_exits_4_without_a_report(self, monkeypatch, capsys):
        # the spectral operator wraps with exp(-i theta): its plane waves are no eigenvectors
        exact = circle_theta._apply_spectral
        monkeypatch.setattr(circle_theta, "_apply_spectral", lambda theta, v: exact(-theta, v))
        assert main(["circle", "--theta", "1", "--grid", "128"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "consistency"
        assert "spectral operator" in error["error"]


def process_env():
    src = str(Path(sectorkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def run_process(argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "sectorkit", *argv],
        cwd=cwd, env=process_env(), capture_output=True, text=True, timeout=60,
    )


def run_to_stdout(argv, cwd, stdout, unbuffered, launcher=()):
    """`python -m sectorkit argv` writing to the file descriptor `stdout`, with
    PYTHONUNBUFFERED set or unset; `launcher` is a shell prefix that receives
    the command line as its arguments."""
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [*launcher, sys.executable, "-m", "sectorkit", *argv],
        cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )


def assert_one_usage_line(done, fragment):
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["kind"] == "usage"
    assert error["schema"] == "sector-kit/1"
    assert fragment in error["error"]


class TestInputContract:
    """Inputs that once ended in a traceback exit 2 with one JSON error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["circle", "--theta", "nan", "--grid", "128"],
            ["circle", "--theta", "inf"],
            ["circle", "--theta=-inf"],
            ["cover", "--cover-json", "missing.json"],
            ["cover", "--cover-json", "."],
            ["circle", "--theta", "-inf"],
            ["circle", "--theta", "-1e3"],
            ["sectors", "--m", "2"],
            ["tableaux", "--N", "3", "--bogus"],
            ["tableaux", "--N", "3", "--out", "."],
            ["cover", "--q-size", "3", "--N", "2", "--out", "missing/x.json"],
        ],
        ids=[
            "theta-nan", "theta-inf", "theta-minus-inf", "cover-json-missing", "cover-json-dir",
            "theta-detached-minus-inf", "theta-detached-negative", "missing-required-option",
            "unknown-flag", "out-directory", "out-missing-parent",
        ],
    )
    def test_exits_2_with_one_json_line(self, tmp_path, argv):
        done = run_process(argv, tmp_path)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["kind"] == "usage"
        assert error["schema"] == "sector-kit/1"

    @pytest.mark.parametrize(
        "argv",
        [["equiv", "--m", "2", "--N", "2", "--seed", "-1"],
         ["cover", "--cover-json", "z6.json", "--seed", "-1"]],
        ids=["equiv", "cover-json"],
    )
    def test_negative_seed_exits_2(self, tmp_path, argv):
        # numpy's default_rng refused it with a ValueError traceback and exit 1
        TestCover.cyclic_cover_file(tmp_path, 6)
        done = run_process(argv, tmp_path)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["kind"] == "usage"
        assert "--seed must be >= 0" in error["error"]

    def test_detached_negative_value_suggests_the_attached_form(self, tmp_path):
        done = run_process(["circle", "--theta", "-1e3"], tmp_path)
        assert "--theta=-1e3" in json.loads(done.stderr)["error"]

    def test_help_is_unchanged(self, tmp_path):
        done = run_process(["sectors", "--help"], tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: sectorkit sectors")
        assert done.stderr == ""

    # a small report waits in the stdout buffer until the final flush; a 25 kB
    # one is written through at once
    STDOUT_JOBS = pytest.mark.parametrize(
        "argv", [["tableaux", "--N", "3"], ["equiv", "--m", "4", "--N", "3"]],
        ids=["small-report", "large-report"],
    )
    UNBUFFERED = pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])

    @STDOUT_JOBS
    @UNBUFFERED
    def test_closed_pipe_on_stdout_exits_2(self, tmp_path, argv, unbuffered):
        # ended in BrokenPipeError with exit 1, or "Exception ignored" and exit 120
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_to_stdout(argv, tmp_path, write_end, unbuffered)
        finally:
            os.close(write_end)
        assert_one_usage_line(done, "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @STDOUT_JOBS
    @UNBUFFERED
    def test_full_device_on_stdout_exits_2(self, tmp_path, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            done = run_to_stdout(argv, tmp_path, full, unbuffered)
        assert_one_usage_line(done, "No space left on device")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_help_to_a_full_device_exits_2(self, tmp_path):
        # buffered only: unbuffered, argparse itself swallows the failed write
        with open("/dev/full", "wb") as full:
            done = run_to_stdout(["--help"], tmp_path, full, False)
        assert_one_usage_line(done, "No space left on device")

    @pytest.mark.parametrize("out,code", [(None, 2), (os.devnull, 0)], ids=["stdout", "out-file"])
    def test_closed_stdout_descriptor(self, tmp_path, out, code):
        # a process started with fd 1 closed has sys.stdout None; with --out it
        # has nothing to write there
        argv = ["tableaux", "--N", "3"] + (["--out", out] if out else [])
        launcher = ["sh", "-c", 'exec "$0" "$@" >&-']
        done = run_to_stdout(argv, tmp_path, None, True, launcher)
        if code == 2:
            assert_one_usage_line(done, "stdout is closed")
        else:
            assert (done.returncode, done.stderr) == (0, "")


# Documents that once ended in a traceback (the first eight) or were
# accepted silently (the next three), and words that are not permutations
# of the points, which cover_from_action reads as one int64 array.
MALFORMED_COVERS = {
    "top-level-list": [1, 2],
    "points-not-a-list": {"points": 3, "group": [[0]]},
    "group-a-string": {"points": ["a", "b"], "group": "xy"},
    "group-null": {"points": ["a", "b"], "group": None},
    "nested-words": {"points": ["a", "b"], "group": [[[0], [1]], [[1], [0]]]},
    "section-out-of-range": {"points": ["a", "b"], "group": [[0, 1], [1, 0]], "section": [5]},
    "section-a-string": {"points": ["a", "b"], "group": [[0, 1], [1, 0]], "section": "0"},
    "points-empty": {"points": [], "group": [[]]},
    "word-entry-float": {"points": ["a", "b"], "group": [[0, 1], [1.5, 0]]},
    "word-entries-bool": {"points": ["a", "b"], "group": [[False, True], [True, False]]},
    "points-duplicate": {"points": ["a", "a"], "group": [[0, 1], [1, 0]]},
    "words-ragged": {"points": ["a", "b"], "group": [[0, 1], [1]]},
    "word-entry-out-of-range": {"points": ["a", "b"], "group": [[0, 1], [2, 0]]},
    "word-entry-past-int64": {"points": ["a", "b"], "group": [[0, 1], [2**64, 0]]},
}


# Texts that json.loads refuses with something other than JSONDecodeError:
# they ended in a RecursionError and in a ValueError from the interpreter's
# int-conversion limit, both with a traceback and exit 1.
UNREADABLE_COVERS = {
    "nested-past-the-recursion-limit": "[" * 100000 + "]" * 100000,
    "integer-past-the-digit-limit": '{"points": ["a"], "group": [[' + "9" * 5000 + "]]}",
}


def run_cover_document(path, document):
    """main() on `cover --cover-json` for one document: (code, stderr lines)."""
    path.write_text(json.dumps(document))
    return run_cover_file(path)


def run_cover_file(path):
    """main() on `cover --cover-json path`: (code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["cover", "--cover-json", str(path), "--out", os.devnull])
    return code, err.getvalue().splitlines()


class TestCoverDocumentContract:
    @pytest.mark.parametrize(
        "text",
        [json.dumps(document) for document in MALFORMED_COVERS.values()]
        + list(UNREADABLE_COVERS.values()),
        ids=[*MALFORMED_COVERS, *UNREADABLE_COVERS],
    )
    def test_malformed_document_exits_2(self, tmp_path, text):
        path = tmp_path / "cover.json"
        path.write_text(text)
        code, lines = run_cover_file(path)
        assert code == 2
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["kind"] == "usage"
        assert error["schema"] == "sector-kit/1"

    @pytest.mark.parametrize(
        "group",
        [[[0, 1, 2, 3], [0, 1, 2, 3]], [[0, 1, 2, 3], [1, 0, 3, 2], [0, 1, 3, 2]]],
        ids=["duplicate-words", "word-fixing-the-first-point"],
    )
    def test_words_agreeing_at_the_first_point_exit_2(self, tmp_path, group):
        document = {"points": ["a", "b", "c", "d"], "group": group}
        code, lines = run_cover_document(tmp_path / "cover.json", document)
        assert code == 2
        assert "agree at the first point" in json.loads(lines[0])["error"]

    def test_well_formed_document_still_runs(self, tmp_path):
        document = {"points": ["a", "b"], "group": [[0, 1], [1, 0]], "section": [1]}
        assert run_cover_document(tmp_path / "cover.json", document) == (0, [])

    @settings(max_examples=150, deadline=None)
    @given(
        document=st.recursive(
            st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False)
            | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(
                st.sampled_from(["points", "group", "section", "group_labels", "x"]),
                inner, max_size=4,
            ),
            max_leaves=12,
        )
        | st.fixed_dictionaries(
            {
                "points": st.lists(st.text(max_size=2), min_size=1, max_size=4),
                "group": st.lists(st.lists(st.integers(-1, 4), max_size=4), min_size=1, max_size=4),
            },
            optional={
                "section": st.lists(st.integers(-1, 4), max_size=3),
                "group_labels": st.lists(st.text(max_size=2), max_size=4),
            },
        )
    )
    def test_generated_documents_never_escape_the_contract(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            code, lines = run_cover_document(Path(tmp) / "cover.json", document)
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert len(lines) == 1
            assert json.loads(lines[0])["kind"] in ("usage", "resource")


def with_document(tmp_path, argv):
    """argv with "DOC" replaced by the path of a D_6 cover document written to tmp_path."""
    document = tmp_path / "d6.json"
    document.write_text(json.dumps(oracles.dihedral_document(6)))
    return [str(document) if a == "DOC" else a for a in argv]


class TestImports:
    @pytest.mark.parametrize(
        "argv,modules,numpy",
        [
            (["tableaux", "--N", "3"], {"partitions"}, False),
            (["sectors", "--m", "3", "--N", "4"], {"partitions", "schur_weyl"}, False),
            (["equiv", "--m", "2", "--N", "3"], {"highest_weight", "partitions"}, False),
            (
                ["cover", "--q-size", "4", "--N", "3"],
                {"partitions", "permgroup", "tolerances", "cover_quant"},
                False,
            ),
            (
                ["cover", "--cover-json", "DOC"],
                {"partitions", "permgroup", "tolerances", "cover_quant", "cover_document"},
                True,
            ),
            (["circle", "--theta", "1", "--grid", "128"], {"tolerances", "circle_theta"}, True),
        ],
        ids=["tableaux", "sectors", "equiv", "cover", "cover-json", "circle"],
    )
    def test_subcommand_loads_only_its_modules(self, tmp_path, argv, modules, numpy):
        # each handler lives beside what it reports: no run compiles another
        # subcommand's code, the Sylvester solvers of linalg, the permutations
        # of permgroup, the regular split or the dense reference builders;
        # tableaux, sectors, equiv and cover --q-size/--N load no numpy either
        argv = with_document(tmp_path, argv)
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "from sectorkit import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            "print(code, 'numpy' in sys.modules,\n"
            "      ' '.join(sorted(m for m in sys.modules if m.startswith('sectorkit'))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, os.devnull, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out[:2] == ["0", str(numpy)]
        expected = {"sectorkit", "sectorkit.cli", "sectorkit.errors"}
        assert set(out[2:]) == expected | {f"sectorkit.{m}" for m in modules}

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["cover", "--q-size", "4", "--N", "3"], 0),
            (["cover", "--q-size", "5", "--N", "3", "--format", "pretty"], 0),
            (["cover", "--q-size", "6000", "--N", "2"], 3),
            (["cover", "--q-size", "2", "--N", "3"], 2),
        ],
        ids=["admitted", "pretty", "refused", "usage"],
    )
    def test_cover_runs_load_no_numpy(self, argv, code):
        # the cover, its irreducibles and the census are plain Python, and
        # the refusal and the usage error are raised past cover_quant's import
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "from sectorkit import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            "print(code, 'sectorkit.cover_quant' in sys.modules,\n"
            "      *(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, os.devnull, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out == [str(code), "True"]

    @pytest.mark.parametrize("module", ["numpy.random", "numpy.ma"])
    def test_cover_json_run_does_not_load(self, tmp_path, module):
        # the regular representation is split by a random.Random draw, and
        # neither the split nor the census calls np.unique without return_inverse
        path = tmp_path / "d6.json"
        path.write_text(json.dumps(oracles.dihedral_document(6)))
        self.test_run_does_not_load(["cover", "--cover-json", str(path)], module)

    @pytest.mark.parametrize(
        "argv,module",
        [
            # stdlib random.Random draws the generic element (numpy.random is ~6 MB of RSS)
            (["equiv", "--m", "3", "--N", "3"], "numpy.random"),
            (["circle", "--theta", "1", "--grid", "128"], "numpy.random"),
            # np.unique without return_inverse loads numpy.ma (~1.3 MB)
            (["sectors", "--m", "3", "--N", "4"], "numpy.ma"),
            (["cover", "--q-size", "4", "--N", "3"], "numpy.ma"),
            # only tableaux and --lambda parsing use the symmetric group
            (["circle", "--theta", "1", "--grid", "128"], "sectorkit.permgroup"),
            # the dense reference builders: equiv moves slot axes, sectors runs schur_weyl
            (["equiv", "--m", "3", "--N", "3"], "sectorkit.tensor_rep"),
            (["sectors", "--m", "3", "--N", "4"], "sectorkit.tensor_rep"),
            # csv is imported by the csv renderer only
            (["sectors", "--m", "2", "--N", "3"], "csv"),
            (["equiv", "--m", "2", "--N", "2"], "csv"),
            (["cover", "--q-size", "3", "--N", "2"], "csv"),
            (["circle", "--theta", "1", "--grid", "128"], "csv"),
            # every model and report type is an errors.Value, not a dataclass
            (["sectors", "--m", "3", "--N", "5"], "dataclasses"),
            (["equiv", "--m", "3", "--N", "3"], "dataclasses"),
            (["cover", "--q-size", "4", "--N", "3"], "dataclasses"),
            (["circle", "--theta", "3", "--grid", "128", "--format", "csv"], "dataclasses"),
        ],
        ids=[
            "equiv-numpy.random", "circle-numpy.random", "sectors-numpy.ma", "cover-numpy.ma",
            "circle-permgroup", "equiv-tensor_rep", "sectors-tensor_rep", "sectors-csv",
            "equiv-csv", "cover-csv", "circle-csv", "sectors-dataclasses",
            "equiv-dataclasses", "cover-dataclasses", "circle-dataclasses",
        ],
    )
    def test_run_does_not_load(self, argv, module):
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "from sectorkit import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            f"print(code, {module!r} in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, os.devnull, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out == ["0", "False"]

    def test_only_the_module_launcher_imports_cli(self):
        # each handler returns its report's parts and cli renders them, so
        # no handler module reaches back into the front end
        package = Path(sectorkit.__file__).resolve().parent
        importers = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # the package is flat: a relative import is from sectorkit
                    parts = ["sectorkit"] if node.level else []
                    base = ".".join(parts + ([node.module] if node.module else []))
                    targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
                else:
                    continue
                if "sectorkit.cli" in targets:
                    importers.add(path.name)
        assert importers == {"__main__.py"}

    def test_no_sectorkit_module_imports_dataclasses(self):
        # the statement check covers tensor_rep too, which no subcommand loads
        package = Path(sectorkit.__file__).resolve().parent
        modules = sorted(package.glob("*.py"))
        assert {"errors.py", "tensor_rep.py", "cover_quant.py"} <= {p.name for p in modules}
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert "dataclasses" not in [n.split(".")[0] for n in names], (
                    f"{path.name}:{node.lineno} imports dataclasses"
                )

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["equiv", "--m", "3", "--N", "3"], 0),
            (["equiv", "--m", "4", "--N", "2", "--format", "pretty"], 0),
            (["equiv", "--m", "14", "--N", "3"], 3),
        ],
        ids=["admitted", "pretty", "refused"],
    )
    def test_equiv_loads_no_numpy_and_no_float_library(self, argv, code):
        # the highest-weight certificate is exact integer arithmetic: no
        # numpy, no threshold, none of the float realizations or SVDs
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        unused = ("numpy", "sectorkit.tolerances", "sectorkit.linalg", "sectorkit.parastat_equiv",
                  "sectorkit.permgroup")
        script = (
            "import sys\n"
            "from sectorkit import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            f"print(code, 'sectorkit.highest_weight' in sys.modules, *(m for m in {unused!r} if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, os.devnull, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out == [str(code), "True"]

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["sectors", "--m", "2", "--N", "2"], 0),
            (["sectors", "--m", "3", "--N", "4", "--format", "pretty"], 0),
            (["sectors", "--m", "3", "--N", "12"], 3),
            (["sectors", "--m", "3", "--N", "4", "--lambda", "2,1,1"], 0),
        ],
        ids=["admitted", "pretty", "refused", "lambda"],
    )
    def test_sectors_loads_no_numpy_and_no_tolerances(self, argv, code):
        # the certificate is exact integer arithmetic: no float, no threshold
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "from sectorkit import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            "print(code, *(m for m in ('numpy', 'sectorkit.tolerances') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, os.devnull, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out == [str(code)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "--m", "2", "--N", "2"],
            ["circle", "--theta", "0", "--grid", "128"],
            ["cover", "--cover-json", "DOC"],
        ],
        ids=["equiv", "circle", "cover-json"],
    )
    def test_sectorkit_modules_import_before_numpy(self, tmp_path, argv):
        # without cached bytecode a module's short-lived compile data lands on
        # top of numpy's heap if it is imported later (README Conventions);
        # equiv loads no numpy at all, so it imports nothing after it
        argv = with_document(tmp_path, argv)
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "names = []\n"
            "sys.addaudithook(lambda event, args: names.append(args[0]) if event == 'import' else None)\n"
            "from sectorkit import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            "first = next((i for i, n in enumerate(names) if n.split('.')[0] == 'numpy'), len(names))\n"
            "print(code, *(n for n in names[first:] if n.startswith('sectorkit')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, os.devnull, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out == ["0"]

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["tableaux", "--N", "6"], 0),
            (["tableaux", "--N", "5", "--format", "csv"], 0),
            (["tableaux", "--N", "8", "--format", "pretty"], 0),
            (["--help"], 0),
            (["tableaux", "--N"], 2),
            (["equiv", "--m", "3", "--N", "4"], 2),
            (["cover", "--q-size", "3", "--N", "2", "--format", "csv"], 2),
            (["cover", "--q-size", "3"], 2),
            (["cover", "--cover-json", "c.json", "--q-size", "3", "--N", "2"], 2),
            (["cover", "--q-size", "-3", "--N", "2"], 2),
            (["sectors", "--m", "2", "--N", "3", "--lambda", "2,x"], 2),
        ],
        ids=[
            "tableaux-json", "tableaux-csv", "tableaux-pretty", "help", "argparse-error",
            "equiv-bad-N", "cover-csv", "cover-no-N", "cover-json-and-sizes",
            "cover-negative-q-size", "sectors-bad-lambda",
        ],
    )
    def test_combinatorics_and_usage_errors_load_no_numpy(self, argv, code):
        # tableaux is exact integer combinatorics, and usage errors are raised
        # before a handler imports its numeric module. The permgroup value
        # types are errors.Value, not dataclasses (whose import loads
        # inspect, ~10 ms), and only the csv renderer imports csv.
        src = str(Path(sectorkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        unused = ("numpy", "sectorkit.tolerances", "sectorkit.linalg", "sectorkit.permgroup",
                  "sectorkit.tensor_rep", "sectorkit.schur_weyl", "sectorkit.parastat_equiv",
                  "sectorkit.highest_weight",
                  "sectorkit.cover_quant", "sectorkit.cover_document", "sectorkit.cover_reference",
                  "sectorkit.circle_theta", "dataclasses", "inspect")
        if code or "csv" not in argv:  # only a csv report is rendered by csv
            unused += ("csv",)
        script = (
            "import sys\n"
            "from sectorkit import cli\n"
            "try:\n"
            "    code = cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"print('\\n', code, *(m for m in {unused!r} if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.splitlines()[-1].split()
        assert out == [str(code)]

    def test_every_public_name_resolves(self):
        for name in sectorkit.__all__:
            assert getattr(sectorkit, name) is not None
        assert sectorkit.sector_census is cover_quant.sector_census
        from sectorkit import young_projector  # listed in _EXPORTS, so in __all__ too

        assert callable(young_projector)
        with pytest.raises(AttributeError):
            sectorkit.no_such_name

    def test_every_traced_name_resolves(self):
        # the benchmark's tracer wraps these by name and fails on a missing one
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TRACED
        for module, attr, _, _ in tracing.TRACED:
            owner = importlib.import_module(f"sectorkit.{module}")
            assert callable(functools.reduce(getattr, attr.split("."), owner)), (module, attr)


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenReports:
    """Reports of exact integers only, pinned byte for byte: no float, so the
    bytes are the same on every platform."""

    @pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("csv", "csv"), ("pretty", "txt")])
    @pytest.mark.parametrize(
        "argv,name",
        [
            (["tableaux", "--N", "5"], "tableaux_N5"),
            (["tableaux", "--N", "5", "--lambda", "3,2"], "tableaux_N5_lambda"),
            (["sectors", "--m", "3", "--N", "4"], "sectors_m3_N4"),
            (["sectors", "--m", "3", "--N", "4", "--lambda", "2,1,1"], "sectors_m3_N4_lambda"),
        ],
        ids=["tableaux", "tableaux-lambda", "sectors", "sectors-lambda"],
    )
    def test_stdout_matches_the_pinned_bytes(self, capsysbinary, argv, name, fmt, suffix):
        assert main(argv + ["--format", fmt]) == 0
        captured = capsysbinary.readouterr()
        assert captured.err == b""
        assert captured.out == (GOLDEN / f"{name}.{suffix}").read_bytes()

    @pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("pretty", "txt")])
    def test_equiv_matches_the_pinned_bytes(self, capsysbinary, fmt, suffix):
        # the highest-weight certificate holds integers only: its highest
        # weights, the matched bases' words, V = 1 and the residual 0
        self.test_stdout_matches_the_pinned_bytes(
            capsysbinary, ["equiv", "--m", "3", "--N", "3"], "equiv_m3_N3", fmt, suffix
        )


class TestRoundFloats:
    """Pins the JSON of numpy scalars, which _round_floats meets through the
    numbers ABCs without importing numpy."""

    def test_numpy_integer_becomes_int(self):
        value = _round_floats(np.int64(3))
        assert type(value) is int and value == 3

    def test_numpy_float_is_rounded_to_ten_digits(self):
        value = _round_floats(np.float32(0.1))
        assert type(value) is float and value == 0.1000000015
        assert _round_floats(np.float64(1 / 3)) == 0.3333333333

    @pytest.mark.parametrize("value", [np.float64("nan"), np.float32("inf"), -np.inf])
    def test_non_finite_numpy_float_becomes_none(self, value):
        assert _round_floats(value) is None

    def test_python_int_and_bools_pass_unchanged(self):
        assert _round_floats(True) is True
        assert _round_floats(np.True_) is np.True_
        value = _round_floats(2**70)
        assert type(value) is int and value == 2**70

    def test_nested_tuples_become_lists(self):
        data = {"a": (1, (np.float32(0.5), (np.int8(-2), 2 / 3)), "x")}
        assert _round_floats(data) == {"a": [1, [0.5, [-2, 0.6666666667]], "x"]}
        assert json.dumps(_round_floats(data)) == '{"a": [1, [0.5, [-2, 0.6666666667]], "x"]}'


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tableaux", "--N", "6"],
            ["sectors", "--m", "2", "--N", "3"],
            ["equiv", "--m", "2", "--N", "3"],
            ["cover", "--q-size", "4", "--N", "3"],
            ["circle", "--theta", "1.5707963267948966", "--grid", "128"],
            ["circle", "--theta", "3", "--grid", "128", "--format", "csv"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        _, first = run_to_file(tmp_path, "a.out", argv + ["--seed", "0"])
        _, second = run_to_file(tmp_path, "b.out", argv + ["--seed", "0"])
        assert first == second

    def test_stdout_path(self, capsys):
        assert main(["tableaux", "--N", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "tableaux"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tableaux", "--N", "6"],
            ["sectors", "--m", "2", "--N", "3"],
            ["equiv", "--m", "2", "--N", "3"],
            ["cover", "--q-size", "4", "--N", "3"],
            ["circle", "--theta", "3", "--grid", "128", "--format", "csv"],
            ["equiv", "--m", "3", "--N", "4"],
        ],
        ids=["tableaux", "sectors", "equiv", "cover", "circle", "usage-error"],
    )
    def test_process_entry_matches_main(self, tmp_path, capsysbinary, argv):
        # the module launcher and the console script's target, against in-process main
        code = main(argv)
        expected = (code, capsysbinary.readouterr().out)
        launchers = [["-m", "sectorkit"],
                     ["-c", "import sys; from sectorkit.cli import entry; sys.exit(entry())"]]
        for launcher in launchers:
            done = subprocess.run(
                [sys.executable, *launcher, *argv],
                cwd=tmp_path, env=process_env(), capture_output=True, timeout=60,
            )
            assert (done.returncode, done.stdout) == expected, launcher

    def test_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"sectorkit": "sectorkit.cli:entry"}
        assert "sys.exit(entry())" in (root / "src" / "sectorkit" / "__main__.py").read_text()

    def test_main_leaves_the_collector_alone(self):
        before = (gc.isenabled(), gc.get_freeze_count())
        assert main(["tableaux", "--N", "3", "--out", os.devnull]) == 0
        assert main(["tableaux", "--N", "3", "--out", "."]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["tableaux", "--N", "3"],
            ["equiv", "--m", "4", "--N", "3"],
            ["equiv", "--m", "3", "--N", "4"],
        ],
        ids=["small-report", "large-report", "usage-error"],
    )
    def test_entry_ends_the_process_without_teardown(self, tmp_path, capsysbinary, argv):
        # the report and any error line are complete and the exit code is
        # entry's, but the interpreter never reaches its atexit handlers
        code = main(argv)
        captured = capsysbinary.readouterr()
        script = (
            "import atexit, sys\n"
            "from sectorkit import cli\n"
            "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
            "cli.entry()\n"
            "sys.stderr.write('entry returned\\n')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=tmp_path, env=process_env(), capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
