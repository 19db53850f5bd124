"""bench harness: generation, runs, CSV reports, verification, CLI."""

from __future__ import annotations

import gc
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import bulkio.bench as bench
from bulkio import (
    Codec,
    ElementType,
    EmptyBenchmark,
    NoRecords,
    TreeFile,
    fixed_array,
    read_footer,
    var_array,
)
from bulkio.cli import main as cli_main

from conftest import deflate_bomb, rewrite_basket

ALL_SCENARIOS = list(bench.SCENARIOS)


# --- generate ---

def test_generate_layout(tmp_path):
    path = tmp_path / "g.bkio"
    stats = bench.generate(100, basket_capacity=32, out=path)
    assert stats.n_entries == 100
    footer = read_footer(path)
    assert [b.n_entries for b in footer.branches[0].baskets] == [32, 32, 32, 4]


def test_generate_zero_entries(tmp_path):
    with pytest.raises(EmptyBenchmark):
        bench.generate(0, out=tmp_path / "z.bkio")


def test_generate_payload_size(tmp_path):
    path = tmp_path / "p.bkio"
    n = 50_000
    stats = bench.generate(n, out=path)
    assert stats.bytes_written >= n * 4  # f32 payload plus metadata
    assert stats.bytes_written < n * 4 + 4096


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.bkio", tmp_path / "b.bkio"
    bench.generate(5000, basket_capacity=128, out=a)
    bench.generate(5000, basket_capacity=128, out=b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_ramp_values(tmp_path):
    path = tmp_path / "r.bkio"
    bench.generate(1000, out=path)
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        assert rd.get_entry(0) == 0.0
        assert rd.get_entry(999) == 999.0


def test_generate_shapes_verify(tmp_path):
    for name, shape in [("fixed", fixed_array(3)), ("var", var_array())]:
        path = tmp_path / f"{name}.bkio"
        bench.generate(500, shape=shape, basket_capacity=64,
                       codec=Codec.DEFLATE, out=path)
        assert bench.verify(path).passed


def test_ramp_checksum_formula():
    # independent of the readers: direct arithmetic series
    assert bench.ramp_checksum(10_000) == float(10_000 * 9_999 // 2)
    n = (1 << 24) + 10
    expected = float(sum(i % (1 << 24) for i in range(n)))
    assert bench.ramp_checksum(n) == expected


# --- run ---

@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "b10k.bkio"
    bench.generate(10_000, basket_capacity=256, out=path)
    return path


def test_run_all_scenarios_same_checksum(bench_file):
    records = bench.run(bench_file, ALL_SCENARIOS, repeat=1)
    checksums = {r.checksum for r in records}
    assert checksums == {bench.ramp_checksum(10_000)}
    assert {r.scenario for r in records} == set(ALL_SCENARIOS)


def test_run_repeat_indices_monotone(bench_file):
    records = bench.run(bench_file, "bulk", repeat=3)
    assert [r.repetition for r in records] == [0, 1, 2]
    for r in records:
        assert r.wall_seconds > 0
        assert r.events_per_second == r.n_entries / r.wall_seconds


def test_run_records_metadata(bench_file):
    (rec,) = bench.run(bench_file, ["rds-bulk"], repeat=1)
    assert rec.n_entries == 10_000
    assert rec.basket_capacity == 256
    assert rec.codec == "none"


def test_run_unknown_scenario(bench_file):
    with pytest.raises(ValueError):
        bench.run(bench_file, "warp-speed", repeat=1)


def test_run_on_deflate_var_file(tmp_path):
    path = tmp_path / "dv.bkio"
    bench.generate(2000, shape=var_array(), codec=Codec.DEFLATE,
                   basket_capacity=128, out=path)
    ids = ["get-entry", "bulk", "reader", "fast-reader"]
    records = bench.run(path, ids, repeat=1)
    assert len({r.checksum for r in records}) == 1


# --- report ---

def test_report_single_record(bench_file, tmp_path):
    records = bench.run(bench_file, "bulk", repeat=1)
    out = tmp_path / "one.csv"
    bench.report(records, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ("scenario,entries,basket_entries,codec,repeat,"
                        "wall_seconds,events_per_second,checksum")
    fields = lines[1].split(",")
    assert fields[0] == "bulk"
    assert fields[1] == "10000"
    assert fields[7] == repr(bench.ramp_checksum(10_000))  # full precision


def test_report_seven_by_three_is_22_lines(bench_file, tmp_path):
    records = bench.run(bench_file, ALL_SCENARIOS, repeat=3)
    out = tmp_path / "all.csv"
    bench.report(records, out)
    assert len(out.read_text().splitlines()) == 22


def test_report_empty_records(tmp_path):
    with pytest.raises(NoRecords):
        bench.report([], tmp_path / "no.csv")


def test_report_six_significant_digits(tmp_path):
    rec = bench.BenchRecord("bulk", 10, 8192, "none", 0,
                            0.123456789, 81.00000123456, 45.0)
    out = tmp_path / "sig.csv"
    bench.report([rec], out)
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[5] == "0.123457"
    assert fields[6] == "81"


def test_run_closes_what_each_scenario_opens(bench_file, monkeypatch):
    """No file is left for the garbage collector to close: its
    ResourceWarning, made an error, would reach the unraisable hook."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        bench.run(bench_file, ALL_SCENARIOS, repeat=2)
        gc.collect()
    assert [u.exc_type for u in unraisable] == []


def test_integrity_error_on_divergent_checksums(bench_file, monkeypatch):
    from bulkio.errors import BenchmarkIntegrityError
    real = bench._PREPARERS["bulk"]
    monkeypatch.setitem(bench._PREPARERS, "bulk",
                        lambda p: (lambda: 12345.0))
    with pytest.raises(BenchmarkIntegrityError):
        bench.run(bench_file, ["get-entry", "bulk"], repeat=1)
    monkeypatch.setitem(bench._PREPARERS, "bulk", real)


# --- verify ---

def test_verify_fresh_file_passes(bench_file):
    result = bench.verify(bench_file)
    assert result.passed
    assert result.lines()[0].startswith("PASS")


def test_verify_var_file_counts(tmp_path):
    path = tmp_path / "vv.bkio"
    bench.generate(3000, shape=var_array(), basket_capacity=100, out=path)
    result = bench.verify(path)
    assert result.passed


def test_verify_truncated_file_fails_with_location(tmp_path):
    path = tmp_path / "t.bkio"
    bench.generate(4000, basket_capacity=256, codec=Codec.DEFLATE, out=path)
    data = path.read_bytes()
    footer_offset = int.from_bytes(data[-8:], "big")
    cut = 8 + 40  # mid-first-basket
    bad = tmp_path / "t_cut.bkio"
    bad.write_bytes(data[:cut] + data[footer_offset:-8] +
                    cut.to_bytes(8, "big"))
    result = bench.verify(bad)
    assert not result.passed
    assert any("DecompressError" in f for f in result.failures)


def test_verify_bitflip_detected_in_deflate_stream(tmp_path):
    """Codec-none payloads carry no checksum (bit flips read back consistently);
    deflate streams reject gross corruption."""
    path = tmp_path / "flip.bkio"
    bench.generate(1000, basket_capacity=128, codec=Codec.DEFLATE, out=path)
    data = bytearray(path.read_bytes())
    data[8 + 17] ^= 0xFF  # flip a payload byte in the first basket
    bad = tmp_path / "flipped.bkio"
    bad.write_bytes(bytes(data))
    result = bench.verify(bad)
    assert not result.passed
    assert any("DecompressError" in f for f in result.failures)


def test_verify_samples_large_files(tmp_path):
    path = tmp_path / "big.bkio"
    bench.generate(150_000, out=path)  # above the exhaustive limit
    result = bench.verify(path)
    assert result.passed
    assert "entries cross-checked" in result.checks[0]


# --- CLI ---

def test_cli_generate_run_verify(tmp_path):
    runner = CliRunner()
    path = str(tmp_path / "c.bkio")
    csv = str(tmp_path / "c.csv")
    r = runner.invoke(cli_main, ["generate", "--entries", "2000",
                                 "--basket-entries", "128", "--out", path])
    assert r.exit_code == 0, r.output
    r = runner.invoke(cli_main, ["run", "--file", path,
                                 "--scenario", "bulk,get-entry",
                                 "--repeat", "2", "--csv", csv])
    assert r.exit_code == 0, r.output
    assert "checksum" in r.output
    assert len(open(csv).read().splitlines()) == 5
    r = runner.invoke(cli_main, ["verify", "--file", path])
    assert r.exit_code == 0
    assert r.output.startswith("PASS")


def test_cli_usage_errors(tmp_path):
    runner = CliRunner()
    r = runner.invoke(cli_main, ["run", "--file", "/no/such/file",
                                 "--scenario", "bulk"])
    assert r.exit_code == 2
    path = str(tmp_path / "u.bkio")
    runner.invoke(cli_main, ["generate", "--entries", "10", "--out", path])
    r = runner.invoke(cli_main, ["run", "--file", path,
                                 "--scenario", "warp"])
    assert r.exit_code == 2
    r = runner.invoke(cli_main, ["generate", "--entries", "10",
                                 "--shape", "fixed:x", "--out", path])
    assert r.exit_code == 2


def test_cli_repeat_and_scenario_validation(tmp_path):
    runner = CliRunner()
    path = str(tmp_path / "r.bkio")
    runner.invoke(cli_main, ["generate", "--entries", "10", "--out", path])
    r = runner.invoke(cli_main, ["run", "--file", path, "--scenario", "bulk",
                                 "--repeat", "0"])
    assert r.exit_code == 2
    r = runner.invoke(cli_main, ["run", "--file", path, "--scenario", ","])
    assert r.exit_code == 2


def test_cli_run_all_scenarios(tmp_path):
    runner = CliRunner()
    path = str(tmp_path / "all.bkio")
    runner.invoke(cli_main, ["generate", "--entries", "500",
                             "--basket-entries", "64", "--out", path])
    r = runner.invoke(cli_main, ["run", "--file", path, "--scenario", "all",
                                 "--repeat", "1"])
    assert r.exit_code == 0, r.output
    for sid in ALL_SCENARIOS:
        assert sid in r.output


@pytest.mark.parametrize("shape,elements", [("var", sum(i % 8 for i in range(500))),
                                            ("fixed:3", 1500)])
def test_cli_run_all_scenarios_on_array_files(tmp_path, shape, elements):
    """Every scenario sums every element: one checksum, also on array files."""
    runner = CliRunner()
    path = str(tmp_path / "arr.bkio")
    csv = str(tmp_path / "arr.csv")
    runner.invoke(cli_main, ["generate", "--entries", "500", "--shape", shape,
                             "--basket-entries", "64", "--out", path])
    r = runner.invoke(cli_main, ["run", "--file", path, "--scenario", "all",
                                 "--repeat", "1", "--csv", csv])
    assert r.exit_code == 0, r.output
    rows = [line.split(",") for line in open(csv).read().splitlines()[1:]]
    assert [row[0] for row in rows] == ALL_SCENARIOS
    assert {row[-1] for row in rows} == {repr(bench.ramp_checksum(elements))}


def test_cli_generate_zero_entries_fails(tmp_path):
    runner = CliRunner()
    r = runner.invoke(cli_main, ["generate", "--entries", "0",
                                 "--out", str(tmp_path / "z.bkio")])
    assert r.exit_code == 1


def test_cli_verify_corrupt_exit_1(tmp_path):
    runner = CliRunner()
    path = tmp_path / "v.bkio"
    bench.generate(500, basket_capacity=64, codec=Codec.DEFLATE, out=path)
    data = bytearray(path.read_bytes())
    data[8] ^= 0x55
    bad = tmp_path / "v_bad.bkio"
    bad.write_bytes(bytes(data))
    r = runner.invoke(cli_main, ["verify", "--file", str(bad)])
    assert r.exit_code == 1
    assert "FAIL" in r.output


def test_cli_run_corrupt_deflate_exit_1(tmp_path):
    """A deflate stream that does not inflate stops ``run`` with one
    ``error:`` line and exit 1, in every scenario, whichever reads ahead."""
    path = tmp_path / "r.bkio"
    bench.generate(500, basket_capacity=64, codec=Codec.DEFLATE, out=path)
    data = bytearray(path.read_bytes())
    data[read_footer(path).branches[0].baskets[2].file_offset] = 0xFF  # BTYPE 11
    bad = tmp_path / "r_bad.bkio"
    bad.write_bytes(bytes(data))
    for sid in ALL_SCENARIOS:
        r = CliRunner().invoke(cli_main, ["run", "--file", str(bad),
                                          "--scenario", sid, "--repeat", "1"])
        assert r.exit_code == 1, (sid, r.output)
        errors = [line for line in r.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (sid, r.output)
        assert errors[0].startswith("error: deflate stream error:"), errors


def test_cli_verify_huge_basket_size_exit_1(tmp_path):
    path = tmp_path / "h.bkio"
    bench.generate(500, basket_capacity=64, codec=Codec.DEFLATE, out=path)
    bad = rewrite_basket(path, tmp_path / "h_bad.bkio", 0, 1,
                         compressed_size=2**62)
    r = CliRunner().invoke(cli_main, ["verify", "--file", str(bad)])
    assert r.exit_code == 1
    assert "FAIL" in r.output
    assert "DecompressError" in r.output


def test_cli_verify_deflate_bomb_exit_1(tmp_path):
    bomb = deflate_bomb(tmp_path)
    r = CliRunner().invoke(cli_main, ["verify", "--file", str(bomb)])
    assert r.exit_code == 1
    assert any(line.strip().startswith("FAIL") and "DecompressError" in line
               for line in r.output.splitlines())


def test_cli_shape_variants(tmp_path):
    runner = CliRunner()
    for shape in ("scalar", "fixed:4", "var"):
        out = str(tmp_path / f"{shape.replace(':', '_')}.bkio")
        r = runner.invoke(cli_main, ["generate", "--entries", "300",
                                     "--shape", shape, "--codec", "deflate",
                                     "--out", out])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, ["verify", "--file", out])
        assert r.exit_code == 0
