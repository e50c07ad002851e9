import json
import subprocess
import sys

import pytest

from conftest import cli_env

C4_EDGELIST = "4 4\n0 1\n1 2\n2 3\n3 0\n"
K4_EDGELIST = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
P4_DIMACS = "c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "ifvs", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env(),
    )


def test_yes_instance_exit_zero(tmp_path):
    inst = tmp_path / "c4.txt"
    inst.write_text(C4_EDGELIST)
    proc = run_cli("ifvs", "--k", "1", "--input", str(inst), "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["decision"] == "yes"
    assert len(report["certificate"]) == 1
    assert report["stats"]["dp_cells"] > 0
    assert "ms" in report["stats"]


def test_absent_instance_exit_one():
    proc = run_cli("ifvs", "--k", "5", "--json", stdin=K4_EDGELIST)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["decision"] == "no-ifvs-exists"


def test_no_within_k_distinguished():
    proc = run_cli("ifvs", "--k", "0", "--json", stdin=C4_EDGELIST)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["decision"] == "no-within-k"


def test_fvs_on_forest():
    proc = run_cli("fvs", "--k", "0", "--json", stdin=P4_DIMACS)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["decision"] == "yes" and report["certificate"] == []


def test_usage_errors_exit_two():
    assert run_cli("ifvs", stdin=C4_EDGELIST).returncode == 2  # --k missing
    assert run_cli("ifvs", "--k", "-1", stdin=C4_EDGELIST).returncode == 2
    proc = run_cli("ifvs", "--k", "1", stdin="4 2\n0 1\nbroken\n")
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


NOT_UTF8 = b"3 3\n0 1\n1 2\n2 0\n\xff\xfe\n"  # byte 16 starts no UTF-8 character


@pytest.mark.parametrize(
    "command",
    [
        ("ifvs", "--k", "1", "--input"),
        ("fvs", "--k", "1", "--input"),
        ("oracle", "--input"),
        ("bench", "--spec"),
    ],
)
def test_non_utf8_file_is_a_usage_error(tmp_path, command):
    inst = tmp_path / "bad.txt"
    inst.write_bytes(NOT_UTF8)
    proc = run_cli(*command, str(inst))
    assert proc.returncode == 2
    assert proc.stderr == f"ifvs: error: {inst}: not UTF-8 text (invalid start byte at byte 16)\n"


@pytest.mark.parametrize(
    "errors, message",
    [
        ("surrogateescape", "ifvs: error: line 5: "),
        ("strict", "ifvs: error: stdin: not UTF-8 text"),
    ],
)
def test_non_utf8_stdin_is_a_usage_error(errors, message):
    # the locale picks how stdin decodes: bad bytes escaped, or an error
    proc = subprocess.run(
        [sys.executable, "-m", "ifvs", "ifvs", "--k", "1"],
        input=NOT_UTF8,
        capture_output=True,
        timeout=120,
        env=dict(cli_env(), PYTHONIOENCODING=f"utf-8:{errors}"),
    )
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith(message)


@pytest.mark.parametrize("spec", ["4,10,1,1\n", "n,m,k,reps\n5,4,1,1\n5,4,-1,1\n"])
def test_bench_rejects_a_row_the_solver_rejects(spec):
    proc = run_cli("bench", "--spec", "-", stdin=spec)
    assert proc.returncode == 2
    line = spec.count("\n")
    assert proc.stderr.startswith(f"ifvs: error: spec line {line}: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_text_and_json_agree():
    text = run_cli("ifvs", "--k", "1", stdin=C4_EDGELIST)
    as_json = run_cli("ifvs", "--k", "1", "--json", stdin=C4_EDGELIST)
    assert text.returncode == as_json.returncode == 0
    report = json.loads(as_json.stdout)
    assert "decision: yes" in text.stdout
    assert f"certificate ({len(report['certificate'])})" in text.stdout


def test_trace_goes_to_stderr():
    proc = run_cli("ifvs", "--k", "1", "--trace", stdin=C4_EDGELIST)
    assert proc.returncode == 0
    assert "forest nodes" in proc.stderr and "candidate {" in proc.stderr
    assert "forest nodes" not in proc.stdout


def test_trace_writes_one_line_per_subset_per_call():
    from ifvs import format_edgelist, generate

    # generate(8, 12, 1) at k=8 runs three exact fallbacks, whose
    # candidates are traced when their search ends
    text = format_edgelist(generate(8, 12, 1))
    proc = run_cli("ifvs", "--k", "8", "--json", "--no-timing", "--trace", stdin=text)
    report = json.loads(proc.stdout)
    calls = proc.stderr.split("forest nodes")[1:]
    steps = [s for s in report["steps"] if not s["skipped"]]
    assert len(calls) == len(steps)
    for call, step in zip(calls, steps):
        subsets = [line.split()[1] for line in call.splitlines() if line.startswith("candidate {")]
        assert len(subsets) == len(set(subsets)) == step["candidates"] == 2 ** step["fvs_size"]
    assert proc.stderr.count("fallback(tests=") == report["stats"]["fallbacks"] > 0


BOWTIE_EDGELIST = "5 6\n0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n"


def test_seeded_trace_maps_positions_through_its_order_line():
    # the trace names vertices by insertion position; its first line maps
    # each position to its input id, which gives the certificate
    proc = run_cli("ifvs", "--k", "2", "--trace", "--seed", "7", stdin=BOWTIE_EDGELIST)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("order: ")
    order = [int(v) for v in lines[0].split()[1:]]
    assert sorted(order) == list(range(5))
    last_call = proc.stderr.split("forest nodes")[-1].splitlines()
    winners = [
        line
        for line in last_call
        if line.startswith("candidate {") and "dp_cost=0 " in line and "pruned" not in line
    ]
    members = winners[-1].split()[1].strip("{}").split(",")
    certificate = sorted(order[int(p)] for p in members)
    assert f"certificate ({len(certificate)}): {' '.join(map(str, certificate))}" in proc.stdout
    plain = run_cli("ifvs", "--k", "2", "--trace", stdin=BOWTIE_EDGELIST)
    assert "order:" not in plain.stderr


def test_fvs_kernel_line_lists_the_two_core():
    # a triangle 2-3-4 with the path 0-1-2 hung off it, a pendant 5 on 3
    # and an isolated 6: only the triangle is solved
    text = "7 6\n0 1\n1 2\n2 3\n3 4\n4 2\n3 5\n"
    for flag in ("--trace", "-v"):
        proc = run_cli("fvs", "--k", "1", "--json", flag, stdin=text)
        assert proc.returncode == 0
        kernel = [line for line in proc.stderr.splitlines() if line.startswith("kernel:")]
        assert kernel == ["kernel: 3 of 7 vertices, 3 of 6 edges: 2 3 4"]
        report = json.loads(proc.stdout)
        assert len(report["certificate"]) == 1 and report["certificate"][0] in (2, 3, 4)
        # the steps count the subdivided kernel's 3 + 3 vertices
        assert max(s["prefix"] for s in report["steps"]) == 6
    proc = run_cli("fvs", "--k", "0", "--trace", stdin=P4_DIMACS)
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[0] == "kernel: 0 of 4 vertices, 0 of 3 edges:"


def test_json_certificate_revalidates(tmp_path):
    from ifvs import load_graph, mask_of

    proc = run_cli("ifvs", "--k", "2", "--json", stdin=C4_EDGELIST)
    report = json.loads(proc.stdout)
    g = load_graph(C4_EDGELIST)
    assert g.is_ifvs(mask_of(report["certificate"]))


def test_fallback_counters_are_reported():
    from ifvs import format_edgelist, generate

    # generate(8, 12, 1) sends three candidates to the exact fallback
    text = format_edgelist(generate(8, 12, 1))
    proc = run_cli("ifvs", "--k", "8", "--json", "-v", stdin=text)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    stats, steps = report["stats"], report["steps"]
    assert stats["fallbacks"] > 0
    assert stats["fallback_tests"] >= stats["fallbacks"]
    assert stats["fallback_tests"] == sum(s["fallback_tests"] for s in steps)
    shown = [s for s in steps if s["fallbacks"]]
    assert any(
        f"fallbacks = {s['fallbacks']}, fallback_tests = {s['fallback_tests']}" in proc.stderr
        for s in shown
    )
    plain = run_cli("ifvs", "--k", "8", "--no-timing", stdin=text)
    assert (
        f"fallbacks: {stats['fallbacks']}  fallback_tests: {stats['fallback_tests']}"
        in plain.stdout
    )


def test_bound_pruned_counter_is_reported():
    from ifvs import format_edgelist, generate

    # generate(8, 12, 1) prunes six candidates by the degree bound (three
    # when the bound was a disjoint-cycle packing)
    text = format_edgelist(generate(8, 12, 1))
    proc = run_cli("ifvs", "--k", "8", "--json", "-v", "--trace", stdin=text)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    stats, steps = report["stats"], report["steps"]
    assert stats["bound_pruned"] == sum(s["bound_pruned"] for s in steps) == 6
    assert stats["bound_pruned"] <= stats["pruned"]
    assert all(s["bound_pruned"] <= s["pruned"] for s in steps)
    assert all(
        f"pruned = {s['pruned']}, bound_pruned = {s['bound_pruned']}," in proc.stderr
        for s in steps
        if not s["skipped"]
    )
    assert proc.stderr.count("pruned (bound=") == 6
    plain = run_cli("ifvs", "--k", "8", "--no-timing", stdin=text)
    assert f"pruned: {stats['pruned']}  bound_pruned: 6  " in plain.stdout


def test_gen_is_deterministic_and_forced():
    a = run_cli("gen", "--n", "6", "--m", "7", "--seed", "1")
    b = run_cli("gen", "--n", "6", "--m", "7", "--seed", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    k4 = run_cli("gen", "--n", "4", "--m", "6", "--seed", "5")
    assert k4.stdout.splitlines()[0] == "4 6"
    assert run_cli("gen", "--n", "3", "--m", "9").returncode == 2


def test_output_flag_writes_files(tmp_path):
    dest = tmp_path / "g.txt"
    assert run_cli("gen", "--n", "5", "--m", "4", "--output", str(dest)).returncode == 0
    assert dest.read_text().splitlines()[0] == "5 4"
    spec = tmp_path / "fam.csv"
    spec.write_text("5,4,1,1\n")
    csv_dest = tmp_path / "out.csv"
    assert run_cli("bench", "--spec", str(spec), "--output", str(csv_dest)).returncode == 0
    assert csv_dest.read_text().startswith("n,m,k,decision")


def test_explicit_format_mismatch_fails():
    proc = run_cli("ifvs", "--k", "1", "--format", "dimacs", stdin=C4_EDGELIST)
    assert proc.returncode == 2


def test_gen_output_parses_and_solves():
    g = run_cli("gen", "--n", "8", "--m", "9", "--seed", "2")
    proc = run_cli("ifvs", "--k", "8", "--json", stdin=g.stdout)
    assert proc.returncode in (0, 1)
    json.loads(proc.stdout)


def test_oracle_subcommand():
    proc = run_cli("oracle", stdin=C4_EDGELIST)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"size": 1, "certificate": [0]}
    proc = run_cli("oracle", stdin=K4_EDGELIST)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"absent": True}
    proc = run_cli("oracle", "--problem", "fvs", stdin=K4_EDGELIST)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 2


def test_bench_subcommand(tmp_path):
    spec = tmp_path / "family.csv"
    spec.write_text("n,m,k,reps\n6,6,1,2\n")
    proc = run_cli("bench", "--spec", str(spec), "--seed", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == (
        "n,m,k,decision,cert_size,ms,candidates,dp_cells,ratio,"
        "fallbacks,fallback_tests,pruned,skipped,bound_pruned"
    )
    assert len(lines) == 3


def test_each_counter_has_one_name_in_every_report(tmp_path):
    from ifvs import format_edgelist, generate
    from ifvs.compression import COUNTERS

    text = format_edgelist(generate(8, 12, 1))
    proc = run_cli("ifvs", "--k", "8", "--json", "-v", "--no-timing", stdin=text)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    stats = report["stats"]
    assert list(stats) == list(COUNTERS)
    plain = run_cli("ifvs", "--k", "8", "--no-timing", stdin=text).stdout.splitlines()
    assert plain[-1] == "  ".join(f"{name}: {stats[name]}" for name in COUNTERS)
    spec = tmp_path / "one.csv"
    spec.write_text("8,12,8,1\n")
    header, row = run_cli("bench", "--spec", str(spec), "--seed", "1").stdout.splitlines()
    columns = dict(zip(header.split(","), row.split(","), strict=True))
    for name in COUNTERS:
        assert int(columns[name]) == stats[name], name
    # every step that ran the extension stage names each counter as --json does
    shown = [line for line in proc.stderr.splitlines() if "fvs = " in line]
    steps = [s for s in report["steps"] if not s["skipped"]]
    assert len(shown) == len(steps) > 0
    for line, step in zip(shown, steps):
        assert line.endswith(", ".join(f"{name} = {step[name]}" for name in COUNTERS))


def test_no_timing_strips_ms():
    proc = run_cli("ifvs", "--k", "1", "--json", "--no-timing", stdin=C4_EDGELIST)
    assert "ms" not in json.loads(proc.stdout)["stats"]


def test_threads_flag_rejected():
    # the solver is sequential and takes no thread count
    proc = run_cli("ifvs", "--k", "1", "--threads", "1", stdin=C4_EDGELIST)
    assert proc.returncode == 2
    assert "--threads" in proc.stderr


def test_skip_and_prune_counters_are_reported():
    proc = run_cli("ifvs", "--k", "1", "--json", "-v", stdin=C4_EDGELIST)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    # the first three vertices form a path, so step 3 closes no cycle
    assert report["stats"]["skipped"] == 1
    assert [s["skipped"] for s in report["steps"]] == [True, False]
    assert report["stats"]["pruned"] == sum(s["pruned"] for s in report["steps"])
    assert "step 3: 3 vertices, skipped" in proc.stderr
