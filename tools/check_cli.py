#!/usr/bin/env python3
"""Exit-code/stream contract check for the scd CLI.

The contract, uniform across every subcommand:
  * requested help (`--help` / `-h`, top level or per command) prints to
    stdout and exits 0;
  * any usage problem (no command, unknown command, unknown flag,
    missing required option) diagnoses on stderr and exits 1, pointing
    the user at --help;
  * runtime/data errors (e.g. a missing input file) exit 2.

Run: check_cli.py /path/to/scd
"""

import json
import os
import re
import struct
import subprocess
import sys
import tempfile

COMMANDS = [
    "generate", "info", "fit", "eval", "resume", "serve", "simulate",
    "run", "trace", "tune",
]

failures = []


def run(args):
    return subprocess.run(args, capture_output=True, text=True)


def check(label, cond, detail=""):
    if not cond:
        failures.append(f"{label}: {detail}")
        print(f"FAIL {label} {detail}")
    else:
        print(f"ok   {label}")


def write_sparse_checkpoint(path, first_index):
    """Write a minimal version-3 (sparse-topr) checkpoint: K = 64, two
    vertices whose rows keep communities {first_index, 17, 40}. A
    first_index >= K (or >= 17) is a row the writer cannot produce."""
    k, n, sparse_topr = 64, 2, 3
    data = struct.pack("<QIQIddddII", 0x5343445F434B5031, 3, 0, k,
                       0.0, 1.0, 1.0, 1e-3, n, sparse_topr)
    row = (struct.pack("<If", 3, 0.01) +
           struct.pack("<3H", first_index, 17, 40) +
           struct.pack("<3f", 0.5, 0.3, 0.19) + struct.pack("<f", 2.0))
    data += (struct.pack("<I", len(row)) + row) * n
    data += struct.pack(f"<{2 * k}d", *([1.0] * (2 * k)))
    with open(path, "wb") as f:
        f.write(data)


def write_v1_checkpoint(path, pi_at=None, theta=None):
    """Write a minimal version-1 (raw float) checkpoint: K = 8, three
    vertices with uniform pi rows. `pi_at` = (vertex, column, value)
    overrides one row entry (column 8 is the phi_sum, 2.0 elsewhere).
    `theta` = (community, slot, value) overrides one theta entry (all
    others are 1.0)."""
    k, n = 8, 3
    data = struct.pack("<QIQIddddI", 0x5343445F434B5031, 1, 0, k,
                       0.0, 1.0, 1.0, 1e-3, n)
    for v in range(n):
        row = [1.0 / k] * k + [2.0]
        if pi_at is not None and pi_at[0] == v:
            row[pi_at[1]] = pi_at[2]
        data += struct.pack(f"<{k + 1}f", *row)
    thetas = [1.0] * (2 * k)
    if theta is not None:
        thetas[theta[0] * 2 + theta[1]] = theta[2]
    data += struct.pack(f"<{2 * k}d", *thetas)
    with open(path, "wb") as f:
        f.write(data)


def perplexity_lines(stdout):
    """(iteration, perplexity) of every `scd run` history line; the
    clock columns between them differ by backend."""
    return [(m.group(1), m.group(2)) for m in re.finditer(
        r"^\s*iter\s+(\d+)\s.*perplexity\s+(\S+)$", stdout, re.M)]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    scd = sys.argv[1]

    r = run([scd])
    check("no-command exits 1", r.returncode == 1, f"exit={r.returncode}")
    check("no-command diagnoses on stderr",
          "error" in r.stderr and "usage" in r.stderr,
          repr(r.stderr[:120]))

    for flag in ("--help", "-h"):
        r = run([scd, flag])
        check(f"top-level {flag} exits 0", r.returncode == 0,
              f"exit={r.returncode}")
        check(f"top-level {flag} prints commands to stdout",
              "commands:" in r.stdout and not r.stderr,
              repr((r.stdout[:80], r.stderr[:80])))

    r = run([scd, "frobnicate"])
    check("unknown command exits 1", r.returncode == 1,
          f"exit={r.returncode}")
    check("unknown command names itself on stderr",
          "frobnicate" in r.stderr and "usage" in r.stderr,
          repr(r.stderr[:120]))
    check("unknown command keeps stdout clean", r.stdout == "",
          repr(r.stdout[:80]))

    for cmd in COMMANDS:
        r = run([scd, cmd, "--help"])
        check(f"{cmd} --help exits 0", r.returncode == 0,
              f"exit={r.returncode}")
        check(f"{cmd} --help prints options to stdout",
              "--" in r.stdout and not r.stderr,
              repr((r.stdout[:80], r.stderr[:80])))

        r = run([scd, cmd, "--definitely-not-a-flag"])
        check(f"{cmd} unknown flag exits 1", r.returncode == 1,
              f"exit={r.returncode}")
        check(f"{cmd} unknown flag points at --help on stderr",
              "--definitely-not-a-flag" in r.stderr and
              f"scd {cmd} --help" in r.stderr,
              repr(r.stderr[:160]))

    # Commands with required options must flag their absence as a usage
    # error (1), not a crash or a runtime error.
    for cmd in ("generate", "info", "fit", "eval", "resume", "serve"):
        r = run([scd, cmd])
        check(f"{cmd} missing required option exits 1",
              r.returncode == 1, f"exit={r.returncode}")
        check(f"{cmd} missing required option diagnoses on stderr",
              "required" in r.stderr, repr(r.stderr[:160]))

    # Runtime/data errors are distinct from usage errors.
    r = run([scd, "serve", "--checkpoint", "/no/such/checkpoint.bin"])
    check("data error exits 2", r.returncode == 2, f"exit={r.returncode}")
    check("data error diagnoses on stderr", "error" in r.stderr,
          repr(r.stderr[:120]))

    # Corrupt inputs are data errors too: refused with 2 and a message,
    # never a crash or a silently reinterpreted value.
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad_index.ckpt")
        write_sparse_checkpoint(bad, first_index=60000)
        r = run([scd, "serve", "--checkpoint", bad])
        check("serve sparse index >= K exits 2", r.returncode == 2,
              f"exit={r.returncode}")
        check("serve sparse index >= K diagnoses on stderr",
              "error" in r.stderr, repr(r.stderr[:160]))

        nan = os.path.join(tmp, "nan_pi.ckpt")
        write_v1_checkpoint(nan, pi_at=(2, 5, float("nan")))
        r = run([scd, "serve", "--checkpoint", nan])
        check("serve NaN pi weight exits 2", r.returncode == 2,
              f"exit={r.returncode}")
        check("serve NaN pi weight diagnoses on stderr",
              "error" in r.stderr and "vertex 2" in r.stderr and
              "community 5" in r.stderr, repr(r.stderr[:160]))

        # Resuming training from rows the SGRLD update cannot continue
        # from is a data error, refused before any iteration runs.
        path3 = os.path.join(tmp, "path3.txt")
        with open(path3, "w") as f:
            f.write("0 1\n1 2\n")
        zero_sum = os.path.join(tmp, "zero_phi_sum.ckpt")
        write_v1_checkpoint(zero_sum, pi_at=(1, 8, 0.0))
        for label, ckpt, where in (
                ("NaN pi weight", nan, "vertex 2 column 5"),
                ("phi_sum = 0", zero_sum, "vertex 1 column 8")):
            r = run([scd, "resume", "--graph", path3, "--checkpoint", ckpt,
                     "--iterations", "2"])
            check(f"resume {label} exits 2", r.returncode == 2,
                  f"exit={r.returncode}")
            check(f"resume {label} diagnoses on stderr",
                  "error" in r.stderr and where in r.stderr,
                  repr(r.stderr[:160]))
            check(f"resume {label} runs no iteration",
                  "resumed" not in r.stdout, repr(r.stdout[:160]))

        nan_theta = os.path.join(tmp, "nan_theta.ckpt")
        write_v1_checkpoint(nan_theta, theta=(3, 1, float("nan")))
        r = run([scd, "serve", "--checkpoint", nan_theta])
        check("serve NaN theta exits 2", r.returncode == 2,
              f"exit={r.returncode}")
        check("serve NaN theta diagnoses on stderr",
              "error" in r.stderr and "community 3 slot 1" in r.stderr,
              repr(r.stderr[:160]))

        good = os.path.join(tmp, "good.ckpt")
        write_sparse_checkpoint(good, first_index=5)
        queries = os.path.join(tmp, "queries.txt")
        with open(queries, "w") as f:
            f.write("link 1 0\n")
        r = run([scd, "serve", "--checkpoint", good, "--queries", queries])
        check("serve valid small checkpoint exits 0", r.returncode == 0,
              f"exit={r.returncode} {r.stderr[:160]!r}")
        with open(queries, "w") as f:
            f.write("link 4294967297 0\n")
        r = run([scd, "serve", "--checkpoint", good, "--queries", queries])
        check("serve 33-bit query operand exits 2", r.returncode == 2,
              f"exit={r.returncode}")
        check("serve 33-bit query operand diagnoses on stderr",
              "error" in r.stderr and "line 1" in r.stderr,
              repr(r.stderr[:160]))
        # A hex operand must be refused, not read as `top 0 0`.
        with open(queries, "w") as f:
            f.write("top 0 0x10\n")
        r = run([scd, "serve", "--checkpoint", good, "--queries", queries])
        check("serve trailing query junk exits 2", r.returncode == 2,
              f"exit={r.returncode}")
        check("serve trailing query junk diagnoses on stderr",
              "error" in r.stderr and "line 1" in r.stderr,
              repr(r.stderr[:160]))
        # 2^32 + 1 must be refused, not narrowed to a one-thread pool.
        with open(queries, "w") as f:
            f.write("link 1 0\n")
        r = run([scd, "serve", "--checkpoint", good, "--queries", queries,
                 "--threads", "4294967297"])
        check("serve 33-bit --threads exits 1", r.returncode == 1,
              f"exit={r.returncode}")
        check("serve 33-bit --threads diagnoses on stderr",
              "threads" in r.stderr, repr(r.stderr[:160]))

        # Synthetic load on three workers: op streams are fixed per
        # (seed, worker), so the checksum repeats run to run, and an fp32
        # refresh rebuilds a bit-identical index, so two mid-load
        # refreshes leave it unchanged and no reader ever stalls. The
        # stream itself is pinned too: a change to which queries a seed
        # issues moves the checksum or the per-kind op counts.
        load = [scd, "serve", "--checkpoint", good, "--ops", "20000",
                "--threads", "3"]
        pinned_checksum = 226868.8600523333
        pinned_counts = {"ops": 20000, "ops_top": 13950, "ops_link": 5014,
                         "ops_members": 1036}
        reports = []
        for label, extra in (("first", []), ("second", []),
                             ("refreshed", ["--refreshes", "2"])):
            r = run(load + ["--json"] + extra)
            check(f"serve --threads 3 {label} load exits 0",
                  r.returncode == 0,
                  f"exit={r.returncode} {r.stderr[:160]!r}")
            try:
                reports.append(json.loads(r.stdout))
            except ValueError:
                reports.append({})
                check(f"serve --threads 3 {label} load prints JSON", False,
                      repr(r.stdout[:160]))
        first, second, refreshed = reports
        got_counts = {key: first.get(key) for key in pinned_counts}
        check("serve --threads 3 per-kind op counts are pinned",
              got_counts == pinned_counts, repr(got_counts))
        check("serve --threads 3 checksum is pinned",
              first.get("checksum") == pinned_checksum,
              repr((first.get("checksum"), pinned_checksum)))
        check("serve --threads 3 checksum repeats",
              "checksum" in first and
              first.get("checksum") == second.get("checksum"),
              repr((first.get("checksum"), second.get("checksum"))))
        check("serve --refreshes 2 publishes two refreshes",
              refreshed.get("refreshes") == 2,
              repr(refreshed.get("refreshes")))
        check("serve --refreshes 2 stalls no reader",
              refreshed.get("reader_stalls") == 0,
              repr(refreshed.get("reader_stalls")))
        check("serve --refreshes 2 keeps the checksum",
              "checksum" in first and
              refreshed.get("checksum") == first.get("checksum"),
              repr((refreshed.get("checksum"), first.get("checksum"))))

    # `scd run` backend selection: an unknown backend is a usage error
    # (1), an unreadable fault plan a data error (2) — the same split
    # every other subcommand follows.
    r = run([scd, "run", "--backend", "bogus"])
    check("run unknown backend exits 1", r.returncode == 1,
          f"exit={r.returncode}")
    check("run unknown backend diagnoses on stderr", "bogus" in r.stderr,
          repr(r.stderr[:120]))
    r = run([scd, "run", "--backend", "sim", "--fault-plan",
             "/no/such/plan.json"])
    check("run missing fault plan exits 2", r.returncode == 2,
          f"exit={r.returncode}")
    check("run missing fault plan diagnoses on stderr",
          "error" in r.stderr, repr(r.stderr[:120]))

    # A tune workload no probe can price is a usage error (1) naming the
    # field, refused before the first probe runs.
    for flag, value, field in (("--sat-vertices", "inf", "sat_vertices"),
                               ("--avg-degree", "1e300", "avg_degree")):
        r = run([scd, "tune", flag, value])
        check(f"tune {flag} {value} exits 1", r.returncode == 1,
              f"exit={r.returncode}")
        check(f"tune {flag} {value} names {field} on stderr",
              field in r.stderr, repr(r.stderr[:160]))

    # A non-finite step size is a usage error (1) naming the field,
    # refused before the sampler starts (it used to abort inside a
    # kernel, exit 134). An edge list with junk glued to an endpoint is a
    # data error (2) naming the line.
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "g.txt")
        r = run([scd, "generate", "--vertices", "60", "--communities", "2",
                 "--out", good])
        check("generate small graph exits 0", r.returncode == 0,
              f"exit={r.returncode}")
        for value in ("inf", "nan"):
            r = run([scd, "fit", "--graph", good, "--communities", "2",
                     "--iterations", "5", "--threads", "1",
                     "--step-a", value])
            check(f"fit --step-a {value} exits 1", r.returncode == 1,
                  f"exit={r.returncode} {r.stderr[:160]!r}")
            check(f"fit --step-a {value} names a on stderr",
                  "step-size a" in r.stderr, repr(r.stderr[:160]))
        for junk in ("1 2x", "1 2.5", "1 0x10"):
            bad = os.path.join(tmp, "bad.txt")
            with open(bad, "w") as f:
                f.write(f"# header\n3 4\n{junk}\n")
            r = run([scd, "info", "--graph", bad])
            check(f"info on '{junk}' exits 2", r.returncode == 2,
                  f"exit={r.returncode}")
            check(f"info on '{junk}' names line 3 on stderr",
                  "line 3" in r.stderr, repr(r.stderr[:160]))

    # Redo-in-place crash recovery (no rollback) runs on both backends,
    # pipelined or not, and lands on the same numbers: the proc heir reads
    # the live rows, and the deploy prefetched before the crash is dropped.
    with tempfile.TemporaryDirectory() as tmp:
        plan = os.path.join(tmp, "crash.json")
        with open(plan, "w") as f:
            f.write('{"seed": 5, "crashes": '
                    '[{"rank": 1, "at_iteration": 6, "at_point": 1}]}\n')
        runs = {}
        for backend in ("sim", "proc"):
            for pipeline in (True, False):
                name = f"{backend}{'' if pipeline else ' --no-pipeline'}"
                r = run([scd, "run", "--backend", backend, "--workers", "2",
                         "--iterations", "20", "--fault-plan", plan,
                         "--rollback-interval", "0"] +
                        ([] if pipeline else ["--no-pipeline"]))
                check(f"run {name} crash plan without rollback exits 0",
                      r.returncode == 0,
                      f"exit={r.returncode} {r.stderr[:160]!r}")
                runs[name] = perplexity_lines(r.stdout)
        check("run crash plan without rollback prints perplexities",
              len(runs["sim"]) > 0, repr(runs["sim"]))
        for name, lines in runs.items():
            check(f"run crash plan without rollback: {name} perplexities"
                  " == sim", lines == runs["sim"], repr((lines, runs["sim"])))

    # `scd fit` results do not depend on the thread count: the same seed
    # and iterations write byte-identical checkpoints at 1 and 3 threads.
    with tempfile.TemporaryDirectory() as tmp:
        edges = os.path.join(tmp, "planted.txt")
        r = run([scd, "generate", "--vertices", "300", "--communities", "6",
                 "--degree", "10", "--seed", "4", "--out", edges])
        check("generate small planted graph exits 0", r.returncode == 0,
              f"exit={r.returncode} {r.stderr[:160]!r}")
        checkpoints = {}
        for threads in ("1", "3"):
            out = os.path.join(tmp, f"fit{threads}.bin")
            r = run([scd, "fit", "--graph", edges, "--communities", "6",
                     "--iterations", "400", "--heldout", "100",
                     "--seed", "9", "--threads", threads,
                     "--checkpoint-out", out])
            check(f"fit --threads {threads} exits 0", r.returncode == 0,
                  f"exit={r.returncode} {r.stderr[:160]!r}")
            if os.path.exists(out):
                with open(out, "rb") as f:
                    checkpoints[threads] = f.read()
        check("fit --threads 1 and 3 write byte-identical checkpoints",
              len(checkpoints) == 2 and
              checkpoints["1"] == checkpoints["3"],
              repr({t: len(b) for t, b in checkpoints.items()}))

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall CLI contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
