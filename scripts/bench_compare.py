#!/usr/bin/env python3
"""Gate serving throughput: reactor req/s against in-process Api::handle.

Reads the JSONL line that bench/micro_serve writes: the reactor's closed
loop over real sockets (bench_rps) and, from the same run, the identical
score request timed through serve::Api::handle on one thread
(bench_inprocess_rps). Exits non-zero when either run failed a request or
completed none, or when the reactor falls below the allowed fraction of the
in-process rate. Both rates come from one process on one host, so the ratio
travels across machines where absolute req/s does not. Latency is reported,
not gated: at CI smoke scale (two shared cores, seconds of wall time) p99
is too noisy to gate on.

Usage:
    bench_compare.py BENCH_serve.json [--min-ratio 1.0]

--min-ratio R  fail unless reactor_rps >= R * inprocess_rps (default 1.0)
"""

import argparse
import json
import sys


def load_record(path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                record = json.loads(line)
                if "bench_rps" in record:
                    return record
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="JSONL from bench/micro_serve")
    parser.add_argument("--min-ratio", type=float, default=1.0,
                        help="reactor_rps >= ratio * inprocess_rps")
    args = parser.parse_args()

    record = load_record(args.bench_json)
    if record is None or "bench_inprocess_rps" not in record:
        print(f"bench_compare: {args.bench_json} has no reactor + "
              f"in-process record", file=sys.stderr)
        return 2

    for name, key in (("reactor", "bench_errors"),
                      ("in-process", "bench_inprocess_errors")):
        if record.get(key, 0) > 0:
            print(f"bench_compare: {name} run had {record[key]:.0f} failed "
                  f"requests", file=sys.stderr)
            return 1

    i_rps, r_rps = record["bench_inprocess_rps"], record["bench_rps"]
    ratio = r_rps / i_rps if i_rps > 0 else float("inf")
    print(f"bench_compare: in-process {i_rps:.0f} req/s vs reactor "
          f"{r_rps:.0f} req/s (p99 {record.get('bench_p99_ms', 0.0):.2f} ms) "
          f"-> ratio {ratio:.2f}")

    if record.get("bench_inprocess_requests", 0) <= 0 or \
            record.get("bench_requests", 0) <= 0:
        print("bench_compare: a run completed no requests", file=sys.stderr)
        return 1
    if ratio < args.min_ratio:
        print(f"bench_compare: FAIL reactor/in-process ratio {ratio:.2f} "
              f"< required {args.min_ratio:.2f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
