#!/usr/bin/env python3
"""Scrape the telemetry plane of a running stindex_server (started with
--metrics-port, typically for a --duration-s run) and assert it is
sane: counters are monotone across scrapes, gauges are finite,
sliding-window percentiles are being published, and /healthz is green.

Usage: scrape_soak.py PORT [--scrapes N] [--interval S]

Exits 0 when every assertion holds over at least N successful scrapes;
prints the violated assertion and exits 1 otherwise. Stdlib only — this
is a CI smoke, it must not need pip.
"""

import argparse
import math
import sys
import time
import urllib.error
import urllib.request


def fetch(port, path, timeout=5.0):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, response.read().decode("utf-8", "replace")


def parse_metrics(text):
    """Prometheus text -> {series_name_with_labels: float}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            raise AssertionError(f"unparseable sample line: {line!r}")
    return samples


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("port", type=int)
    parser.add_argument("--scrapes", type=int, default=3,
                        help="minimum successful scrapes (default 3)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between scrapes (default 1)")
    args = parser.parse_args()

    # Counters must never decrease between scrapes. Everything the
    # registry exports as a counter carries its own # TYPE line, so key
    # off those rather than a hard-coded list.
    counter_names = set()
    previous = {}
    scrapes_done = 0
    saw_window_p95 = False

    while scrapes_done < args.scrapes:
        try:
            status, body = fetch(args.port, "/metrics")
        except (urllib.error.URLError, ConnectionError, TimeoutError) as err:
            print(f"scrape_soak: /metrics scrape failed: {err}",
                  file=sys.stderr)
            return 1
        assert status == 200, f"/metrics returned {status}"

        for line in body.splitlines():
            if line.startswith("# TYPE ") and line.endswith(" counter"):
                counter_names.add(line.split()[2])
        samples = parse_metrics(body)

        for name, value in samples.items():
            assert math.isfinite(value), f"{name} is not finite: {value}"
            base = name.split("{", 1)[0]
            if base in counter_names:
                assert value >= 0, f"counter {name} is negative: {value}"
                if name in previous:
                    assert value >= previous[name], (
                        f"counter {name} went backwards: "
                        f"{previous[name]} -> {value}")
        previous.update(
            {n: v for n, v in samples.items()
             if n.split("{", 1)[0] in counter_names})

        if any(name.endswith('_window{quantile="0.95"}')
               for name in samples):
            saw_window_p95 = True

        health_status, health_body = fetch(args.port, "/healthz")
        assert health_status == 200, (
            f"/healthz returned {health_status}: {health_body.strip()}")

        scrapes_done += 1
        print(f"scrape_soak: scrape {scrapes_done}/{args.scrapes} ok "
              f"({len(samples)} samples, healthz 200)")
        if scrapes_done < args.scrapes:
            time.sleep(args.interval)

    assert saw_window_p95, (
        "no sliding-window p95 series (<name>_window{quantile=\"0.95\"}) "
        "appeared in any scrape")
    print(f"scrape_soak: OK — {scrapes_done} scrapes, counters monotone, "
          "windowed p95 present, healthz green")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"scrape_soak: FAILED: {err}", file=sys.stderr)
        sys.exit(1)
