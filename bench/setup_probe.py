"""Time one benchmark set-up in a fresh process.

Usage: python3 bench/setup_probe.py <workload> <seed> <seconds>

Pins the BLAS threads, imports numpy and spdpc, loads the config, samples
and splits the scenarios, draws the deployment inputs and initialises the
policy, exactly as a benchmark run does, then prints ``time.monotonic_ns()``.
The parent subtracts the reading it took before spawning this process.
"""

import sys
import time

import bootstrap


def main() -> None:
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    bootstrap.pin_threads()
    bootstrap.use_checkout_source()
    import workloads
    workloads.setup(name, seed, seconds)
    print(time.monotonic_ns())


if __name__ == "__main__":
    main()
