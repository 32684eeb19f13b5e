#!/usr/bin/env python3
"""Client-server workload demo (Section 3.3's h-store/memcached class).

A server process handles requests from two client processes over
shared-memory "queues" (futex-signalled).  The clients enforce a
request *timeout* — the scenario the paper's timing virtualization
exists for: "client-server workloads would time out as simulated time
advances much more slowly than real time".  Because timeouts here are
evaluated against the *simulated* clock, no request times out even
though the run takes far longer in host time than the timeout allows.

The workload comes from :func:`repro.workloads.server.client_server_threads`;
its :class:`~repro.workloads.server.RequestLog` stamps each request's
issue and reply cycles through the virtualized syscall interface (the
functional stream, like a real binary, cannot see simulated time).

Run:  python examples/client_server.py
"""

from repro import ZSim, westmere
from repro.virt.timing import VirtualClock
from repro.workloads.server import RequestLog, client_server_threads

NUM_CLIENTS = 2
REQUESTS_PER_CLIENT = 8
TIMEOUT_US = 500.0


def main():
    config = westmere(num_cores=4, core_model="simple")
    clock = VirtualClock(config.core.freq_mhz)
    sim = ZSim(config)
    log = RequestLog()
    for thread in client_server_threads(
            num_clients=NUM_CLIENTS, requests_per_client=REQUESTS_PER_CLIENT,
            request_log=log, sim=sim):
        sim.add_thread(thread)
    result = sim.run()

    print("simulated %d requests over %d cycles (%.1f us simulated, "
          "host wall time %.2f s)"
          % (len(log.requests), result.cycles,
             clock.cycles_to_us(result.cycles), result.wall_seconds))
    print()
    for client_id, req, issue, reply in sorted(log.requests):
        expired = clock.timeout_expired(issue, reply, TIMEOUT_US * 1000)
        print("client %d request %d: %8.2f us  %s"
              % (client_id, req, clock.cycles_to_us(reply - issue),
                 "TIMEOUT" if expired else "ok"))
    latencies = log.latencies()
    print()
    print("mean latency %.2f us, max %.2f us"
          % (clock.cycles_to_us(sum(latencies) / len(latencies)),
             clock.cycles_to_us(max(latencies))))
    print("timeouts against the %.0f us simulated-time budget: %d"
          % (TIMEOUT_US, log.timeouts(clock, TIMEOUT_US * 1000)))
    print("(host wall time per request vastly exceeds the timeout — "
          "without timing virtualization every request would expire)")


if __name__ == "__main__":
    main()
