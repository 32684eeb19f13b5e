"""Tests for the client-server workload builder."""


from repro.config import westmere
from repro.core import ZSim
from repro.virt.timing import VirtualClock
from repro.workloads.server import RequestLog, client_server_threads


class TestClientServer:
    def run(self, num_clients=2, requests=6, cores=4):
        cfg = westmere(num_cores=cores, core_model="simple")
        sim = ZSim(cfg)
        log = RequestLog()
        for thread in client_server_threads(num_clients=num_clients,
                                            requests_per_client=requests,
                                            request_log=log, sim=sim):
            sim.add_thread(thread)
        result = sim.run()
        return cfg, sim, result, log

    def test_all_requests_served(self):
        _cfg, sim, _res, log = self.run(num_clients=2, requests=6)
        assert len(log.requests) == 12
        assert sim.scheduler.all_done

    def test_latencies_positive_and_bounded(self):
        _cfg, _sim, res, log = self.run()
        latencies = log.latencies()
        assert all(lat >= 0 for lat in latencies)
        assert max(latencies) < res.cycles

    def test_no_timeouts_under_simulated_time(self):
        """The paper's motivation: with virtualized timing, protocol
        timeouts evaluate against simulated time and do not fire."""
        cfg, _sim, _res, log = self.run()
        clock = VirtualClock(cfg.core.freq_mhz)
        assert log.timeouts(clock, timeout_ns=500_000) == 0

    def test_tight_timeout_does_fire(self):
        """Sanity: an absurdly tight budget is detected as expired."""
        cfg, _sim, _res, log = self.run()
        clock = VirtualClock(cfg.core.freq_mhz)
        assert log.timeouts(clock, timeout_ns=1) > 0

    def test_one_process_per_party(self):
        cfg = westmere(num_cores=4, core_model="simple")
        threads = client_server_threads(num_clients=3)
        names = {t.process.name for t in threads}
        assert names == {"server", "client-0", "client-1", "client-2"}
