"""System-view virtualization: the simulated machine's /proc and CPUID.

Applications that self-tune to the machine (OpenMP sizing thread pools
from core counts, JVMs reading /proc/cpuinfo, MKL probing CPUID) must see
the *simulated* system, not the host.  The paper redirects /proc and /sys
opens to a pre-generated tree and virtualizes CPUID/getcpu; this module
generates that view from the simulated configuration.
"""

from __future__ import annotations


class SystemView:
    """The guest-visible hardware description of a simulated system."""

    def __init__(self, config):
        self.config = config

    def cpu_count(self):
        """sysconf(_SC_NPROCESSORS_ONLN) for the simulated chip."""
        return self.config.num_cores

    def cpuid(self):
        """A CPUID-like capability dictionary for the simulated chip."""
        cfg = self.config
        return {
            "vendor": "RepSim",
            "model_name": "Simulated %s (%s cores)" % (
                cfg.name, cfg.core.model.upper()),
            "num_cores": cfg.num_cores,
            "freq_mhz": cfg.core.freq_mhz,
            "cache_line_bytes": cfg.l1d.line_bytes,
            "l1d_kb": cfg.l1d.size_kb,
            "l1i_kb": cfg.l1i.size_kb,
            "l2_kb": cfg.l2.size_kb if cfg.l2 else 0,
            "l3_kb": cfg.l3.size_kb,
        }

    def proc_cpuinfo(self):
        """A /proc/cpuinfo-shaped text for the simulated system (what an
        open("/proc/cpuinfo") would be redirected to)."""
        info = self.cpuid()
        blocks = []
        for core in range(self.config.num_cores):
            blocks.append("\n".join([
                "processor\t: %d" % core,
                "vendor_id\t: %s" % info["vendor"],
                "model name\t: %s" % info["model_name"],
                "cpu MHz\t\t: %.3f" % float(info["freq_mhz"]),
                "cache size\t: %d KB" % info["l3_kb"],
                "core id\t\t: %d" % core,
                "cpu cores\t: %d" % info["num_cores"],
            ]))
        return "\n\n".join(blocks) + "\n"

    def proc_tree(self):
        """The pre-generated virtual /proc & /sys tree as a path->content
        mapping (the redirect target for open() virtualization)."""
        cpuinfo = self.proc_cpuinfo()
        online = "0-%d" % (self.config.num_cores - 1)
        return {
            "/proc/cpuinfo": cpuinfo,
            "/sys/devices/system/cpu/online": online + "\n",
            "/sys/devices/system/cpu/possible": online + "\n",
            "/proc/stat": "cpu  0 0 0 0\n" + "".join(
                "cpu%d 0 0 0 0\n" % c
                for c in range(self.config.num_cores)),
        }

    def open_path(self, path):
        """Virtualized open(): return guest-visible content for /proc and
        /sys paths, or None for paths that fall through to the host."""
        return self.proc_tree().get(path)
