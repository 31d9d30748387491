"""duqusim: deterministic replay of a driver-level injection and its monitor.

A bit-exact PE32 parser, a small simulated OS with permissioned virtual
memory and driver notifications, a replica of the injecting driver, the
checksum monitor that detects it, and a scenario runner that reproduces
the whole exchange as a stable text transcript.
"""

__version__ = "0.1.0"
