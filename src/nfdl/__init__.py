"""Uptime-priority leader election with QoS-measurable heartbeat monitoring.

The package splits into protocol machinery (``protocol``, ``estimator``,
``stable_store``), a deterministic discrete-event simulator (``simnet``),
metric extraction and configuration (``qos``), canned measurement
scenarios (``experiments``) and a command-line front end (``cli``).

The package root re-exports nothing and imports no module: import names
from their module, as in ``from nfdl.qos import build_report``.
"""
