"""The benchmark's workloads: each builds one nfdl scenario from a seed.

The benchmark writes the scenario to a JSON file; the measured process only
ever loads that file, so the program sees the generated inputs and nothing
else.  ``scale`` multiplies the workload's length; the benchmark runs at 1.0
and its smoke tests at a tiny fraction.  Builders import nfdl when called,
because the benchmark puts the checkout's ``src`` on the path only after
checking that it is there.

Why each workload is here:

* ``accuracy`` is the paper's accuracy run, nfdl steady state with full
  estimator windows, so estimator, link-RNG and idle-tick changes show on it
  while QoS-only changes should not.
* ``naive`` is the all-pairs baseline the paper compares against; it never
  runs ``NfdlProcess``, so nfdl-only changes should not move it while its
  O(N) per-delivery dispatch work shows.
* ``churn`` runs ``nfdl run`` end to end through election storms, short
  windows, stable-storage recoveries and artifact writing, so QoS, tick and
  artifact changes show on it while estimator changes mostly do not.
"""

from __future__ import annotations

from dataclasses import replace


def accuracy(seed: int, scale: float):
    from nfdl import experiments

    # 5 processes, 30 simulated minutes on the measured lossy network.
    return experiments.accuracy_scenario(
        seed, duration=max(10_000, round(1_800_000 * scale))
    )


def naive(seed: int, scale: float):
    from nfdl import experiments

    # 10 processes, 90 simulated seconds, same network as accuracy.
    scenario = experiments.accuracy_scenario(
        seed, duration=max(10_000, round(90_000 * scale)), n=10
    )
    return replace(scenario, algorithm="naive-reduction")


def churn(seed: int, scale: float):
    from nfdl import experiments

    # 100 processes, a pinned leader crashing for 5 s every 15 s.
    return experiments.speed_scenario(
        seed,
        cycles=max(1, round(3 * scale)),
        n=max(10, round(100 * scale)),
        downtime=5_000,
        spacing=10_000,
    )


# name -> scenario builder taking (seed, scale)
WORKLOADS = {"accuracy": accuracy, "naive": naive, "churn": churn}
