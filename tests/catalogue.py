"""The protocol configurations, networks and fault helper that several test
modules build scenarios from.  Each module's ``scenario()`` builder keeps
its own defaults."""

from nfdl.protocol import ProtocolConfig
from nfdl.simnet import FaultEvent, NetworkModel

CFG = ProtocolConfig(eta=330, alpha=670, window_n=100)
QUIET = NetworkModel(loss_prob=0.0, delay_mean=5.0, delay_var=0.0, delay_dist="constant")
LOSSY = NetworkModel(
    loss_prob=0.0175917, delay_mean=5.0, delay_var=25.3356, delay_dist="normal"
)
INSTANT = NetworkModel(loss_prob=0.0, delay_mean=0.0, delay_var=0.0, delay_dist="constant")
UNIFORM = NetworkModel(loss_prob=0.01, delay_mean=6.0, delay_var=9.0, delay_dist="uniform")
# Delay jitter far beyond eta: arrivals overtake each other and a delivery
# can move a freshness deadline earlier, not only later.
JITTERY = NetworkModel(loss_prob=0.05, delay_mean=40.0, delay_var=900.0, delay_dist="normal")


def crash_recover(pid, down, up):
    return (FaultEvent(down, pid, "crash"), FaultEvent(up, pid, "recover"))
