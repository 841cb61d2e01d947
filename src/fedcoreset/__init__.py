"""Deterministic simulator for coreset-based federated learning.

Clients hold noisy, non-IID shards of a synthetic dataset; the server
guides each client's coreset selection by broadcasting per-class
validation-gradient rows of the softmax layer, and aggregates the clients'
local updates.  Baselines (fedavg, fedprox, skyline, random and
facility-location coresets) run on the same realized data for paired
comparison, with all compute and traffic metered by deterministic counters.
"""

__version__ = "0.1.0"
