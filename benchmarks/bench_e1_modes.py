"""E1 — Figure 1: the mode-transition diagram.

Regenerates, from live executions under random fault schedules, the
transition matrix of the three-mode automaton and checks it is exactly
the six labelled edges of Figure 1 (plus the initial Join pseudo-edge).
Every one of the six edges must actually be exercised, including the
S -> S Reconfigure that models overlapping reconstruction instances.
"""

from __future__ import annotations

from repro.analysis import FIGURE_1_EDGES, TransitionMatrix, transition_matrix
from repro.apps.replicated_file import ReplicatedFile
from repro.ports import make_cluster
from repro.workload import Table, run_checked_workload
from repro.workload.generator import RandomFaultGenerator

N_SITES = 5
SEEDS = range(12)


def run_experiment() -> dict[tuple[str, str, str], int]:
    matrix = TransitionMatrix()
    votes = {s: 1 for s in range(N_SITES)}
    for seed in SEEDS:
        gen = RandomFaultGenerator(n_sites=N_SITES, seed=seed, duration=350)
        cluster = make_cluster(
            "sim", N_SITES, lambda pid: ReplicatedFile(votes), seed=seed
        )
        run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail)
        cluster.run_for(200)
        matrix = matrix.merge(transition_matrix(cluster.recorder))
    return matrix.counts


def test_e1_mode_transitions(benchmark):
    counts = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        "E1 / Figure 1 — observed mode transitions "
        f"({N_SITES} sites, {len(list(SEEDS))} random schedules)",
        ["transition", "edge", "count", "in Figure 1?"],
    )
    for (label, old, new), count in sorted(counts.items()):
        edge = f"{old or '-'} -> {new}"
        legal = (label, old, new) in FIGURE_1_EDGES or label == "Join"
        table.add(label, edge, count, "yes" if legal else "NO")
    table.show()

    observed_edges = {k for k in counts if k[0] != "Join"}
    # Soundness: nothing outside Figure 1 ever happens.
    assert observed_edges <= FIGURE_1_EDGES, observed_edges - FIGURE_1_EDGES
    # Coverage: the schedules exercised every edge of the figure.
    missing = FIGURE_1_EDGES - observed_edges
    assert not missing, f"edges never exercised: {missing}"
