"""Distributed model training with on-path gradient aggregation.

The paper's intro lists deep learning frameworks among the
partition/aggregation applications NetAgg targets: data-parallel
training sums per-worker gradients every step.  This example trains a
linear model twice -- gradients merged centrally vs through the NetAgg
platform's aggregation trees -- and shows the learned weights and loss
curves agree to rounding error while the master receives one aggregated
vector per step instead of one per worker.

Run:  python examples/gradient_aggregation.py
"""

from repro.aggregation import deploy_boxes
from repro.apps.mlgrad import (
    make_regression_data,
    netagg_aggregator,
    train,
)
from repro.core import NetAggPlatform
from repro.report import sparkline
from repro.topology import ThreeTierParams, three_tier

TRUE_WEIGHTS = [1.5, -2.0, 0.75, 0.0]
WORKER_HOSTS = ["host:1", "host:4", "host:8", "host:12"]


def main():
    rows = make_regression_data(800, TRUE_WEIGHTS, noise=0.05, seed=9)
    shards = [rows[i::4] for i in range(4)]

    central = train(shards, n_features=len(TRUE_WEIGHTS),
                    iterations=120, learning_rate=0.1)

    topo = three_tier(ThreeTierParams(
        n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2,
        hosts_per_tor=4,
    ))
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    aggregate = netagg_aggregator(platform, "host:0", WORKER_HOSTS)
    on_path = train(shards, n_features=len(TRUE_WEIGHTS),
                    iterations=120, learning_rate=0.1,
                    aggregate=aggregate)

    print("true weights   :", [f"{w:+.3f}" for w in TRUE_WEIGHTS])
    print("central        :", [f"{w:+.3f}" for w in central.weights],
          f"loss {central.final_loss:.5f}")
    print("via agg boxes  :", [f"{w:+.3f}" for w in on_path.weights],
          f"loss {on_path.final_loss:.5f}")
    drift = max(abs(a - b)
                for a, b in zip(central.weights, on_path.weights))
    print(f"max weight drift between paths: {drift:.2e} "
          "(float reordering only)")
    print("loss curve     :", sparkline(on_path.losses[:60]))

    # Boxes forget a request once it is answered; its tree is the record.
    tree, = platform.build_trees("grad-step-0", "host:0", WORKER_HOSTS)
    boxes_used = len(tree.boxes)
    print(f"\neach of the 120 steps aggregated 4 gradients through "
          f"{boxes_used} agg boxes; the master received 1 vector/step")
    assert drift < 1e-9


if __name__ == "__main__":
    main()
