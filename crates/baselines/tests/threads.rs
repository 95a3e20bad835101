//! The min-cut sweep takes its worker count from the process-global
//! thread knob that `--threads N` sets. A test binary of its own, so no
//! other test races on the global.

use graphio_baselines::convex_mincut::ConvexMinCutOptions;
use graphio_linalg::threads::{effective_threads, set_threads};

#[test]
fn sweep_workers_follow_the_global_thread_knob() {
    set_threads(1);
    assert_eq!(ConvexMinCutOptions::default().threads, 1);
    for n in [10, 5_000, 200_000] {
        assert_eq!(ConvexMinCutOptions::for_graph_size(n).threads, 1, "n={n}");
    }
    set_threads(3);
    assert_eq!(ConvexMinCutOptions::for_graph_size(10).threads, 3);
    set_threads(0);
    assert_eq!(
        ConvexMinCutOptions::default().threads,
        effective_threads(),
        "Auto resolves to the machine's parallelism"
    );
}
