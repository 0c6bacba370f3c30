//! Property: parallel plan builds are bit-identical to serial builds.
//!
//! Theorem 1 lets the optimizer solve every single-edge problem
//! independently; the worker pool ([`m2m_core::parallel`]) exploits this
//! but must not change *anything* observable — same per-edge solutions,
//! same total cost, same repair count — at any thread count, over any
//! deployment and workload. The memoized build path must coincide too.

use m2m_core::memo::SharedSolveCache;
use m2m_core::plan::GlobalPlan;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_builds_are_bit_identical_to_serial(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        dest_count in 4usize..16,
        sources_per in 3usize..12,
        shared_tree in proptest::arbitrary::any::<bool>(),
    ) {
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        let spec = generate_workload(
            &net,
            &WorkloadConfig::paper_default(dest_count, sources_per, wl_seed),
        );
        let mode = if shared_tree {
            RoutingMode::SharedSpanningTree
        } else {
            RoutingMode::ShortestPathTrees
        };
        let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);

        let serial = GlobalPlan::build_with_threads(&net, &spec, &routing, 1);
        for threads in [2usize, 8] {
            let parallel = GlobalPlan::build_with_threads(&net, &spec, &routing, threads);
            prop_assert_eq!(parallel.solutions(), serial.solutions(), "threads = {}", threads);
            prop_assert_eq!(parallel.problems(), serial.problems(), "threads = {}", threads);
            prop_assert_eq!(
                parallel.total_payload_bytes(),
                serial.total_payload_bytes(),
                "threads = {}", threads
            );
            prop_assert_eq!(parallel.repair_count(), serial.repair_count(), "threads = {}", threads);
        }

        // The memoized path coincides as well — cold, then fully warm.
        let mut cache = SharedSolveCache::new();
        let cold = GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        prop_assert_eq!(cold.solutions(), serial.solutions());
        prop_assert_eq!(cold.repair_count(), serial.repair_count());
        let warm = GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        prop_assert_eq!(warm.solutions(), serial.solutions());
        prop_assert!(cache.hits() > 0, "second identical build must hit the cache");
    }
}
