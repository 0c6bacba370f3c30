//! Property: the multi-tenant plan service never perturbs a tenant.
//!
//! [`PlanService`] shares one deployment, interned routing substrates,
//! and a cross-tenant solve cache ([`m2m_core::memo::SharedSolveCache`])
//! across every admitted query. Corollary 1 makes the per-edge solves
//! pure, so all that sharing must be *unobservable* from inside any one
//! tenant: its plan slab and its round results must be bit-identical to
//! a [`Session`] built in isolation over the same network — for every
//! routing mode, at every thread count, no matter which other tenants
//! were admitted first. Checkpoint/restore must preserve the same
//! guarantee: a restored service replays the original's rounds
//! bit-for-bit from the persisted salt cursors, with zero fresh solves.

use std::collections::BTreeMap;
use std::sync::Arc;

use m2m_core::config::{Config, Runtime};
use m2m_core::service::{PlanService, TenantId, TenantOptions};
use m2m_core::session::Session;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Deployment, Network, RoutingMode};
use proptest::prelude::*;

const MODES: [RoutingMode; 3] = [
    RoutingMode::ShortestPathTrees,
    RoutingMode::SharedSpanningTree,
    RoutingMode::SteinerTrees,
];

fn readings(net: &Network, salt: u64) -> BTreeMap<NodeId, f64> {
    net.nodes()
        .map(|v| {
            let x = f64::from(v.0) * 0.61 + salt as f64 * 0.137;
            (v, x.sin() * 25.0 + f64::from(v.0) * 0.01)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N random specs admitted through one service match N isolated
    /// sessions — plans and round results bit-identical — across all
    /// three routing modes and thread counts 1/2/8.
    #[test]
    fn admitted_tenants_match_isolated_sessions(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        mode_idx in 0usize..3,
        dest_count in 4usize..9,
        sources_per in 3usize..7,
        tenant_count in 2usize..5,
    ) {
        let mode = MODES[mode_idx];
        let net = Arc::new(Network::with_default_energy(
            Deployment::great_duck_island(place_seed),
        ));
        let specs: Vec<_> = (0..tenant_count as u64)
            .map(|i| {
                generate_workload(
                    &net,
                    &WorkloadConfig::paper_default(dest_count, sources_per, wl_seed + i),
                )
            })
            .collect();
        let vals = readings(&net, place_seed);

        for threads in [1usize, 2, 8] {
            let config = Config::builder().threads(threads).build();
            let mut svc = PlanService::with_config(Arc::clone(&net), config.clone());
            let ids: Vec<TenantId> = specs
                .iter()
                .map(|spec| {
                    svc.admit_with(
                        spec.clone(),
                        TenantOptions { mode, ..TenantOptions::default() },
                    )
                    .tenant
                })
                .collect();
            for (spec, &id) in specs.iter().zip(&ids) {
                let mut isolated = Session::builder(Arc::clone(&net), spec.clone())
                    .routing_mode(mode)
                    .config(config.clone())
                    .build();
                prop_assert_eq!(
                    svc.tenant(id).unwrap().maintainer().plan().solutions(),
                    isolated.maintainer().plan().solutions(),
                    "threads {}: tenant {} plan must be bit-identical",
                    threads,
                    id
                );
                let got = svc.run(id, &vals).expect("admitted tenant runs");
                let expect = isolated.run(&vals);
                prop_assert_eq!(
                    got,
                    expect,
                    "threads {}: tenant {} round must be bit-identical",
                    threads,
                    id
                );
            }
            // A clone of the first tenant is served without a single
            // fresh solve — the whole point of the shared substrate.
            let twin = svc.admit_with(
                specs[0].clone(),
                TenantOptions { mode, ..TenantOptions::default() },
            );
            prop_assert!(twin.reused_substrate);
            prop_assert_eq!(twin.solves_fresh, 0u64);
        }
    }

    /// Checkpoint → restore → replay: the restored service resumes every
    /// tenant's salt cursor and replays the original's rounds
    /// bit-identically, without solving anything fresh.
    #[test]
    fn restored_services_replay_bit_identically(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        warmup_rounds in 0usize..4,
        loss_pct in 5u32..35,
    ) {
        let net = Arc::new(Network::with_default_energy(
            Deployment::great_duck_island(place_seed),
        ));
        let delivery = DeliveryModel::uniform(f64::from(loss_pct) / 100.0, 23);
        let mut svc = PlanService::new(Arc::clone(&net));
        let ids: Vec<TenantId> = (0..3u64)
            .map(|i| {
                let spec = generate_workload(
                    &net,
                    &WorkloadConfig::paper_default(5, 4, wl_seed + i),
                );
                svc.admit_with(
                    spec,
                    TenantOptions {
                        runtime: Some(Runtime::Lossy),
                        delivery: delivery.clone(),
                        base_salt: wl_seed ^ 0xa5a5,
                        ..TenantOptions::default()
                    },
                )
                .tenant
            })
            .collect();
        // Advance the tenants' salt streams unevenly before snapshotting.
        let vals = readings(&net, wl_seed);
        for (k, &id) in ids.iter().enumerate() {
            for _ in 0..warmup_rounds + k {
                svc.run(id, &vals).expect("tenant runs");
            }
        }

        let text = svc.checkpoint();
        let mut restored = PlanService::restore(Arc::clone(&net), Config::default(), &text)
            .expect("checkpoint restores");
        prop_assert_eq!(
            restored.solve_cache().lock().unwrap().misses(),
            0,
            "restore must be served entirely from the persisted slabs"
        );
        // Delivery models are runtime config, not plan state: re-apply.
        for &id in &ids {
            restored
                .tenant_mut(id)
                .expect("tenant restored")
                .set_delivery(delivery.clone());
        }
        for &id in &ids {
            prop_assert_eq!(
                restored.tenant(id).unwrap().rounds_run(),
                svc.tenant(id).unwrap().rounds_run(),
                "{} resumes its salt cursor",
                id
            );
            for round in 0..3u64 {
                let a = svc.run(id, &vals).expect("original runs");
                let b = restored.run(id, &vals).expect("restored runs");
                prop_assert_eq!(a, b, "{} round {} replays bit-identically", id, round);
            }
        }
    }
}
