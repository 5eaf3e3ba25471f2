//! Smoke: a composed kernel with `Custom("fused")` intermediates tunes
//! end-to-end, stays bit-exact, and passes the static verifier.

use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_exec::{estimate_breakdown, summarize};
use tir_tensorize::builtin_registry;
use tir_workloads::{fuse_epilogue, gmm, Epilogue};

#[test]
fn fused_scope_composition_tunes_end_to_end() {
    let dt = DataType::float16();
    let anchor = gmm(64, 64, 64, dt, dt);
    let fused = fuse_epilogue(
        &anchor,
        &[Epilogue::BiasAdd, Epilogue::Relu],
        "gmm_bias_relu",
    );
    let machine = Machine::sim_gpu();
    let reg = builtin_registry();
    let opts = TuneOptions {
        trials: 16,
        ..Default::default()
    };
    let r = tune_workload(&fused, &machine, &reg, Strategy::TensorIr, &opts);
    let best = r.best.expect("tensorized fused candidate");
    tir_analysis::verify_scheduled(&best).expect("fused best passes the static verifier");
    tir_exec::assert_same_semantics(&fused, &best, 1, 0.0);
    let bd = estimate_breakdown(&summarize(&best), &machine);
    println!("fused best {:?} total {}", bd, bd.total());
    // Compare against anchor alone:
    let ra = tune_workload(&anchor, &machine, &reg, Strategy::TensorIr, &opts);
    println!(
        "anchor best_time {} fused best_time {}",
        ra.best_time, r.best_time
    );
    assert!(
        r.best_time < ra.best_time + 4e-6,
        "fused must not pay a second launch"
    );
}

/// Simulated time is a pure function of the program: every fresh summary
/// of a fused kernel (global + shared + `Custom("fused")` traffic, three
/// finite memory terms) must estimate to the same bits. The summary's
/// maps are ordered (`BTreeMap`) for exactly this reason: when they were
/// `HashMap`s, each with its own iteration order, a sum taken in map order
/// gave two different readings of this kernel.
#[test]
fn fused_kernel_time_is_bit_reproducible() {
    let dt = DataType::float16();
    let fused = fuse_epilogue(
        &gmm(96, 96, 96, dt, dt),
        &[Epilogue::AddInput, Epilogue::Relu],
        "gmm_add_relu",
    );
    let machine = Machine::sim_gpu();
    let opts = TuneOptions {
        trials: 16,
        seed: 0,
        ..Default::default()
    };
    let r = tune_workload(
        &fused,
        &machine,
        &builtin_registry(),
        Strategy::TensorIr,
        &opts,
    );
    let best = r.best.expect("tensorized fused candidate");

    // The kernel must be one whose memory terms are order-sensitive, or
    // the loop below proves nothing: sum them in every order.
    let terms: Vec<f64> = summarize(&best)
        .traffic
        .iter()
        .filter_map(|(scope, bytes)| match scope {
            tir::MemScope::Global => Some(bytes / (machine.global_bw_gbps * 1e9)),
            tir::MemScope::Shared | tir::MemScope::Custom(_) => {
                Some(bytes / (machine.shared_bw_gbps * 1e9))
            }
            _ => None,
        })
        .collect();
    assert_eq!(terms.len(), 3, "expected global + shared + fused traffic");
    let orders = [[0, 1, 2], [0, 2, 1], [1, 2, 0]];
    let sums: std::collections::BTreeSet<u64> = orders
        .iter()
        .map(|o| (0.0 + terms[o[0]] + terms[o[1]] + terms[o[2]]).to_bits())
        .collect();
    assert!(
        sums.len() > 1,
        "kernel is not order-sensitive any more; pick another shape"
    );

    let first = estimate_breakdown(&summarize(&best), &machine);
    for i in 0..1000 {
        let again = estimate_breakdown(&summarize(&best), &machine);
        assert_eq!(
            (first.compute_s.to_bits(), first.memory_s.to_bits()),
            (again.compute_s.to_bits(), again.memory_s.to_bits()),
            "summary {i} estimated differently: {first:?} vs {again:?}"
        );
    }
}
