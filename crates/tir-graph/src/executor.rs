//! End-to-end model evaluation over the fused dataflow graph.
//!
//! [`evaluate_model`] runs fusion, tunes every distinct fused kernel, and
//! aggregates latency plus tuning cost; [`evaluate_model_unfused`] is the
//! one-kernel-per-node baseline the fusion win is measured against. All
//! tuning routes through a [`TuningDatabase`] keyed by the
//! literal-preserving workload fingerprint, so structurally identical
//! kernels are tuned once — by *shape*, not by name — and a later
//! [`compile_model_with`] of the same model re-measures nothing.

use tir_autoschedule::{Strategy, TuneOptions, TuningDatabase};
use tir_exec::machine::Machine;
use tir_exec::{estimate_breakdown, summarize, TimeBreakdown};
use tir_tensorize::IntrinRegistry;
use tir_trace::{Key, TraceReport};

use crate::fusion::{fuse_graph, singleton_groups, FusionGroup};
use crate::layer::{LayerKind, ModelSpec};

/// A malformed model graph: evaluation refuses to guess.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// A tensor-compute node carries no workload function (or an
    /// elementwise node carries no [`crate::layer::EltwiseOp`]): its time
    /// cannot be modeled, and silently charging zero would fabricate an
    /// end-to-end win.
    MissingFunc {
        /// Name of the offending node.
        node: String,
        /// Its operator family.
        kind: LayerKind,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::MissingFunc { node, kind } => write!(
                f,
                "node `{node}` of kind {kind:?} has no workload to model; \
                 a {kind:?} node must carry a PrimFunc (or an elementwise op)"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Per-group tuning outcome (one fused kernel, or one unfused node).
#[derive(Clone, Debug)]
pub struct GroupResult {
    /// Kernel name: anchor name plus one suffix per fused op.
    pub name: String,
    /// Names of the member nodes (anchor first).
    pub members: Vec<String>,
    /// Operator family of the anchor.
    pub kind: LayerKind,
    /// Time of one instance, seconds.
    pub time_s: f64,
    /// Occurrences in the network.
    pub count: i64,
    /// Tuning cost spent on this group (0 for roofline rows and for rows
    /// served warm from the tuning database), seconds.
    pub tuning_cost_s: f64,
    /// Measurement trials spent (0 for warm rows).
    pub trials: usize,
    /// Whether the tuning database served this group's kernel warm (an
    /// earlier group with the same workload fingerprint tuned it). Warm
    /// rows carry `tuning_cost_s: 0.0, trials: 0` so `per_group` sums
    /// reconcile with [`ModelResult::tuning_cost_s`].
    pub cache_hit: bool,
    /// Number of elementwise ops fused into this kernel.
    pub fused_ops: usize,
    /// Launch overhead eliminated by fusion, per instance, seconds.
    pub saved_launch_s: f64,
    /// DRAM-traffic time eliminated by fusion, per instance, seconds.
    pub saved_traffic_s: f64,
    /// Roofline attribution of the kernel this group runs (the tuned best
    /// for tuned groups, the bandwidth model for roofline groups).
    pub breakdown: Option<TimeBreakdown>,
}

/// End-to-end outcome for one model under one strategy.
#[derive(Clone, Debug)]
pub struct ModelResult {
    /// Model name.
    pub model: String,
    /// End-to-end latency of one inference, seconds.
    pub latency_s: f64,
    /// Total tuning wall-clock (Table 1's quantity), seconds. Equals the
    /// sum of `per_group` tuning costs: warm rows charge zero.
    pub tuning_cost_s: f64,
    /// Total measurement trials. Equals the sum of `per_group` trials.
    pub trials: usize,
    /// Per-group breakdown, in graph order.
    pub per_group: Vec<GroupResult>,
    /// Merged observability report, when `opts.trace` held an enabled
    /// collector: one `graph.layer.<name>` span per group (tuning cost +
    /// trials), plus every `search.*`/`measure.*` event the per-group
    /// tunings emitted. `None` when tracing was off.
    pub trace: Option<TraceReport>,
}

impl ModelResult {
    /// Launch overhead fusion eliminated across one inference, seconds.
    pub fn saved_launch_s(&self) -> f64 {
        self.per_group
            .iter()
            .map(|g| g.saved_launch_s * g.count as f64)
            .sum()
    }

    /// DRAM-traffic time fusion eliminated across one inference, seconds.
    pub fn saved_traffic_s(&self) -> f64 {
        self.per_group
            .iter()
            .map(|g| g.saved_traffic_s * g.count as f64)
            .sum()
    }
}

fn validate(model: &ModelSpec) -> Result<(), ModelError> {
    for node in &model.nodes {
        let modeled = match node.kind {
            LayerKind::Memory => true,
            LayerKind::Elementwise => node.eltwise.is_some(),
            _ => node.func.is_some(),
        };
        if !modeled {
            return Err(ModelError::MissingFunc {
                node: node.name.clone(),
                kind: node.kind,
            });
        }
    }
    Ok(())
}

/// Tunes and evaluates a model end to end after running the fusion pass.
///
/// Fresh tuning database; see [`evaluate_model_with`] to share one across
/// calls (e.g. evaluate-then-compile without re-measuring).
///
/// # Errors
///
/// Returns [`ModelError::MissingFunc`] for a compute node with nothing to
/// model (instead of silently charging zero time).
pub fn evaluate_model(
    model: &ModelSpec,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
    opts: &TuneOptions,
) -> Result<ModelResult, ModelError> {
    evaluate_model_with(
        model,
        machine,
        intrins,
        strategy,
        opts,
        &mut TuningDatabase::new(),
        true,
    )
}

/// [`evaluate_model`] with fusion disabled: every node is its own kernel,
/// elementwise work pays a launch and full DRAM round-trips. The baseline
/// side of the fused-vs-unfused comparison.
///
/// # Errors
///
/// Same contract as [`evaluate_model`].
pub fn evaluate_model_unfused(
    model: &ModelSpec,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
    opts: &TuneOptions,
) -> Result<ModelResult, ModelError> {
    evaluate_model_with(
        model,
        machine,
        intrins,
        strategy,
        opts,
        &mut TuningDatabase::new(),
        false,
    )
}

/// Evaluates a model against a caller-owned [`TuningDatabase`]. Every
/// kernel is keyed by its workload key
/// ([`tir_autoschedule::workload_key`]): two same-named nodes with
/// different shapes tune separately, identical shapes are served warm
/// regardless of name, and the database can be reused across models,
/// strategies, and [`compile_model_with`] calls.
///
/// # Errors
///
/// Same contract as [`evaluate_model`].
pub fn evaluate_model_with(
    model: &ModelSpec,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
    opts: &TuneOptions,
    db: &mut TuningDatabase,
    fuse: bool,
) -> Result<ModelResult, ModelError> {
    validate(model)?;
    let trace = opts.trace.as_deref().filter(|c| c.is_enabled());
    let stream = trace.map_or(0, |c| c.stream(&model.name));
    let groups = if fuse {
        fuse_graph(model)
    } else {
        singleton_groups(model)
    };
    let launch_s = machine.launch_overhead_us * 1e-6;
    let global_bw = machine.global_bw_gbps * 1e9;
    let mut per_group = Vec::new();
    let mut latency = 0.0;
    let mut tuning = 0.0;
    let mut trials = 0;
    for (idx, g) in groups.iter().enumerate() {
        let (time_s, tune_s, g_trials, cache_hit, breakdown) = match &g.func {
            Some(func) => {
                let hits_before = db.hits();
                let r = db.tune_cached(func, machine, intrins, strategy, opts);
                let cache_hit = db.hits() > hits_before;
                let fallback = g.macs / machine.scalar_peak() + launch_s;
                let (t, breakdown) = match &r.best {
                    Some(best) => (
                        r.best_time,
                        Some(estimate_breakdown(&summarize(best), machine)),
                    ),
                    None => (fallback, None),
                };
                (
                    t,
                    r.tuning_cost_s,
                    r.trials_measured + r.wasted_measurements,
                    cache_hit,
                    breakdown,
                )
            }
            // Memory-bound work without a kernel of its own: one
            // bandwidth-roofline pass plus a launch. (Only fusion — not a
            // modeling fiat — removes launches now.)
            None => {
                let memory_s = g.min_bytes / global_bw;
                let breakdown = TimeBreakdown {
                    compute_s: 0.0,
                    memory_s,
                    launch_s,
                };
                (breakdown.total(), 0.0, 0, false, Some(breakdown))
            }
        };
        if let Some(c) = trace {
            // One span per group row, keyed by group position so the
            // report is deterministic. Rolls up the group's tuning cost;
            // the detailed search.*/measure.* spans of the tuning itself
            // share the collector and appear alongside.
            c.span(
                &format!("graph.layer.{}", g.name),
                Key::coord(stream, idx as u64, 0),
                tune_s,
                g_trials as u64,
            );
            if cache_hit {
                c.count("graph.layer_cache_hits", 1);
            }
            if g.saved_launches > 0 {
                c.count("graph.fused_ops", g.saved_launches as u64);
            }
        }
        latency += time_s * g.count as f64;
        tuning += tune_s;
        trials += g_trials;
        per_group.push(GroupResult {
            name: g.name.clone(),
            members: std::iter::once(g.anchor)
                .chain(g.fused.iter().copied())
                .map(|id| model.nodes[id].name.clone())
                .collect(),
            kind: g.kind,
            time_s,
            count: g.count,
            tuning_cost_s: tune_s,
            trials: g_trials,
            cache_hit,
            fused_ops: g.saved_launches,
            saved_launch_s: g.saved_launches as f64 * launch_s,
            saved_traffic_s: g.saved_bytes / global_bw,
            breakdown,
        });
    }
    Ok(ModelResult {
        model: model.name.clone(),
        latency_s: latency,
        tuning_cost_s: tuning,
        trials,
        per_group,
        trace: trace.map(|c| c.report()),
    })
}

/// The deployable artifact of [`compile_model_with`]: tuned fused kernels
/// plus what producing them cost.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    /// One optimized `PrimFunc` per distinct fused group, keyed by group
    /// name.
    pub module: tir::IrModule,
    /// Tuning wall-clock spent by this compile (0 when every kernel was
    /// served warm), seconds.
    pub tuning_cost_s: f64,
    /// Measurements performed by this compile (0 when served warm).
    pub trials: usize,
}

/// Compiles a model into tuned fused kernels against a caller-owned
/// [`TuningDatabase`]. Kernels already in the database — from a previous
/// compile or an [`evaluate_model_with`] run — are reused without
/// re-measuring: the second compile of a model performs zero trials.
///
/// # Errors
///
/// Same contract as [`evaluate_model`].
pub fn compile_model_with(
    model: &ModelSpec,
    machine: &Machine,
    intrins: &IntrinRegistry,
    strategy: Strategy,
    opts: &TuneOptions,
    db: &mut TuningDatabase,
) -> Result<CompiledModel, ModelError> {
    validate(model)?;
    let mut module = tir::IrModule::new();
    let mut seen = std::collections::HashSet::new();
    let mut tuning_cost_s = 0.0;
    let mut trials = 0;
    for g in fuse_graph(model) {
        let FusionGroup {
            func: Some(func), ..
        } = &g
        else {
            continue;
        };
        if !seen.insert(g.name.clone()) {
            continue;
        }
        let r = db.tune_cached(func, machine, intrins, strategy, opts);
        tuning_cost_s += r.tuning_cost_s;
        trials += r.trials_measured + r.wasted_measurements;
        let mut best = r.best.unwrap_or_else(|| func.clone());
        best.name = g.name.clone();
        module.add(best);
    }
    Ok(CompiledModel {
        module,
        tuning_cost_s,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{EltwiseOp, LayerKind, OpNode};
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    /// A tiny model whose matmul anchors a bias+relu chain, plus an
    /// unfusible softmax lump.
    fn toy_model() -> ModelSpec {
        let dt = DataType::float16();
        ModelSpec {
            name: "toy".into(),
            dtype: dt,
            nodes: vec![
                OpNode::compute(
                    "mm",
                    LayerKind::Dense,
                    tir_workloads::gmm(128, 128, 128, dt, dt),
                    (128i64 * 128 * 128) as f64,
                    2,
                    vec![],
                ),
                OpNode::elementwise("bias", EltwiseOp::BiasAdd, 128 * 128, dt, 2, vec![0]),
                OpNode::elementwise("relu", EltwiseOp::Relu, 128 * 128, dt, 2, vec![1]),
                OpNode::memory("softmax", 2.0 * 128.0 * 128.0 * 2.0, 2, vec![2]),
            ],
        }
    }

    fn opts(trials: usize) -> TuneOptions {
        TuneOptions {
            trials,
            ..Default::default()
        }
    }

    #[test]
    fn evaluates_toy_model_over_fused_groups() {
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let r = evaluate_model(&toy_model(), &machine, &reg, Strategy::TensorIr, &opts(12))
            .expect("valid model");
        assert!(r.latency_s > 0.0 && r.latency_s.is_finite());
        assert!(r.tuning_cost_s > 0.0);
        // mm+bias+relu collapse into one group; softmax stays.
        assert_eq!(r.per_group.len(), 2);
        let g = &r.per_group[0];
        assert_eq!(g.name, "mm_bias_relu");
        assert_eq!(g.members, vec!["mm", "bias", "relu"]);
        assert_eq!(g.fused_ops, 2);
        assert_eq!(g.count, 2);
        assert!(g.saved_launch_s > 0.0 && g.saved_traffic_s > 0.0);
        assert!(g.breakdown.is_some());
        let sm = &r.per_group[1];
        assert_eq!(sm.kind, LayerKind::Memory);
        let launch_s = machine.launch_overhead_us * 1e-6;
        let bd = sm.breakdown.as_ref().expect("roofline breakdown");
        assert_eq!(
            bd.launch_s, launch_s,
            "standalone memory work pays a launch"
        );
        assert_eq!(sm.time_s, bd.total());
    }

    #[test]
    fn fused_beats_unfused_with_visible_attribution() {
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let model = toy_model();
        let fused = evaluate_model(&model, &machine, &reg, Strategy::TensorIr, &opts(12))
            .expect("fused eval");
        let unfused = evaluate_model_unfused(&model, &machine, &reg, Strategy::TensorIr, &opts(12))
            .expect("unfused eval");
        assert!(
            fused.latency_s < unfused.latency_s,
            "fused {} vs unfused {}",
            fused.latency_s,
            unfused.latency_s
        );
        // The win decomposes into the attributed launch + traffic terms.
        assert!(fused.saved_launch_s() > 0.0);
        assert!(fused.saved_traffic_s() > 0.0);
        assert_eq!(unfused.saved_launch_s(), 0.0);
        assert_eq!(unfused.per_group.len(), 4);
    }

    #[test]
    fn same_name_different_shape_nodes_tune_separately() {
        // Regression (the PR 5 `workload_key` collision class at the graph
        // layer): reuse used to be keyed by node *name*, so two same-named
        // nodes with different shapes served the wrong tuned time.
        let dt = DataType::float16();
        let mm = |dim: i64| {
            OpNode::compute(
                "mm",
                LayerKind::Dense,
                tir_workloads::gmm(dim, dim, dim, dt, dt),
                (dim * dim * dim) as f64,
                1,
                vec![],
            )
        };
        let model = ModelSpec {
            name: "collide".into(),
            dtype: dt,
            nodes: vec![mm(64), mm(128), mm(128)],
        };
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let mut db = TuningDatabase::new();
        let mut evaluate = || {
            let o = opts(12);
            evaluate_model_with(
                &model,
                &machine,
                &reg,
                Strategy::TensorIr,
                &o,
                &mut db,
                true,
            )
            .expect("valid model")
        };
        let r = evaluate();
        let (small, big, big2) = (&r.per_group[0], &r.per_group[1], &r.per_group[2]);
        assert!(!small.cache_hit && small.trials > 0);
        assert!(
            !big.cache_hit && big.trials > 0,
            "same name, different shape: tuned anew"
        );
        assert_ne!(
            small.time_s, big.time_s,
            "each shape gets its own tuned time"
        );
        assert!(
            big2.cache_hit,
            "identical shape is served warm (by fingerprint, not name)"
        );
        assert_eq!(big2.trials, 0);
        assert_eq!(big2.tuning_cost_s, 0.0);
        assert_eq!(big2.time_s, big.time_s);
        let group_cost: f64 = r.per_group.iter().map(|g| g.tuning_cost_s).sum();
        let group_trials: usize = r.per_group.iter().map(|g| g.trials).sum();
        assert_eq!(
            group_cost, r.tuning_cost_s,
            "per-group costs sum to the model total"
        );
        assert_eq!(group_trials, r.trials);
        // Again, now that the database holds both shapes: all warm, and
        // each shape still gets its own time.
        let warm = evaluate();
        assert!(warm.per_group.iter().all(|g| g.cache_hit && g.trials == 0));
        let times = |r: &ModelResult| r.per_group.iter().map(|g| g.time_s).collect::<Vec<_>>();
        assert_eq!(times(&warm), times(&r));
    }

    #[test]
    fn missing_func_is_a_typed_error_not_a_silent_zero() {
        // Regression: a func-less compute node used to contribute 0.0 s.
        let dt = DataType::float16();
        let model = ModelSpec {
            name: "broken".into(),
            dtype: dt,
            nodes: vec![OpNode {
                name: "conv_nofunc".into(),
                kind: LayerKind::Conv2d,
                func: None,
                eltwise: None,
                macs: 1e9,
                min_bytes: 1e6,
                count: 1,
                elems: 0,
                inputs: vec![],
            }],
        };
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let err = evaluate_model(&model, &machine, &reg, Strategy::TensorIr, &opts(4))
            .expect_err("func-less conv must not evaluate");
        assert_eq!(
            err,
            ModelError::MissingFunc {
                node: "conv_nofunc".into(),
                kind: LayerKind::Conv2d,
            }
        );
        assert!(err.to_string().contains("conv_nofunc"));
        // An elementwise node without an op is the same class of hole.
        let model2 = ModelSpec {
            name: "broken2".into(),
            dtype: dt,
            nodes: vec![OpNode {
                name: "mystery_elt".into(),
                kind: LayerKind::Elementwise,
                func: None,
                eltwise: None,
                macs: 0.0,
                min_bytes: 1e6,
                count: 1,
                elems: 128,
                inputs: vec![],
            }],
        };
        assert!(evaluate_model(&model2, &machine, &reg, Strategy::TensorIr, &opts(4)).is_err());
        let mut db = TuningDatabase::new();
        assert!(compile_model_with(
            &model,
            &machine,
            &reg,
            Strategy::TensorIr,
            &opts(4),
            &mut db
        )
        .is_err());
    }

    #[test]
    fn trace_rolls_up_group_spans() {
        use std::sync::Arc;
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let collector = Arc::new(tir_trace::Collector::new());
        let topts = TuneOptions {
            trials: 12,
            trace: Some(collector),
            ..Default::default()
        };
        let traced = evaluate_model(&toy_model(), &machine, &reg, Strategy::TensorIr, &topts)
            .expect("traced eval");
        let plain = evaluate_model(
            &toy_model(),
            &machine,
            &reg,
            Strategy::TensorIr,
            &TuneOptions {
                trace: None,
                ..topts.clone()
            },
        )
        .expect("plain eval");
        // Tracing never perturbs the evaluation.
        assert_eq!(traced.latency_s, plain.latency_s);
        assert_eq!(traced.tuning_cost_s, plain.tuning_cost_s);
        assert!(plain.trace.is_none());
        let rep = traced.trace.expect("trace report");
        let mm = rep.phase("graph.layer.mm_bias_relu").expect("fused span");
        assert_eq!(mm.spans, 1);
        assert_eq!(mm.sim_s, traced.per_group[0].tuning_cost_s);
        let sm = rep.phase("graph.layer.softmax").expect("softmax span");
        assert_eq!(sm.sim_s, 0.0);
        assert_eq!(rep.counter("graph.fused_ops"), 2);
        // The per-group tunings' own spans share the report.
        assert!(rep.phase("search.measure").is_some());
        assert!(tir_trace::json::is_well_formed_json(&rep.to_json()));
    }

    #[test]
    fn fused_evaluation_is_deterministic_across_threads_and_tracing() {
        use std::sync::Arc;
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let run = |threads: usize, traced: bool| {
            let o = TuneOptions {
                trials: 12,
                num_threads: threads,
                trace: traced.then(|| Arc::new(tir_trace::Collector::new())),
                ..Default::default()
            };
            evaluate_model(&toy_model(), &machine, &reg, Strategy::TensorIr, &o)
                .expect("valid model")
        };
        let base = run(1, false);
        // Search results are thread-count invariant; the tuning *cost* is
        // a wall-clock makespan and legitimately shrinks with more
        // simulated measurement workers.
        for (threads, traced) in [(1, true), (4, false), (4, true)] {
            let r = run(threads, traced);
            assert_eq!(
                r.latency_s, base.latency_s,
                "threads={threads} traced={traced}"
            );
            assert_eq!(r.trials, base.trials);
        }
        // At a fixed thread count, tracing perturbs nothing and repeated
        // runs produce byte-identical observability reports.
        for threads in [1, 4] {
            let plain = run(threads, false);
            let a = run(threads, true);
            let b = run(threads, true);
            assert_eq!(a.latency_s, plain.latency_s);
            assert_eq!(a.tuning_cost_s, plain.tuning_cost_s);
            let ja = a.trace.expect("report").to_json();
            let jb = b.trace.expect("report").to_json();
            assert_eq!(ja, jb, "threads={threads}");
        }
    }

    #[test]
    fn tensorir_beats_ansor_on_toy_model() {
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let t = evaluate_model(&toy_model(), &machine, &reg, Strategy::TensorIr, &opts(16))
            .expect("tir eval");
        let a = evaluate_model(&toy_model(), &machine, &reg, Strategy::Ansor, &opts(16))
            .expect("ansor eval");
        assert!(
            t.latency_s < a.latency_s,
            "TensorIR {} vs Ansor {}",
            t.latency_s,
            a.latency_s
        );
    }
}

#[cfg(test)]
mod module_tests {
    use super::*;
    use crate::layer::{EltwiseOp, OpNode};
    use tir::DataType;
    use tir_tensorize::builtin_registry;

    fn proj_model() -> ModelSpec {
        let dt = DataType::float16();
        ModelSpec {
            name: "toy".into(),
            dtype: dt,
            nodes: vec![
                OpNode::compute(
                    "proj",
                    LayerKind::Dense,
                    tir_workloads::gmm(64, 64, 64, dt, dt),
                    (64i64 * 64 * 64) as f64,
                    3,
                    vec![],
                ),
                OpNode::elementwise("relu", EltwiseOp::Relu, 64 * 64, dt, 3, vec![0]),
                OpNode::memory("softmax", 1024.0, 3, vec![1]),
            ],
        }
    }

    fn opts(trials: usize) -> TuneOptions {
        TuneOptions {
            trials,
            ..Default::default()
        }
    }

    #[test]
    fn compile_model_produces_verified_fused_functions() {
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let model = proj_model();
        let mut db = TuningDatabase::new();
        let module = compile_model_with(
            &model,
            &machine,
            &reg,
            Strategy::TensorIr,
            &opts(8),
            &mut db,
        )
        .expect("valid model")
        .module;
        let f = module
            .get("proj_relu")
            .expect("fused tuned function present");
        tir_analysis::assert_valid(f);
        tir_analysis::verify_scheduled(f).expect("fused best passes the static verifier");
        // The tuned fused kernel still computes relu(matmul).
        let dt = DataType::float16();
        let reference = tir_workloads::compose_unfused(
            &tir_workloads::gmm(64, 64, 64, dt, dt),
            &[tir_workloads::Epilogue::Relu],
            "proj_relu",
        );
        tir_exec::assert_same_semantics(&reference, f, 1, 0.0);
        assert!(
            module.get("softmax").is_none(),
            "memory nodes are not compiled"
        );
        assert!(module.get("proj").is_none(), "the anchor ships fused");
    }

    #[test]
    fn second_compile_performs_zero_measurements() {
        // Regression: compiling a model used to re-tune every kernel from
        // scratch even when the identical workload was already tuned.
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let model = proj_model();
        let mut db = tir_autoschedule::TuningDatabase::new();
        let first = compile_model_with(
            &model,
            &machine,
            &reg,
            Strategy::TensorIr,
            &opts(8),
            &mut db,
        )
        .expect("first compile");
        assert!(first.trials > 0 && first.tuning_cost_s > 0.0);
        let second = compile_model_with(
            &model,
            &machine,
            &reg,
            Strategy::TensorIr,
            &opts(8),
            &mut db,
        )
        .expect("second compile");
        assert_eq!(second.trials, 0, "warm compile re-measures nothing");
        assert_eq!(second.tuning_cost_s, 0.0);
        assert_eq!(
            second.module.get("proj_relu").expect("present").to_string(),
            first.module.get("proj_relu").expect("present").to_string(),
            "warm compile ships the identical kernel"
        );
    }

    #[test]
    fn evaluate_then_compile_shares_the_database() {
        let machine = Machine::sim_gpu();
        let reg = builtin_registry();
        let model = proj_model();
        let mut db = tir_autoschedule::TuningDatabase::new();
        let eval = evaluate_model_with(
            &model,
            &machine,
            &reg,
            Strategy::TensorIr,
            &opts(8),
            &mut db,
            true,
        )
        .expect("eval");
        assert!(eval.trials > 0);
        let compiled = compile_model_with(
            &model,
            &machine,
            &reg,
            Strategy::TensorIr,
            &opts(8),
            &mut db,
        )
        .expect("compile after eval");
        assert_eq!(compiled.trials, 0, "compile reuses the evaluation's tuning");
    }
}
