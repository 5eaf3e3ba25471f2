//! Ablation studies for the design choices DESIGN.md §4 calls out:
//!
//! 1. data movement as first-class citizen (AutoCopy/shared staging vs the
//!    AMOS-style fixed copies);
//! 2. validation filtering inside evolutionary search (wasted measurement
//!    budget without it);
//! 3. the learned cost model (sample efficiency vs unranked measurement).

use tensorir_bench::{fmt_ms, print_table, registry};
use tir::DataType;
use tir_autoschedule::sketch_gpu::GpuTensorSketch;
use tir_autoschedule::{tune_with, SimMeasurer, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_workloads::{bench_suite, OpKind};

fn main() {
    let machine = Machine::sim_gpu();
    let intrins = registry();

    // --- Ablation 1: first-class data movement ---------------------------
    let suite = bench_suite(DataType::float16());
    let mut rows = Vec::new();
    for case in suite
        .iter()
        .filter(|c| matches!(c.kind, OpKind::GMM | OpKind::C2D | OpKind::C3D))
    {
        let staged = tensorir_bench::tune_case(case, &machine, &intrins, Strategy::TensorIr, 48);
        let fixed = tensorir_bench::tune_case(case, &machine, &intrins, Strategy::Amos, 48);
        rows.push(vec![
            case.kind.label().to_string(),
            fmt_ms(staged.best_time),
            fmt_ms(fixed.best_time),
            format!("{:.2}x", fixed.best_time / staged.best_time),
        ]);
    }
    print_table(
        "Ablation 1: AutoCopy shared-memory staging vs fixed data movement",
        &["op", "staged (ms)", "fixed copies (ms)", "staging gain"],
        &rows,
    );

    // --- Ablation 2: validation filtering --------------------------------
    let func = tir::builder::matmul_func("mm", 512, 512, 512, DataType::float16());
    let wmma = intrins.get("wmma_16x16x16_f16").unwrap();
    let sketch = GpuTensorSketch::new(&func, "C", wmma, true).expect("sketch");
    let with = tune_with(
        &[&sketch],
        &machine,
        &TuneOptions {
            trials: 48,
            validate_before_measure: true,
            ..Default::default()
        },
        &SimMeasurer,
    );
    let without = tune_with(
        &[&sketch],
        &machine,
        &TuneOptions {
            trials: 48,
            validate_before_measure: false,
            ..Default::default()
        },
        &SimMeasurer,
    );
    print_table(
        "Ablation 2: validation filtering in evolutionary search (512^3 matmul)",
        &["config", "best (ms)", "measured", "wasted", "invalid built"],
        &[
            vec![
                "with filter".into(),
                fmt_ms(with.best_time),
                with.trials_measured.to_string(),
                with.wasted_measurements.to_string(),
                with.invalid_filtered.to_string(),
            ],
            vec![
                "without filter".into(),
                fmt_ms(without.best_time),
                without.trials_measured.to_string(),
                without.wasted_measurements.to_string(),
                without.invalid_filtered.to_string(),
            ],
        ],
    );

    // --- Ablation 3: cost model ------------------------------------------
    // Sample efficiency is hard to see on this simulator (the top of the
    // tile space is flat), so we measure the model directly: train the
    // GBDT on half of a candidate pool and report its pairwise ranking
    // accuracy on the held-out half.
    use tir_autoschedule::feature::extract_features;
    use tir_autoschedule::sketch::SketchRule;
    use tir_autoschedule::CostModel;
    use tir_exec::simulate;
    use tir_rand::SeedableRng;
    let c2d = suite
        .iter()
        .find(|c| c.kind == OpKind::C2D)
        .expect("C2D in suite");
    // The scalar space has real performance variance (thread counts,
    // register tiling, reduction splits), making it the interesting
    // ranking target.
    let c2d_sketch = tir_autoschedule::sketch_gpu::GpuScalarSketch::new(&c2d.func);
    let mut rng = tir_rand::rngs::StdRng::seed_from_u64(17);
    let mut pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while pool.len() < 48 {
        let d = c2d_sketch.sample(&mut rng);
        if !seen.insert(d.clone()) {
            if seen.len() > 4096 {
                break;
            }
            continue;
        }
        if let Ok(f) = c2d_sketch.apply(&d) {
            let t = simulate(&f, &machine);
            pool.push((extract_features(&f), t));
        }
    }
    let half = pool.len() / 2;
    let mut model = CostModel::new();
    model.update(
        pool[..half]
            .iter()
            .map(|(x, t)| (x.clone(), -t.ln()))
            .collect::<Vec<_>>(),
    );
    let test = &pool[half..];
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..test.len() {
        for j in (i + 1)..test.len() {
            if (test[i].1 - test[j].1).abs() < 1e-12 {
                continue;
            }
            total += 1;
            let pred_i_faster = model.predict(&test[i].0) > model.predict(&test[j].0);
            let truly_i_faster = test[i].1 < test[j].1;
            if pred_i_faster == truly_i_faster {
                correct += 1;
            }
        }
    }
    let accuracy = 100.0 * correct as f64 / total.max(1) as f64;
    print_table(
        "Ablation 3: GBDT cost model ranking accuracy (C2D candidates)",
        &["train", "test pairs", "pairwise ranking accuracy"],
        &[vec![
            half.to_string(),
            total.to_string(),
            format!("{accuracy:.1}% (random = 50%)"),
        ]],
    );

    // --- Ablation 4: tuning database --------------------------------------
    // §5.2: "no search is needed to build a model for an operator already
    // tuned" — a second compilation of the same model costs nothing.
    use tir_autoschedule::TuningDatabase;
    let mut db = TuningDatabase::new();
    let model = tir_graph::bert_large(DataType::float16());
    let opts = tir_autoschedule::TuneOptions {
        trials: 8,
        ..Default::default()
    };
    let mut first_cost = 0.0;
    let mut second_cost = 0.0;
    for pass in 0..2 {
        let mut seen = std::collections::HashSet::new();
        for node in &model.nodes {
            let Some(func) = &node.func else { continue };
            if !seen.insert(node.name.clone()) {
                continue;
            }
            let r = db.tune_cached(func, &machine, &intrins, Strategy::TensorIr, &opts);
            if pass == 0 {
                first_cost += r.tuning_cost_s;
            } else {
                second_cost += r.tuning_cost_s;
            }
        }
    }
    print_table(
        "Ablation 4: tuning database (BERT-large, compile twice)",
        &["pass", "tuning cost (s)", "db hits"],
        &[
            vec!["first".into(), format!("{first_cost:.1}"), "0".into()],
            vec![
                "second".into(),
                format!("{second_cost:.1}"),
                db.hits().to_string(),
            ],
        ],
    );
}
