//! The paper's evaluation (§5: Figs. 10–14 and Table 1) in one run on the
//! simulated machines. It writes `BENCH_paper.json`, one inline row per
//! figure cell, and checks every claim the paper makes against those
//! cells.
//!
//! Each distinct tune runs once. Fig. 11 reads Fig. 10's TensorIR bests.
//! Table 1 reads Fig. 12's TensorIR model evaluations. Every tune runs on
//! the default one-worker measurement farm, the paper's one-device setup,
//! except Table 1's pipeline rows, which widen the simulated farm from 1
//! to 8 workers. Every number is simulated, so the file is the same bytes
//! on every machine, and CI diffs it against the committed one.
//!
//! Single-operator rows carry each arm's fraction of its own compute
//! roofline, `macs / (peak × time)`: the TVM arm against the scalar peak
//! on the GPU and the vector peak on the ARM CPU, every other arm against
//! the tensor peak its vendor oracle is priced at.
//!
//! Each claim is a [`Claim`]: the cells it reads, the paper's band and
//! the verdict this tree is expected to reach. The run prints one line per
//! claim and exits non-zero when any verdict differs from its expectation,
//! in either direction. A change that flips one updates the expectation
//! here and records the old and new rows in EXPERIMENTS.md.
//!
//! ```text
//! cargo bench -p tensorir-bench --bench paper_claims
//! ```

use std::process::ExitCode;

use tensorir_bench::{vendor_case_time, Claim, Expect, Expect::*, E2E_TRIALS};
use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::machine::Machine;
use tir_graph::{arm_models, evaluate_model, gpu_models, Framework};
use tir_tensorize::builtin_registry;
use tir_trace::json::{self, Layout};
use tir_workloads::{bench_suite, OpKind};

/// Measurement budget of every single-operator tune.
const SINGLE_OP_TRIALS: usize = 48;
const WMMA: &str = "wmma_16x16x16_f16";
const SDOT: &str = "sdot_4x4x4_i8";

const INF: f64 = f64::INFINITY;

/// The paper's claims: the cells each reads, the paper's band, and the
/// verdict expected on this tree.
const CLAIMS: &[(&str, (f64, f64), Expect)] = &[
    // Up to 7.5x over TVM, which is competitive only on light DEP.
    (
        "fig10.vs_tvm.C1D+C2D+C3D+DIL+GMM+GRP+T2D",
        (1.0, 7.5),
        Deviation(GPU_TVM),
    ),
    ("fig10.vs_tvm.DEP", (0.8, 1.25), Holds),
    ("fig10.vs_amos", (1.0, INF), Holds),
    // Up to 13.9x over the best library on five operators, at least 75%
    // of it on the other three.
    ("fig11.vs_best_lib.C1D+C2D+DIL+T2D", (1.0, 13.9), Holds),
    ("fig11.vs_best_lib.DEP", (1.0, 13.9), Deviation(DEP)),
    ("fig11.vs_best_lib.C3D+GMM+GRP", (0.75, INF), Holds),
    // 1.2-8.8x over PyTorch, TVM and AMOS; 0.88-1.3x of TensorRT.
    ("fig12.vs_pytorch", (1.2, 8.8), Holds),
    ("fig12.vs_tvm", (1.2, 8.8), Deviation(GPU_TVM)),
    ("fig12.vs_amos", (1.2, 8.8), Deviation(MATMUL_NETS)),
    (
        "fig12.vs_tensorrt.ResNet-50+MobileNetV2+BERT-large",
        (0.88, 1.3),
        Holds,
    ),
    // 308 -> 156, 292 -> 261, 410 -> 189 and 247 -> 145 minutes.
    ("table1.speedup", (1.1, 2.2), Holds),
    // Up to 12.5x over TVM; 85-105% of ArmComputeLib.
    ("fig13.vs_tvm", (1.0, 12.5), Deviation(ARM_TVM)),
    ("fig13.of_acl", (0.85, 1.05), Deviation(ACL)),
    // 1.2-2.5x over PyTorch (QNNPACK) and TVM.
    ("fig14.vs_pytorch.ResNet-50", (1.2, 2.5), Holds),
    ("fig14.vs_pytorch.MobileNetV2", (1.2, 2.5), Deviation(MBV2)),
    ("fig14.vs_tvm", (1.2, 2.5), Deviation(ARM_TVM)),
];

/// Cells the paper reports a library as not supporting.
const UNSUPPORTED: &[&str] = &[
    "fig11.cutlass_ms.DEP+GRP+T2D",
    "fig12.tensorrt_ms.ViT-Base/16",
];

// Why each deviation deviates.
const GPU_TVM: &str = "the TVM arm's GPU sketch binds its fused spatial loops flat and \
     stops near 18% of the scalar roofline, and wmma runs at 8x the scalar rate";
const ARM_TVM: &str = "the TVM arm's CPU sketch is one parallel and one vectorized loop, \
     at 8% of the vector roofline";
const DEP: &str = "DEP gains nothing from wmma, and TensorRT's DEP oracle beats the best \
     gpu-scalar candidate, whose register accumulation the validator false-rejects \
     unless the serial step is 1";
const MATMUL_NETS: &str = "BERT-large and ViT are matmul networks, whose layout stages are \
     pure reshapes, so AMOS's fixed data movement costs nothing (Fig. 10 GMM 1.00x)";
const ACL: &str = "the ACL oracle is priced at 95% of the sdot peak, and the tuned sdot \
     kernels reach 99% of it";
const MBV2: &str = "MobileNetV2's depthwise and pointwise layers are bandwidth-bound, where \
     sdot cannot help, and the QNNPACK oracle runs perfectly fused";

/// One figure cell: its name, then named numbers (`None` = unsupported).
type Row = (String, Vec<(&'static str, Option<f64>)>);

/// Each figure's rows, in order.
type Figures = Vec<(&'static str, Vec<Row>)>;

/// The claim on the cells its id names: `<figure>.<column>`, then the
/// rows joined by `+`, or every row if none is named. `cell` gives each
/// cell's measured value.
fn claim(
    figures: &Figures,
    (id, band, expect): (&'static str, (f64, f64), Expect),
    cell: fn(Option<f64>) -> f64,
) -> Claim {
    let mut parts = id.splitn(3, '.');
    let (figure, column) = (parts.next(), parts.next().expect("a column"));
    let names: Vec<&str> = parts.next().map_or(Vec::new(), |n| n.split('+').collect());
    let (_, rows) = figures
        .iter()
        .find(|f| Some(f.0) == figure)
        .expect("figure");
    let measured: Vec<f64> = rows
        .iter()
        .filter(|(name, _)| names.is_empty() || names.contains(&name.as_str()))
        .map(|(_, cells)| cell(cells.iter().find(|c| c.0 == column).expect("column").1))
        .collect();
    assert!(
        names.is_empty() || measured.len() == names.len(),
        "{id}: no such row"
    );
    Claim {
        id,
        band,
        measured,
        expect,
    }
}

fn main() -> ExitCode {
    let (gpu, arm) = (Machine::sim_gpu(), Machine::sim_arm());
    let intrins = builtin_registry();
    let opts = |trials| TuneOptions {
        trials,
        ..Default::default()
    };
    let ms = |t: f64| Some(t * 1e3);
    let mut failures = Vec::new();

    // Figs. 10 and 11: the eight operators on SimGPU, float16.
    let (scalar_peak, wmma_peak) = (gpu.scalar_peak(), gpu.tensor_peak(WMMA).expect("wmma"));
    let (mut fig10, mut fig11) = (Vec::new(), Vec::new());
    for case in &bench_suite(DataType::float16()) {
        let [tvm, amos, tir] = [Strategy::Ansor, Strategy::Amos, Strategy::TensorIr].map(|s| {
            tune_workload(&case.func, &gpu, &intrins, s, &opts(SINGLE_OP_TRIALS)).best_time
        });
        let [cutlass, trt] =
            ["CUTLASS", "TensorRT"].map(|lib| vendor_case_time(lib, case, &gpu, WMMA));
        let best_lib = cutlass.into_iter().chain(trt).reduce(f64::min);
        let roof = |peak: f64, t: f64| Some(case.macs as f64 / (peak * t));
        let name = case.kind.label().to_string();
        fig10.push((
            name.clone(),
            vec![
                ("tvm_ms", ms(tvm)),
                ("amos_ms", ms(amos)),
                ("tensorir_ms", ms(tir)),
                ("vs_tvm", Some(tvm / tir)),
                ("vs_amos", Some(amos / tir)),
                ("tvm_roofline", roof(scalar_peak, tvm)),
                ("amos_roofline", roof(wmma_peak, amos)),
                ("tensorir_roofline", roof(wmma_peak, tir)),
            ],
        ));
        fig11.push((
            name,
            vec![
                ("cutlass_ms", cutlass.and_then(ms)),
                ("tensorrt_ms", trt.and_then(ms)),
                ("tensorir_ms", ms(tir)),
                ("vs_best_lib", best_lib.map(|b| b / tir)),
                ("cutlass_roofline", cutlass.and_then(|t| roof(wmma_peak, t))),
                ("tensorrt_roofline", trt.and_then(|t| roof(wmma_peak, t))),
                ("tensorir_roofline", roof(wmma_peak, tir)),
            ],
        ));
    }

    // Fig. 12 and Table 1: the four networks on SimGPU, float16, batch 1.
    let (mut fig12, mut table1) = (Vec::new(), Vec::new());
    for model in gpu_models() {
        let eval = |strategy, opts: TuneOptions| {
            evaluate_model(&model, &gpu, &intrins, strategy, &opts).expect("valid model")
        };
        let pt = Framework::PyTorch.model_latency(&model, &gpu);
        let trt = Framework::TensorRt.model_latency(&model, &gpu);
        let tvm = eval(Strategy::Ansor, opts(E2E_TRIALS)).latency_s;
        let amos = eval(Strategy::Amos, opts(E2E_TRIALS)).latency_s;
        let tir = eval(Strategy::TensorIr, opts(E2E_TRIALS));
        // The TVM arm tunes with twice the trials: its flat scalar space
        // needs more to converge, which approximates the paper's
        // equal-quality stopping.
        let tvm_tune = eval(Strategy::Ansor, opts(2 * E2E_TRIALS));
        let t = tir.latency_s;
        fig12.push((
            model.name.clone(),
            vec![
                ("pytorch_ms", pt.and_then(ms)),
                ("tvm_ms", ms(tvm)),
                ("amos_ms", ms(amos)),
                ("tensorrt_ms", trt.and_then(ms)),
                ("tensorir_ms", ms(t)),
                ("vs_pytorch", pt.map(|p| p / t)),
                ("vs_tvm", Some(tvm / t)),
                ("vs_amos", Some(amos / t)),
                ("vs_tensorrt", trt.map(|r| r / t)),
            ],
        ));
        table1.push((
            model.name.clone(),
            vec![
                ("tvm_min", Some(tvm_tune.tuning_cost_s / 60.0)),
                ("tensorir_min", Some(tir.tuning_cost_s / 60.0)),
                ("speedup", Some(tvm_tune.tuning_cost_s / tir.tuning_cost_s)),
                ("tvm_trials", Some(tvm_tune.trials as f64)),
                ("tensorir_trials", Some(tir.trials as f64)),
            ],
        ));
    }

    // Table 1's simulated measurement farm: the tuning makespan over 1 to
    // 8 simulated workers, and the candidate-cache hits.
    let mut pipeline = Vec::new();
    for case in bench_suite(DataType::float16())
        .iter()
        .filter(|c| matches!(c.kind, OpKind::GMM | OpKind::C2D))
    {
        let mut serial = None;
        for workers in [1usize, 2, 4, 8] {
            let r = tune_workload(
                &case.func,
                &gpu,
                &intrins,
                Strategy::TensorIr,
                &TuneOptions {
                    num_threads: workers,
                    ..opts(96)
                },
            );
            let best = r.best.as_ref().map(|b| b.to_string());
            let (serial_cost, serial_best) =
                serial.get_or_insert_with(|| (r.tuning_cost_s, best.clone()));
            if best != *serial_best {
                failures.push(format!(
                    "{}: the best program differs at {workers} workers",
                    case.func.name
                ));
            }
            pipeline.push((
                case.func.name.clone(),
                vec![
                    ("workers", Some(workers as f64)),
                    ("tuning_min", Some(r.tuning_cost_s / 60.0)),
                    ("speedup", Some(*serial_cost / r.tuning_cost_s)),
                    ("cache_hits", Some(r.cache_hits as f64)),
                    ("trials", Some(r.trials_measured as f64)),
                ],
            ));
        }
    }

    // Fig. 13: C2D and GMM on SimARM, int8 with sdot.
    let (vector_peak, sdot_peak) = (arm.vector_peak(), arm.tensor_peak(SDOT).expect("sdot"));
    let mut fig13 = Vec::new();
    for case in bench_suite(DataType::int8())
        .iter()
        .filter(|c| matches!(c.kind, OpKind::C2D | OpKind::GMM))
    {
        let [tvm, tir] = [Strategy::Ansor, Strategy::TensorIr].map(|s| {
            tune_workload(&case.func, &arm, &intrins, s, &opts(SINGLE_OP_TRIALS)).best_time
        });
        let acl = vendor_case_time("ArmComputeLib", case, &arm, SDOT).expect("ACL has C2D, GMM");
        let roof = |peak: f64, t: f64| Some(case.macs as f64 / (peak * t));
        fig13.push((
            case.kind.label().to_string(),
            vec![
                ("tvm_ms", ms(tvm)),
                ("tensorir_ms", ms(tir)),
                ("acl_ms", ms(acl)),
                ("vs_tvm", Some(tvm / tir)),
                ("of_acl", Some(acl / tir)),
                ("tvm_roofline", roof(vector_peak, tvm)),
                ("tensorir_roofline", roof(sdot_peak, tir)),
                ("acl_roofline", roof(sdot_peak, acl)),
            ],
        ));
    }

    // Fig. 14: quantized ResNet-50 and MobileNetV2 on SimARM, batch 1.
    let mut fig14 = Vec::new();
    for model in arm_models() {
        let [tvm, tir] = [Strategy::Ansor, Strategy::TensorIr].map(|s| {
            let r = evaluate_model(&model, &arm, &intrins, s, &opts(E2E_TRIALS));
            r.expect("valid model").latency_s
        });
        let pt = Framework::PyTorchQnnpack.model_latency(&model, &arm);
        fig14.push((
            model.name.clone(),
            vec![
                ("pytorch_ms", pt.and_then(ms)),
                ("tvm_ms", ms(tvm)),
                ("tensorir_ms", ms(tir)),
                ("vs_pytorch", pt.map(|p| p / tir)),
                ("vs_tvm", Some(tvm / tir)),
            ],
        ));
    }

    let figures: Figures = vec![
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("table1", table1),
        ("table1_parallel", pipeline),
        ("fig13", fig13),
        ("fig14", fig14),
    ];
    // An unsupported cell reads NaN, which lies in no band; a claim that
    // cells are unsupported reads 1 for each.
    let mut claims: Vec<Claim> = CLAIMS
        .iter()
        .map(|&c| claim(&figures, c, |v| v.unwrap_or(f64::NAN)))
        .collect();
    claims.extend(UNSUPPORTED.iter().map(|&id| {
        claim(&figures, (id, (1.0, 1.0), Holds), |v| {
            v.map_or(1.0, |_| 0.0)
        })
    }));
    for c in &claims {
        println!("{c}");
        failures.extend(c.flipped());
    }

    let text = json::document(|w| {
        w.object(Layout::Lines, |w| {
            w.field("benchmark", "paper_claims");
            for (figure, rows) in &figures {
                w.key(figure).array(Layout::Lines, |w| {
                    for (name, cells) in rows {
                        w.object(Layout::Inline, |w| {
                            w.field("name", name);
                            for (key, v) in cells {
                                w.field(key, *v);
                            }
                        });
                    }
                });
            }
            w.key("claims").array(Layout::Lines, |w| {
                for c in &claims {
                    w.object(Layout::Inline, |w| {
                        w.field("id", c.id);
                        w.key("measured").array(Layout::Inline, |w| {
                            for v in &c.measured {
                                w.value(*v);
                            }
                        });
                        w.key("band").array(Layout::Inline, |w| {
                            w.value(c.band.0).value(c.band.1);
                        });
                        w.field("verdict", if c.holds() { "holds" } else { "deviation" });
                        if let Deviation(reason) = c.expect {
                            w.field("reason", reason);
                        }
                    });
                }
            });
        });
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    json::gate("paper_claims", path, &text, Some(failures))
}
