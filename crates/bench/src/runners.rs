//! Experiment runners, one per paper artifact.

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq_common::{GridError, NodeId, Result};
use gridq_exec::{ThreadedConfig, ThreadedExecutor};
use gridq_grid::Perturbation;
use gridq_obs::ObsReport;
use gridq_sim::RunReport;
use gridq_workload::experiments::{EvaluatorPerturbation, Q1Experiment, Q2Experiment};

/// One measured point, with the paper's value where the paper prints one.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Configuration label (matches the paper's axis/bar label).
    pub label: String,
    /// The paper's reported value, when the paper states it numerically.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
}

impl Cell {
    fn new(label: impl Into<String>, paper: Option<f64>, measured: f64) -> Self {
        Cell {
            label: label.into(),
            paper,
            measured,
        }
    }
}

/// One row/series of a table or figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Experiment id (e.g. `"table1"`, `"fig2a"`).
    pub id: &'static str,
    /// Human-readable series title.
    pub title: String,
    /// The measured cells.
    pub cells: Vec<Cell>,
}

impl Series {
    /// Renders the series as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = format!("[{}] {}\n", self.id, self.title);
        for cell in &self.cells {
            let paper = cell
                .paper
                .map(|p| format!("{p:>7.2}"))
                .unwrap_or_else(|| "      —".to_string());
            out.push_str(&format!(
                "    {:<38} paper {}   measured {:>7.2}\n",
                cell.label, paper, cell.measured
            ));
        }
        out
    }
}

/// Scale of the reproduction runs.
#[derive(Debug, Clone, Default)]
pub struct ReproConfig {
    /// Q1 template (tuples, costs, evaluators are overridden per
    /// experiment where the paper varies them).
    pub q1: Q1Experiment,
    /// Q2 template.
    pub q2: Q2Experiment,
}

impl ReproConfig {
    /// A reduced-scale configuration for fast tests and `repro --small`
    /// (same cost model, ~5x smaller datasets).
    pub fn small() -> Self {
        ReproConfig {
            q1: Q1Experiment {
                tuples: 600,
                ..Default::default()
            },
            q2: Q2Experiment {
                sequences: 600,
                interactions: 940,
                ..Default::default()
            },
        }
    }
}

fn a1r2() -> AdaptivityConfig {
    AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2)
}

fn a1r1() -> AdaptivityConfig {
    AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1)
}

fn a2r2() -> AdaptivityConfig {
    AdaptivityConfig::with_policies(AssessmentPolicy::A2, ResponsePolicy::R2)
}

fn off() -> AdaptivityConfig {
    AdaptivityConfig::disabled()
}

fn ws_pert(k: f64) -> Vec<EvaluatorPerturbation> {
    vec![EvaluatorPerturbation::new(1, Perturbation::CostFactor(k))]
}

fn sleep_pert(ms: f64) -> Vec<EvaluatorPerturbation> {
    vec![EvaluatorPerturbation::new(1, Perturbation::SleepMs(ms))]
}

fn norm(report: &RunReport, base: &RunReport) -> f64 {
    report.wall_ms / base.wall_ms
}

/// Table 1: performance of queries in normalised units for
/// {no ad/no imb, ad/no imb, no ad/imb, ad/imb}.
pub fn table1(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let q2 = &config.q2;
    let q1_base = q1.run(off(), &[])?;
    let q2_base = q2.run(off(), &[])?;
    let mut out = Vec::new();

    // Row 1: Q1 with prospective response (R2), 10x WS perturbation.
    let cells = vec![
        Cell::new("no ad / no imb", Some(1.0), 1.0),
        Cell::new(
            "ad / no imb",
            Some(1.059),
            norm(&q1.run(a1r2(), &[])?, &q1_base),
        ),
        Cell::new(
            "no ad / imb (10x WS)",
            Some(3.53),
            norm(&q1.run(off(), &ws_pert(10.0))?, &q1_base),
        ),
        Cell::new(
            "ad / imb (10x WS)",
            Some(1.45),
            norm(&q1.run(a1r2(), &ws_pert(10.0))?, &q1_base),
        ),
    ];
    out.push(Series {
        id: "table1",
        title: "Q1 - R2 (prospective)".into(),
        cells,
    });

    // Row 2: Q1 with retrospective response (R1).
    let cells = vec![
        Cell::new("no ad / no imb", Some(1.0), 1.0),
        Cell::new(
            "ad / no imb",
            Some(1.15),
            norm(&q1.run(a1r1(), &[])?, &q1_base),
        ),
        Cell::new(
            "no ad / imb (10x WS)",
            Some(3.53),
            norm(&q1.run(off(), &ws_pert(10.0))?, &q1_base),
        ),
        Cell::new(
            "ad / imb (10x WS)",
            Some(1.57),
            norm(&q1.run(a1r1(), &ws_pert(10.0))?, &q1_base),
        ),
    ];
    out.push(Series {
        id: "table1",
        title: "Q1 - R1 (retrospective)".into(),
        cells,
    });

    // Row 3: Q2 with retrospective response, sleep(10ms) perturbation.
    let cells = vec![
        Cell::new("no ad / no imb", Some(1.0), 1.0),
        Cell::new(
            "ad / no imb",
            Some(1.11),
            norm(&q2.run(a1r1(), &[])?, &q2_base),
        ),
        Cell::new(
            "no ad / imb (sleep 10ms)",
            Some(1.71),
            norm(&q2.run(off(), &sleep_pert(10.0))?, &q2_base),
        ),
        Cell::new(
            "ad / imb (sleep 10ms)",
            Some(1.31),
            norm(&q2.run(a1r1(), &sleep_pert(10.0))?, &q2_base),
        ),
    ];
    out.push(Series {
        id: "table1",
        title: "Q2 - R1 (retrospective)".into(),
        cells,
    });
    Ok(out)
}

/// Fig. 2(a): Q1, prospective adaptations, perturbation 10/20/30x,
/// adaptivity disabled vs enabled.
pub fn fig2a(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let base = q1.run(off(), &[])?;
    let paper_noad = [3.53, 6.66, 9.76];
    let paper_ad = [1.45, 2.48, 3.79];
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for (i, k) in [10.0, 20.0, 30.0].into_iter().enumerate() {
        disabled.push(Cell::new(
            format!("{k:.0} times"),
            Some(paper_noad[i]),
            norm(&q1.run(off(), &ws_pert(k))?, &base),
        ));
        enabled.push(Cell::new(
            format!("{k:.0} times"),
            Some(paper_ad[i]),
            norm(&q1.run(a1r2(), &ws_pert(k))?, &base),
        ));
    }
    Ok(vec![
        Series {
            id: "fig2a",
            title: "Q1 prospective — adaptivity disabled".into(),
            cells: disabled,
        },
        Series {
            id: "fig2a",
            title: "Q1 prospective — adaptivity enabled".into(),
            cells: enabled,
        },
    ])
}

/// Fig. 2(b): Q1 under the three adaptivity policies A1-R2, A1-R1,
/// A2-R2 at 10/20/30x (the paper prints the bars without numeric
/// labels; the expected ordering is A1-R1 <= A1-R2 <= A2-R2 at large
/// perturbations, with A1-R1 nearly flat in the perturbation size).
pub fn fig2b(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let base = q1.run(off(), &[])?;
    let policies: [(&str, AdaptivityConfig); 3] =
        [("A1-R2", a1r2()), ("A1-R1", a1r1()), ("A2-R2", a2r2())];
    let mut out = Vec::new();
    for (name, adapt) in policies {
        let mut cells = Vec::new();
        for k in [10.0, 20.0, 30.0] {
            cells.push(Cell::new(
                format!("{k:.0} times"),
                None,
                norm(&q1.run(adapt.clone(), &ws_pert(k))?, &base),
            ));
        }
        out.push(Series {
            id: "fig2b",
            title: format!("Q1 policy {name}"),
            cells,
        });
    }
    Ok(out)
}

/// Fig. 3(a): Q2, retrospective adaptations, sleep 10/50/100 ms,
/// adaptivity disabled vs enabled (paper states 1.71 -> 1.31 for 10 ms;
/// the 50/100 ms bars are printed without numeric labels).
pub fn fig3a(config: &ReproConfig) -> Result<Vec<Series>> {
    let q2 = &config.q2;
    let base = q2.run(off(), &[])?;
    let paper_noad = [Some(1.71), None, None];
    let paper_ad = [Some(1.31), None, None];
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for (i, ms) in [10.0, 50.0, 100.0].into_iter().enumerate() {
        disabled.push(Cell::new(
            format!("{ms:.0}msec"),
            paper_noad[i],
            norm(&q2.run(off(), &sleep_pert(ms))?, &base),
        ));
        enabled.push(Cell::new(
            format!("{ms:.0}msec"),
            paper_ad[i],
            norm(&q2.run(a1r1(), &sleep_pert(ms))?, &base),
        ));
    }
    Ok(vec![
        Series {
            id: "fig3a",
            title: "Q2 retrospective — adaptivity disabled".into(),
            cells: disabled,
        },
        Series {
            id: "fig3a",
            title: "Q2 retrospective — adaptivity enabled".into(),
            cells: enabled,
        },
    ])
}

/// Fig. 3(b): Q1 with the dataset doubled (6000 tuples), prospective
/// adaptations, 10/20/30x. The paper reports the results come "very
/// close to those when adaptations are retrospective".
pub fn fig3b(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = Q1Experiment {
        tuples: config.q1.tuples * 2,
        ..config.q1.clone()
    };
    let base = q1.run(off(), &[])?;
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for k in [10.0, 20.0, 30.0] {
        disabled.push(Cell::new(
            format!("{k:.0} times"),
            None,
            norm(&q1.run(off(), &ws_pert(k))?, &base),
        ));
        enabled.push(Cell::new(
            format!("{k:.0} times"),
            None,
            norm(&q1.run(a1r2(), &ws_pert(k))?, &base),
        ));
    }
    Ok(vec![
        Series {
            id: "fig3b",
            title: "Q1 double data — adaptivity disabled".into(),
            cells: disabled,
        },
        Series {
            id: "fig3b",
            title: "Q1 double data — adaptivity enabled (prospective)".into(),
            cells: enabled,
        },
    ])
}

/// Fig. 4(a–c): Q1 over three evaluators, retrospective adaptations,
/// varying the number of perturbed machines (0–3) for perturbation
/// sizes 10/20/30x.
pub fn fig4(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = Q1Experiment {
        evaluators: 3,
        ..config.q1.clone()
    };
    let base = q1.run(off(), &[])?;
    let mut out = Vec::new();
    for k in [10.0, 20.0, 30.0] {
        for (title, adapt) in [("disabled", off()), ("enabled", a1r1())] {
            let mut cells = Vec::new();
            for perturbed in 0..=3usize {
                let perts: Vec<EvaluatorPerturbation> = (0..perturbed)
                    .map(|e| EvaluatorPerturbation::new(e, Perturbation::CostFactor(k)))
                    .collect();
                cells.push(Cell::new(
                    format!("{perturbed} perturbed"),
                    None,
                    norm(&q1.run(adapt.clone(), &perts)?, &base),
                ));
            }
            out.push(Series {
                id: "fig4",
                title: format!("Q1 3 evaluators, {k:.0}x — adaptivity {title}"),
                cells,
            });
        }
    }
    Ok(out)
}

/// Fig. 5: Q1 under rapidly changing perturbations — per-tuple factors
/// drawn from clamped normals around a stable mean of 30x, for both
/// response policies. The stable 30x bar is included for comparison.
pub fn fig5(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let base = q1.run(off(), &[])?;
    let variants: [(&str, Perturbation); 4] = [
        ("stable 30x", Perturbation::CostFactor(30.0)),
        (
            "[25,35]",
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 25.0,
                hi: 35.0,
            },
        ),
        (
            "[20,40]",
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 20.0,
                hi: 40.0,
            },
        ),
        (
            "[1,60]",
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 1.0,
                hi: 60.0,
            },
        ),
    ];
    let mut out = Vec::new();
    for (name, adapt) in [("prospective", a1r2()), ("retrospective", a1r1())] {
        let mut cells = Vec::new();
        for (label, pert) in &variants {
            let perts = vec![EvaluatorPerturbation::new(0, pert.clone())];
            cells.push(Cell::new(
                label.to_string(),
                None,
                norm(&q1.run(adapt.clone(), &perts)?, &base),
            ));
        }
        out.push(Series {
            id: "fig5",
            title: format!("Q1 changing perturbations — {name}"),
            cells,
        });
    }
    Ok(out)
}

/// §3.2 "Overheads": unnecessary-adaptivity overheads and the
/// notification funnel.
pub fn overheads(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let base = q1.run(off(), &[])?;
    let r2 = q1.run(a1r2(), &[])?;
    let r1 = q1.run(a1r1(), &[])?;
    let overhead_cells = vec![
        Cell::new(
            "prospective (R2) overhead, % of runtime",
            Some(5.9),
            (norm(&r2, &base) - 1.0) * 100.0,
        ),
        Cell::new(
            "retrospective (R1) overhead, % of runtime",
            Some(15.3),
            (norm(&r1, &base) - 1.0) * 100.0,
        ),
        Cell::new(
            "tuple ratio between machines (R2)",
            Some(1.21),
            r2.balance_ratio().unwrap_or(f64::NAN),
        ),
        Cell::new(
            "tuple ratio between machines (R1)",
            Some(1.01),
            r1.balance_ratio().unwrap_or(f64::NAN),
        ),
    ];
    // The notification funnel under an actual 10x imbalance.
    let imb = q1.run(a1r2(), &ws_pert(10.0))?;
    let funnel_cells = vec![
        Cell::new(
            "raw engine notifications (100-300)",
            None,
            (imb.raw_m1_events + imb.raw_m2_events) as f64,
        ),
        Cell::new(
            "detector -> diagnoser notifications (~10)",
            Some(10.0),
            imb.detector_notifications as f64,
        ),
        Cell::new(
            "rebalances deployed (1-3)",
            Some(2.0),
            imb.adaptations_deployed as f64,
        ),
    ];
    Ok(vec![
        Series {
            id: "overheads",
            title: "Q1 unnecessary-adaptivity overheads".into(),
            cells: overhead_cells,
        },
        Series {
            id: "overheads",
            title: "Q1 notification funnel (10x imbalance)".into(),
            cells: funnel_cells,
        },
    ])
}

/// §3.2 monitoring-frequency sensitivity (the paper's figure omitted
/// for space): Q1 at 10x with raw-event frequency 0 / per-10 / per-20 /
/// per-30 tuples — both adaptation quality and overhead should be
/// insensitive (frequency 0 means no monitoring, i.e. no adaptation).
pub fn monitor_freq(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let base = q1.run(off(), &[])?;
    let mut cells = Vec::new();
    for interval in [0u32, 10, 20, 30] {
        let adapt = AdaptivityConfig {
            monitoring_interval_tuples: interval,
            ..a1r2()
        };
        let report = q1.run(adapt, &ws_pert(10.0))?;
        cells.push(Cell::new(
            if interval == 0 {
                "no monitoring".to_string()
            } else {
                format!("1 per {interval} tuples")
            },
            None,
            norm(&report, &base),
        ));
    }
    Ok(vec![Series {
        id: "monfreq",
        title: "Q1 10x — monitoring frequency sensitivity".into(),
        cells,
    }])
}

/// Ablations over the design choices DESIGN.md calls out: the
/// Diagnoser threshold `thres_a`, the detector window length, the
/// hash-bucket granularity of stateful repartitioning, and the
/// Responder's progress cutoff. Values are normalised response times
/// (Q1 at 10x for the stateless knobs, Q2 at sleep 50 ms for bucket
/// granularity), with the deployed-adaptation count appended so
/// threshold-churn is visible.
pub fn ablation(config: &ReproConfig) -> Result<Vec<Series>> {
    let q1 = &config.q1;
    let q1_base = q1.run(off(), &[])?;
    // A churn schedule that keeps the adaptivity loop honest: load
    // arrives at a quarter of the baseline runtime, disappears at half,
    // and returns twice as strong at three quarters. Static perturbation
    // converges in one adaptation and hides the knobs' effects.
    let churn = |base_ms: f64| {
        use gridq_common::SimTime;
        gridq_grid::PerturbationSchedule::none()
            .then_at(
                SimTime::from_millis(base_ms * 0.25),
                Perturbation::CostFactor(10.0),
            )
            .then_at(SimTime::from_millis(base_ms * 0.5), Perturbation::None)
            .then_at(
                SimTime::from_millis(base_ms * 0.75),
                Perturbation::CostFactor(20.0),
            )
    };
    let schedule = churn(q1_base.wall_ms);
    let mut out = Vec::new();

    let mut cells = Vec::new();
    for thres_a in [0.05, 0.2, 0.5] {
        let adapt = AdaptivityConfig { thres_a, ..a1r1() };
        let report = q1.run_scheduled(adapt, &[(1, schedule.clone())])?;
        cells.push(Cell::new(
            format!(
                "thres_a = {thres_a} ({} adaptations)",
                report.adaptations_deployed
            ),
            None,
            norm(&report, &q1_base),
        ));
    }
    out.push(Series {
        id: "ablation",
        title: "Q1 churn — Diagnoser threshold thres_a".into(),
        cells,
    });

    let mut cells = Vec::new();
    for window in [5usize, 25, 100] {
        let adapt = AdaptivityConfig {
            detector_window: window,
            ..a1r1()
        };
        let report = q1.run_scheduled(adapt, &[(1, schedule.clone())])?;
        cells.push(Cell::new(
            format!(
                "window = {window} ({} adaptations)",
                report.adaptations_deployed
            ),
            None,
            norm(&report, &q1_base),
        ));
    }
    out.push(Series {
        id: "ablation",
        title: "Q1 churn — detector window length".into(),
        cells,
    });

    let mut cells = Vec::new();
    for cutoff in [0.5, 0.95, 1.0] {
        let adapt = AdaptivityConfig {
            progress_cutoff: cutoff,
            ..a1r1()
        };
        let report = q1.run_scheduled(adapt, &[(1, schedule.clone())])?;
        cells.push(Cell::new(
            format!(
                "progress cutoff = {cutoff} ({} deployed, {} declined)",
                report.adaptations_deployed, report.declined_near_completion
            ),
            None,
            norm(&report, &q1_base),
        ));
    }
    out.push(Series {
        id: "ablation",
        title: "Q1 churn — Responder progress cutoff".into(),
        cells,
    });

    let q2_base = config.q2.run(off(), &[])?;
    let mut cells = Vec::new();
    for buckets in [8u32, 64, 256] {
        let q2 = Q2Experiment {
            bucket_count: buckets,
            ..config.q2.clone()
        };
        let report = q2.run(a1r1(), &sleep_pert(50.0))?;
        cells.push(Cell::new(
            format!(
                "{buckets} buckets ({} state tuples migrated)",
                report.state_tuples_migrated
            ),
            None,
            norm(&report, &q2_base),
        ));
    }
    out.push(Series {
        id: "ablation",
        title: "Q2 sleep 50ms R1 — hash-bucket granularity".into(),
        cells,
    });
    Ok(out)
}

/// Output of the observability demo: the rendered summary plus the two
/// JSON-lines documents (`repro obsdemo --obs-out PATH` writes them).
#[derive(Debug, Clone)]
pub struct ObsDemo {
    /// Summary series (event/deploy counts per substrate).
    pub series: Vec<Series>,
    /// The simulated run's registry snapshot and adaptivity timeline.
    pub sim: ObsReport,
    /// The threaded run's registry snapshot and adaptivity timeline.
    pub threaded: ObsReport,
}

/// Observability demo: Q1 under a 10x perturbation on one evaluator,
/// executed on *both* substrates — the deterministic simulator and the
/// threaded wall-clock executor — with the obs layer capturing each hop
/// of the control loop. The two timelines answer the same questions
/// ("what fired, why, what was deployed") with the same schema.
pub fn obsdemo(config: &ReproConfig) -> Result<ObsDemo> {
    let q1 = &config.q1;

    // Simulated run (virtual time; `wall_ms` is null in the export).
    let sim_report = q1.run(a1r2(), &ws_pert(10.0))?;
    let sim = sim_report
        .obs
        .ok_or_else(|| GridError::Execution("simulation ran with obs disabled".into()))?;

    // Threaded run of the same plan (wall-clock time; evaluator 1 =
    // NodeId 2 is the perturbed machine, as in the sim run).
    let mut perturbations = std::collections::HashMap::new();
    perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
    let exec = ThreadedExecutor::new(
        q1.catalog(),
        ThreadedConfig {
            adaptivity: a1r2(),
            cost_scale: 0.01,
            perturbations,
            receive_cost_ms: 1.0,
            ..Default::default()
        },
    );
    let threaded_report = exec.run(&q1.plan())?;
    let threaded = threaded_report
        .obs
        .ok_or_else(|| GridError::Execution("threaded run with obs disabled".into()))?;

    let summarise = |label: &str, obs: &ObsReport, deployed: u64| {
        vec![
            Cell::new(
                format!("{label}: timeline events"),
                None,
                obs.events.len() as f64,
            ),
            Cell::new(
                format!("{label}: adaptations deployed"),
                None,
                deployed as f64,
            ),
            Cell::new(
                format!("{label}: events dropped"),
                None,
                obs.dropped_events as f64,
            ),
        ]
    };
    let mut cells = summarise("sim", &sim, sim_report.adaptations_deployed);
    cells.extend(summarise(
        "threaded",
        &threaded,
        threaded_report.adaptations_deployed,
    ));
    Ok(ObsDemo {
        series: vec![Series {
            id: "obsdemo",
            title: "Q1 10x — observability demo (sim + threaded)".into(),
            cells,
        }],
        sim,
        threaded,
    })
}

/// Every artifact, in paper order.
pub fn all(config: &ReproConfig) -> Result<Vec<Series>> {
    let mut out = Vec::new();
    out.extend(table1(config)?);
    out.extend(fig2a(config)?);
    out.extend(fig2b(config)?);
    out.extend(fig3a(config)?);
    out.extend(fig3b(config)?);
    out.extend(fig4(config)?);
    out.extend(fig5(config)?);
    out.extend(overheads(config)?);
    out.extend(monitor_freq(config)?);
    out.extend(ablation(config)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The baseline cell is normalised by itself, so it is exactly 1.0 by
    // construction (x / x), not approximately.
    #[allow(clippy::float_cmp)]
    fn table1_shape_holds_at_small_scale() {
        let series = table1(&ReproConfig::small()).unwrap();
        assert_eq!(series.len(), 3);
        for row in &series {
            assert_eq!(row.cells.len(), 4);
            let no_ad_no_imb = row.cells[0].measured;
            let ad_no_imb = row.cells[1].measured;
            let no_ad_imb = row.cells[2].measured;
            let ad_imb = row.cells[3].measured;
            assert_eq!(no_ad_no_imb, 1.0);
            assert!(ad_no_imb >= 1.0, "adaptivity costs something: {row:?}");
            assert!(ad_no_imb < 1.35, "unnecessary overhead stays low: {row:?}");
            assert!(no_ad_imb > ad_imb, "adaptivity must help: {row:?}");
        }
    }

    #[test]
    fn fig2a_degradation_grows_without_adaptivity() {
        // Paper scale: at small scale the source finishes distributing
        // before the first adaptation lands and prospective responses
        // cannot help — which is exactly the effect Fig. 3(b) studies.
        let series = fig2a(&ReproConfig::default()).unwrap();
        let disabled = &series[0].cells;
        let enabled = &series[1].cells;
        assert!(disabled[0].measured < disabled[1].measured);
        assert!(disabled[1].measured < disabled[2].measured);
        for (d, e) in disabled.iter().zip(enabled) {
            assert!(
                e.measured < 0.7 * d.measured,
                "adaptivity must recover most of the loss: {d:?} vs {e:?}"
            );
        }
    }

    #[test]
    fn fig5_adaptivity_handles_rapid_changes() {
        let series = fig5(&ReproConfig::small()).unwrap();
        for s in &series {
            let stable = s.cells[0].measured;
            for noisy in &s.cells[1..] {
                // Performance under rapidly varying perturbations stays
                // within ~35% of the stable-perturbation case.
                assert!(
                    (noisy.measured - stable).abs() / stable < 0.35,
                    "{}: stable {stable} vs {noisy:?}",
                    s.title
                );
            }
        }
    }

    #[test]
    fn render_includes_paper_column() {
        let s = Series {
            id: "x",
            title: "demo".into(),
            cells: vec![Cell::new("a", Some(1.5), 1.6), Cell::new("b", None, 2.0)],
        };
        let text = s.render();
        assert!(text.contains("paper    1.50"));
        assert!(text.contains("—"));
    }
}
