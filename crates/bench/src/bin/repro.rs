//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [table1|fig2a|fig2b|fig3a|fig3b|fig4|fig5|overheads|monfreq|ablation|obsdemo|all] [--small] [--obs-out PATH]
//! ```
//!
//! Values are response times normalised to the unperturbed static
//! system, printed alongside the paper's reported value where the paper
//! states one numerically (— otherwise).
//!
//! `obsdemo` runs Q1 under a 10x perturbation on both substrates (the
//! simulator and the threaded executor); with `--obs-out PATH` it also
//! writes both runs' metrics snapshots and adaptivity timelines to PATH
//! as JSON lines (one `"kind":"metrics"` line opens each run's
//! document).
//!
//! Wall-clock measurement of the engine itself is not done here: see
//! `benchmark/README.md`.

use gridq_bench::runners::{self, ReproConfig, Series};
use gridq_common::{GridError, Result};

type Runner = fn(&ReproConfig) -> Result<Vec<Series>>;

/// Every experiment `repro` can run, in usage order. The usage text,
/// the dispatch and the "unknown experiment" message all read this.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1", runners::table1),
    ("fig2a", runners::fig2a),
    ("fig2b", runners::fig2b),
    ("fig3a", runners::fig3a),
    ("fig3b", runners::fig3b),
    ("fig4", runners::fig4),
    ("fig5", runners::fig5),
    ("overheads", runners::overheads),
    ("monfreq", runners::monitor_freq),
    ("ablation", runners::ablation),
    ("obsdemo", |config| obsdemo(config, None)),
    ("all", runners::all),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!("repro [{}] [--small] [--obs-out PATH]", names.join("|"))
}

fn run(which: &str, config: &ReproConfig) -> Result<Vec<Series>> {
    match EXPERIMENTS.iter().find(|(name, _)| *name == which) {
        Some((_, runner)) => runner(config),
        None => Err(GridError::Config(format!(
            "unknown experiment `{which}`\nusage: {}",
            usage()
        ))),
    }
}

/// The observability demo; with a path, also writes both runs' JSON
/// lines there.
fn obsdemo(config: &ReproConfig, obs_out: Option<&str>) -> Result<Vec<Series>> {
    let demo = runners::obsdemo(config)?;
    if let Some(path) = obs_out {
        let mut text = demo.sim.to_json_lines();
        text.push_str(&demo.threaded.to_json_lines());
        std::fs::write(path, text)
            .map_err(|e| GridError::Execution(format!("cannot write {path}: {e}")))?;
        eprintln!("observability export written to {path}");
    }
    Ok(demo.series)
}

fn main() {
    std::process::exit(cli(std::env::args().skip(1).collect()));
}

/// Runs one invocation and returns its exit code.
fn cli(mut args: Vec<String>) -> i32 {
    let mut obs_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--obs-out") {
        if i + 1 >= args.len() {
            eprintln!("error: --obs-out requires a path");
            return 2;
        }
        obs_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let small = args.iter().any(|a| a == "--small");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let config = if small {
        ReproConfig::small()
    } else {
        ReproConfig::default()
    };
    if obs_out.is_some() && which != "obsdemo" {
        eprintln!("error: --obs-out only applies to the obsdemo experiment");
        return 2;
    }
    let result = match &obs_out {
        Some(path) => obsdemo(&config, Some(path)),
        None => run(which, &config),
    };
    match result {
        Ok(series) => {
            println!(
                "Reproduction of Gounaris et al., \"Adapting to Changing Resource \
                 Performance in Grid Query Processing\" (VLDB DMG 2005)\n\
                 scale: {}\n",
                if small {
                    "small (--small)"
                } else {
                    "paper (Q1: 3000 tuples, Q2: 3000 x 4700)"
                }
            );
            for s in series {
                println!("{}", s.render());
            }
            0
        }
        Err(err) => {
            eprintln!("error: {err}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module doc's usage line is the one copy the table cannot
    /// generate; held equal to the generated one, every name it lists
    /// dispatches.
    #[test]
    fn the_documented_usage_line_is_the_experiment_table() {
        let documented = include_str!("repro.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! "))
            .find(|line| line.starts_with("repro ["));
        assert_eq!(documented, Some(usage().as_str()));
    }

    #[test]
    fn removed_subcommands_are_rejected_with_the_usage_text() {
        let config = ReproConfig::small();
        for gone in ["threaded", "sockets", "service", "gate", "trajectory"] {
            let err = run(gone, &config).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown experiment `{gone}`")),
                "{err}"
            );
            assert!(err.contains(&usage()), "{err}");
            assert_eq!(cli(vec![gone.to_string()]), 1);
        }
    }
}
